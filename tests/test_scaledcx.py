"""Complex-logarithm values: round trips, zeros and poles, cancellation."""

import cmath
import math

import pytest
from hypothesis import given, strategies as st

from banklaine.scaledcx import POLE, ZERO, conj, from_log, log_one_plus, to_complex, wrap_phase
from banklaine.surgery import _log_gap


finite_cx = st.complex_numbers(
    min_magnitude=1e-150, max_magnitude=1e150, allow_nan=False, allow_infinity=False
)


def close(a: complex, b: complex, tol=1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def log_of(w: complex) -> complex:
    return complex(math.log(abs(w)), math.atan2(w.imag, w.real))


def test_wrap_phase_range():
    for t in (-10.0, -math.pi, -1e-9, 0.0, 1.0, math.pi, 31.4):
        w = wrap_phase(t)
        assert -math.pi < w <= math.pi


def test_from_complex_round_trip():
    z = 3.5 - 1.25j
    assert close(to_complex(log_of(z)), z, 1e-15)
    assert close(to_complex(from_log(cmath.log(z) + 4j * math.pi)), z, 1e-15)


def test_zero_and_pole_flags():
    assert ZERO.real == -math.inf and POLE.real == math.inf
    assert ZERO.imag == POLE.imag == 0.0
    assert to_complex(ZERO) == 0j
    assert math.isfinite(log_of(1.0).real)


def test_materialize_cap():
    with pytest.raises(OverflowError, match="exceeds double range"):
        to_complex(complex(800.0, 0.3))
    with pytest.raises(OverflowError, match="^cannot materialize a pole$"):
        to_complex(POLE)


def test_mul_beyond_double_range():
    # each factor overflows a double on its own; the product round-trips in logs
    a = from_log(complex(1000.0, 1.0))
    b = from_log(complex(-999.0, -1.0))
    assert close(to_complex(from_log(a + b)), math.e + 0j, 1e-13)


def test_pole_zero_algebra():
    f = log_of(2.0 + 1.0j)
    assert (ZERO + f).real == -math.inf      # 0 * f
    assert (POLE + f).real == math.inf       # pole * f
    assert (f - ZERO).real == math.inf       # f / 0
    assert log_one_plus(ZERO) == 0j          # 0 + 1
    assert log_one_plus(POLE) == POLE
    assert close(to_complex(log_one_plus(f)), 3.0 + 1.0j, 1e-15)
    assert to_complex(-f + f) == 1.0         # f^-1 * f
    assert conj(ZERO) == ZERO and conj(POLE) == POLE
    assert math.copysign(1.0, conj(ZERO).imag) == 1.0


def test_log_gap_of_zeros_and_poles():
    f = log_of(2.0 + 1.0j)
    assert _log_gap(ZERO, ZERO) == _log_gap(POLE, POLE) == 0.0
    assert _log_gap(ZERO, POLE) == _log_gap(POLE, ZERO) == math.inf
    for a, b in ((ZERO, f), (f, ZERO), (POLE, f), (f, POLE)):
        assert _log_gap(a, b) == math.inf
    # a pole against the reciprocal of a zero: -ZERO is the log of 1/0
    assert _log_gap(POLE, -ZERO) == 0.0
    assert _log_gap(f, f) == 0.0
    assert _log_gap(f, from_log(f + 2j * math.pi)) <= 1e-15


def test_add_exact_cancellation():
    assert log_one_plus(log_of(-1.0)) == ZERO
    assert log_one_plus(complex(0.0, -math.pi)) == ZERO


def test_add_tiny_against_huge():
    assert log_one_plus(complex(2000.0, 0.0)) == complex(2000.0, 0.0)
    assert log_one_plus(complex(-2000.0, 0.3)) == 0j


@given(finite_cx, finite_cx)
def test_mul_matches_complex(a, b):
    got = from_log(log_of(a) + log_of(b))
    want = a * b
    if want == 0:
        assert got.real == -math.inf or abs(to_complex(got)) < 1e-290
    else:
        assert abs(got.real - math.log(abs(want))) < 1e-9
        assert abs(wrap_phase(got.imag - math.atan2(want.imag, want.real))) < 1e-9


@given(finite_cx)
def test_conj_involution(a):
    la = from_log(log_of(a))
    assert close(to_complex(conj(la)), a.conjugate(), 1e-12)
    assert close(to_complex(conj(conj(la))), a, 1e-12)
    assert conj(conj(la)) == la


def test_conj_keeps_phase_pi():
    # the conjugate of a negative real is itself: arg stays pi, not -pi
    assert conj(complex(0.5, math.pi)) == complex(0.5, math.pi)
    assert conj(log_of(-3.0)).imag == math.pi
    assert conj(complex(0.5, 1.0)) == complex(0.5, -1.0)


def test_add_complex_phases():
    for w in (cmath.exp(0.7j) * 3.0, cmath.exp(-2.1j) * 0.4, -0.5 + 0.3j, -2.0 - 1e-3j):
        want = w + 1.0
        got = log_one_plus(log_of(w))
        assert abs(got.real - math.log(abs(want))) < 1e-9
        assert abs(wrap_phase(got.imag - math.atan2(want.imag, want.real))) < 1e-9
    assert close(to_complex(log_one_plus(log_of(cmath.exp(0.7j) * 3.0))), cmath.exp(0.7j) * 3.0 + 1.0, 1e-13)
