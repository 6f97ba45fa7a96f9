"""Log-polar arithmetic: round trips, absorbing elements, cancellation."""

import cmath
import math

import pytest
from hypothesis import given, strategies as st

from banklaine.scaledcx import ScaledComplex, wrap_phase


finite_cx = st.complex_numbers(
    min_magnitude=1e-150, max_magnitude=1e150, allow_nan=False, allow_infinity=False
)


def close(a: complex, b: complex, tol=1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_wrap_phase_range():
    for t in (-10.0, -math.pi, -1e-9, 0.0, 1.0, math.pi, 31.4):
        w = wrap_phase(t)
        assert -math.pi < w <= math.pi


def test_from_complex_round_trip():
    z = 3.5 - 1.25j
    sc = ScaledComplex.from_complex(z)
    assert close(sc.to_complex(), z, 1e-15)


def test_zero_and_pole_flags():
    assert ScaledComplex.zero().is_zero
    assert ScaledComplex.pole().is_pole
    assert not ScaledComplex.from_complex(1.0).is_zero


def test_materialize_cap():
    big = ScaledComplex.from_log(complex(800.0, 0.3))
    with pytest.raises(OverflowError):
        big.to_complex()
    with pytest.raises(OverflowError):
        ScaledComplex.pole().to_complex()


def test_mul_beyond_double_range():
    # each factor overflows a double on its own; the product round-trips in logs
    a = ScaledComplex.from_log(complex(1000.0, 1.0))
    b = ScaledComplex.from_log(complex(-999.0, -1.0))
    prod = a.mul(b)
    assert close(prod.to_complex(), math.e + 0j, 1e-13)


def test_pole_zero_algebra():
    z = ScaledComplex.zero()
    p = ScaledComplex.pole()
    f = ScaledComplex.from_complex(2.0 + 1.0j)
    assert z.mul(f).is_zero
    assert p.mul(f).is_pole
    assert f.div(z).is_pole
    assert f.div(p).is_zero
    assert z.add(f).to_complex() == f.to_complex()
    assert p.add(f).is_pole
    assert f.recip().mul(f).to_complex() == pytest.approx(1.0)


def test_add_exact_cancellation():
    one = ScaledComplex.from_complex(1.0)
    assert one.add_real(-1.0).is_zero


def test_add_tiny_against_huge():
    big = ScaledComplex.from_log(complex(2000.0, 0.0))
    small = ScaledComplex.from_complex(1.0)
    s = big.add(small)
    assert s.log_modulus == 2000.0 and s.phase == 0.0


def test_pow_int():
    f = ScaledComplex.from_complex(1.0 + 1.0j)
    assert close(f.pow_int(8).to_complex(), (1 + 1j) ** 8, 1e-13)
    assert close(f.pow_int(-3).to_complex(), (1 + 1j) ** -3, 1e-13)
    assert ScaledComplex.zero().pow_int(2).is_zero
    assert ScaledComplex.zero().pow_int(-1).is_pole


@given(finite_cx, finite_cx)
def test_mul_matches_complex(a, b):
    sa, sb = ScaledComplex.from_complex(a), ScaledComplex.from_complex(b)
    got = sa.mul(sb)
    want = a * b
    if want == 0:
        assert got.log_modulus == -math.inf or abs(got.to_complex()) < 1e-290
    else:
        assert abs(got.log_modulus - math.log(abs(want))) < 1e-9
        assert abs(wrap_phase(got.phase - math.atan2(want.imag, want.real))) < 1e-9


@given(finite_cx)
def test_conj_neg_involutions(a):
    sa = ScaledComplex.from_complex(a)
    assert close(sa.conj().conj().to_complex(), a, 1e-12)
    assert close(sa.neg().neg().to_complex(), a, 1e-12)


def test_add_complex_phases():
    a = ScaledComplex.from_complex(cmath.exp(0.7j) * 3.0)
    b = ScaledComplex.from_complex(cmath.exp(-2.1j) * 0.4)
    want = cmath.exp(0.7j) * 3.0 + cmath.exp(-2.1j) * 0.4
    assert close(a.add(b).to_complex(), want, 1e-13)


def test_times_real_rejects_zero():
    with pytest.raises(ValueError, match="^scale factor must be nonzero$"):
        ScaledComplex.from_complex(1.5 - 0.5j).times_real(0.0)
