"""Cauchy-integral derivatives, winding numbers, loop integrals."""

import cmath
import math

import pytest

from banklaine.contour import (
    BoundarySingularity,
    circle_derivatives,
    logderiv_loop_integral,
    rect_path,
    winding_number,
)
from banklaine.scaledcx import ZERO, from_log
from banklaine.specfun import PairIndex, eval_model, numer_roots


def test_circle_derivatives_of_exp():
    derivs, winding = circle_derivatives(cmath.exp, 0.3 + 0.1j, 0.5, 4)
    ref = cmath.exp(0.3 + 0.1j)
    for d in derivs:
        assert abs(d - ref) < 1e-10 * abs(ref)
    assert winding == 0


def test_circle_derivatives_of_polynomial():
    f = lambda z: (z - 1.0) ** 3
    derivs, winding = circle_derivatives(f, 1.0 + 0j, 0.7, 4)
    # f, f', f'' vanish; f''' = 6; f'''' = 0; and winding picks up the triple zero
    assert abs(derivs[0]) < 1e-10 and abs(derivs[1]) < 1e-9 and abs(derivs[2]) < 1e-8
    assert abs(derivs[3] - 6.0) < 1e-8
    assert winding == 3


def test_rect_path_is_closed_ccw():
    p = rect_path(-1.0, 2.0, -0.5, 0.5, per_side=16)
    assert p[0] == p[-1]
    area = sum(
        (a.real * b.imag - b.real * a.imag) for a, b in zip(p[:-1], p[1:])
    ) / 2.0
    assert area == pytest.approx(3.0, rel=1e-12)  # positive = counterclockwise


def test_winding_matches_argument_principle():
    # w^2 (1 - w/4): double zero at 0, simple at 4; pole of order 3 at 1+2j
    def log_of(w):
        return ZERO if w == 0 else complex(math.log(abs(w)), math.atan2(w.imag, w.real))

    def f(z):
        return from_log(log_of(z * z * (1 - z / 4)) - log_of((z - (1 + 2j)) ** 3))

    assert winding_number(f, rect_path(-1, 2, -1, 1)) == pytest.approx(2.0, abs=1e-9)
    assert winding_number(f, rect_path(-2, 6, -3, 3)) == pytest.approx(0.0, abs=1e-9)
    assert winding_number(f, rect_path(0.5, 1.5, 1.5, 2.5)) == pytest.approx(-3.0, abs=1e-9)


def test_winding_of_model_around_pole():
    pair = PairIndex(1, 1)
    pole = complex(math.log(3.0), math.pi)
    box = rect_path(pole.real - 0.3, pole.real + 0.3, pole.imag - 0.3, pole.imag + 0.3)
    w = winding_number(lambda z: eval_model(pair, z), box)
    assert w == pytest.approx(-1.0, abs=1e-9)


def test_winding_raises_on_boundary_hit():
    pair = PairIndex(1, 1)
    pole = complex(math.log(3.0), math.pi)
    bad = rect_path(pole.real - 0.3, pole.real + 0.3, pole.imag - 0.3, pole.imag)
    with pytest.raises(BoundarySingularity):
        winding_number(lambda z: eval_model(pair, z), bad)


def test_logderiv_loop_counts_zeros_minus_poles():
    a, b = 0.2 + 0.1j, -0.4 - 0.3j
    ld = lambda z: 2.0 / (z - a) - 1.0 / (z - b)  # double zero at a, pole at b
    got = logderiv_loop_integral(ld, rect_path(-1, 1, -1, 1))
    assert abs(got - 1.0) < 1e-10


def test_logderiv_loop_integral_on_model():
    # net count of the model's log-derivative around its fundamental pole
    pair = PairIndex(1, 1)
    pole = complex(math.log(3.0), math.pi)
    from banklaine.specfun import log_derivative

    corners = [
        pole + complex(-0.4, -0.4),
        pole + complex(0.4, -0.4),
        pole + complex(0.4, 0.4),
        pole + complex(-0.4, 0.4),
    ]
    got = logderiv_loop_integral(lambda z: log_derivative(pair, z), corners)
    assert abs(got - (-1.0)) < 1e-9


def _instances_in_rect(wroots, rect):
    """The points log w + 2 pi i k in rect, over the w-plane roots ``wroots``."""
    x0, x1, y0, y1 = rect
    out = []
    for wr in wroots:
        base = cmath.log(wr)
        if x0 <= base.real <= x1:
            k_lo = math.ceil((y0 - base.imag) / (2 * math.pi))
            k_hi = math.floor((y1 - base.imag) / (2 * math.pi))
            out += [base + 2j * math.pi * k for k in range(k_lo, k_hi + 1)]
    return out


def test_root_registries_agree_with_winding():
    pair = PairIndex(1, 1)
    rect = (-0.2, 1.4, -1.2, 1.2)  # contains the two primary zeros of g
    zs = _instances_in_rect(numer_roots(pair), rect)
    w = winding_number(lambda z: eval_model(pair, z), rect_path(*rect))
    assert len(zs) == 2
    assert w == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("pair, x1, per_side, periods", [
    ((0, 0), 6.0, 64, 1),
    ((0, 1), 6.0, 256, 3),
    ((1, 0), 4.0, 64, 2),
])
def test_winding_follows_fast_turning_edges(pair, x1, per_side, periods):
    # on the right edge the phase of exp(e^z) turns by up to e^x1 per unit
    # of y, many full turns between samples; each period strip of the model
    # holds 2n zeros and m poles, so the box counts periods * (2n - m)
    m, n = pair
    box = rect_path(-3.0, x1, 0.3, 2.0 * math.pi * periods - 0.3, per_side)
    w = winding_number(lambda z: eval_model(PairIndex(m, n), z), box)
    assert w == pytest.approx(periods * (2 * n - m), abs=1e-9)


def test_circle_derivatives_fail_loudly_when_they_do_not_stabilize():
    # a jump on the circle: the trapezoid sums converge like 1/n, not geometrically
    calls = []

    def step(p):
        calls.append(p)
        return 1.0 if p.imag > 0.1 else 0.0

    with pytest.raises(RuntimeError, match=r"^circle_derivatives did not stabilize to 1e-10 within 4096 points$"):
        circle_derivatives(step, 0.1j, 0.5, 2)
    assert len(calls) == 4096  # every sample of the last pass, once


def test_logderiv_loop_integral_fails_loudly_when_it_does_not_stabilize():
    # a jump inside the first edge, off every panel boundary, keeps Gauss-Legendre from converging
    with pytest.raises(RuntimeError, match="^logderiv_loop_integral did not stabilize$"):
        logderiv_loop_integral(lambda z: 1.0 if z.real > 0.3 and z.imag == 0.0 else 0.0, [0.0, 1.0, 1.0j])
