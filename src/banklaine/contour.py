"""Contour quadrature utilities: Cauchy derivatives, winding numbers, path integrals."""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .scaledcx import wrap_phase

TWO_PI = 2.0 * math.pi


class BoundarySingularity(Exception):
    """A path sample landed on (or too close to) a zero or pole."""


# circle_derivatives: samples double from CIRCLE_POINTS until every order is stable to CIRCLE_REL_TOL
CIRCLE_POINTS, CIRCLE_MAX_POINTS, CIRCLE_REL_TOL = 16, 4096, 1e-10
# winding_number: phase steps below STEP_CAP, within MAX_PASSES halvings of a segment and MAX_POINTS in all
STEP_CAP, MAX_PASSES, MAX_POINTS = 0.5 * math.pi, 18, 400_000
# logderiv_loop_integral: Gauss-Legendre, LOOP_NODES per panel, panels doubling to LOOP_MAX_PANELS
LOOP_NODES, LOOP_MAX_PANELS, LOOP_REL_TOL = 64, 64, 1e-10


@lru_cache(maxsize=None)
def _gl_panels(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights of composite Gauss-Legendre quadrature on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(LOOP_NODES)
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


def circle_derivatives(f: Callable[[complex], complex], z: complex, radius: float,
                       max_order: int) -> tuple[list[complex], int]:
    """Cauchy-integral derivatives f^(0), ..., f^(max_order) at z.

    Integrates f over |zeta - z| = radius by the periodic trapezoid rule,
    which converges geometrically for an f analytic on an annulus around the
    circle (Trefethen & Weideman, SIAM Rev. 56, 2014): one FFT of n
    equispaced samples gives every order.  n doubles from ``CIRCLE_POINTS``,
    each pass sampling only the midpoints of the last, until every requested
    order is stable to ``CIRCLE_REL_TOL``.  Also returns the winding number
    of f around the circle (from the same samples), which callers use to
    detect zeros/poles of f inside the disk.

    Returns
    -------
    (derivs, winding) : list of complex, int
    """
    def sample(j: np.ndarray, n: int) -> np.ndarray:
        return np.array([complex(f(p)) for p in z + radius * np.exp(1j * (TWO_PI / n * j))])

    n = CIRCLE_POINTS
    while n <= 2 * max_order:
        n *= 2
    vals, prev = sample(np.arange(n), n), None
    while True:
        coef = np.fft.fft(vals)[:max_order + 1] / n
        derivs = [math.factorial(k) / radius**k * c for k, c in enumerate(coef.tolist())]
        if prev is not None:
            # an order whose derivative vanishes can only stabilize against
            # an absolute floor; the Cauchy bound k! max|f| / r^k sets its scale
            M = float(np.max(np.abs(vals))) or 1.0
            ok = all(
                abs(d - p)
                <= CIRCLE_REL_TOL * abs(d) + CIRCLE_REL_TOL * math.factorial(k) * M / radius**k
                for k, (d, p) in enumerate(zip(derivs, prev))
            )
            if ok:
                dphi = np.diff(np.unwrap(np.angle(vals)))
                closing = wrap_phase(float(np.angle(vals[0]) - np.angle(vals[-1])))
                winding = (float(np.sum(dphi)) + closing) / TWO_PI
                return derivs, round(winding)
        prev = derivs
        n *= 2
        if n > CIRCLE_MAX_POINTS:
            raise RuntimeError(f"circle_derivatives did not stabilize to {CIRCLE_REL_TOL:g} "
                               f"within {CIRCLE_MAX_POINTS} points")
        vals = np.column_stack([vals, sample(np.arange(1, n, 2), n)]).ravel()  # new points between the old


def rect_path(x0: float, x1: float, y0: float, y1: float, per_side: int = 64) -> list[complex]:
    """Closed counterclockwise rectangle boundary, last point == first point."""
    bottom = [complex(x, y0) for x in np.linspace(x0, x1, per_side, endpoint=False)]
    right = [complex(x1, y) for y in np.linspace(y0, y1, per_side, endpoint=False)]
    top = [complex(x, y1) for x in np.linspace(x1, x0, per_side, endpoint=False)]
    left = [complex(x0, y) for y in np.linspace(y1, y0, per_side, endpoint=False)]
    pts = bottom + right + top + left
    pts.append(pts[0])
    return pts


def winding_number(eval_log: Callable[[complex], complex], path: Sequence[complex]) -> float:
    """Total phase winding along a closed path, in turns, of f given by its complex logarithm.

    The path is refined by midpoint insertion until, on every segment, the
    phase step is below ``STEP_CAP`` and so is the change of log|f| across
    the segment, sampled a quarter segment to either side of its midpoint.
    The wrapped phase step alone cannot see a step of 2 pi k; by
    Cauchy-Riemann the argument turns along the path as fast as log|f|
    changes across it, so the second test catches such a segment.  The
    continuous argument is tracked without ever materializing |f|.  Raises
    BoundarySingularity if a path sample hits a zero or pole (Re log f infinite).
    """

    def sample(p: complex) -> complex:
        v = eval_log(p)
        if math.isinf(v.real):
            raise BoundarySingularity(f"path sample at {p} hits a {'zero' if v.real < 0 else 'pole'}")
        return v

    inserted = 0

    def turn(a: complex, va: complex, b: complex, vb: complex, depth: int) -> float:
        nonlocal inserted
        step = wrap_phase(vb.imag - va.imag)
        if depth == MAX_PASSES:
            return step
        mid, across = 0.5 * (a + b), 0.25j * (b - a)
        # a zero or pole beside the path makes the change across infinite or NaN: refine
        if abs(step) < STEP_CAP and abs(
                eval_log(mid + across).real - eval_log(mid - across).real) < STEP_CAP:
            return step
        inserted += 1
        if len(pts) + inserted > MAX_POINTS:
            raise RuntimeError("winding_number refinement exceeded point budget")
        vm = sample(mid)
        return turn(a, va, mid, vm, depth + 1) + turn(mid, vm, b, vb, depth + 1)

    pts = list(path)
    if pts[0] != pts[-1]:
        pts.append(pts[0])
    vals = [sample(p) for p in pts]
    return sum(turn(pts[i], vals[i], pts[i + 1], vals[i + 1], 0) for i in range(len(pts) - 1)) / TWO_PI


def logderiv_loop_integral(logderiv: Callable[[complex], complex], corners: Sequence[complex]) -> complex:
    """(1/2*pi*i) * loop integral of a log-derivative along a polygonal path.

    ``corners`` is a closed polygon (first point repeated or not); each edge
    gets composite GL panels, doubled until the total stabilizes.
    """
    cs = list(corners)
    if cs[0] != cs[-1]:
        cs.append(cs[0])
    prev = None
    panels = 1
    while True:
        total = 0j
        for a, b in zip(cs[:-1], cs[1:]):
            t, wts = _gl_panels(panels)
            seg = b - a
            pts = a + seg * t
            vals = np.array([logderiv(p) for p in pts])
            total += seg * np.sum(vals * wts)
        total /= 2j * math.pi
        if prev is not None and abs(total - prev) <= LOOP_REL_TOL * (abs(total) + 1.0):
            return total
        prev = total
        panels *= 2
        if panels > LOOP_MAX_PANELS:
            raise RuntimeError("logderiv_loop_integral did not stabilize")
