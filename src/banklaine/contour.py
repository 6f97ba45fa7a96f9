"""Contour quadrature utilities: Cauchy derivatives, winding numbers, path integrals."""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .scaledcx import ScaledComplex, wrap_phase

TWO_PI = 2.0 * math.pi


class BoundarySingularity(Exception):
    """A path sample landed on (or too close to) a zero or pole."""


@lru_cache(maxsize=32)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _gl_panels(a: float, b: float, panels: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights of composite Gauss-Legendre quadrature on [a, b]."""
    x, w = _gl_nodes(nodes)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


def circle_derivatives(
    f: Callable[[complex], complex],
    z: complex,
    radius: float,
    max_order: int,
    rel_tol: float = 1e-10,
    nodes: int = 64,
    max_panels: int = 64,
) -> tuple[list[complex], int]:
    """Cauchy-integral derivatives f^(0), ..., f^(max_order) at z.

    Integrates f over |zeta - z| = radius with composite Gauss-Legendre
    panels, doubling the panel count until every requested order is stable
    to ``rel_tol``.  Also returns the winding number of f around the circle
    (from the same samples), which callers use to detect zeros/poles of f
    inside the disk.

    Returns
    -------
    (derivs, winding) : list of complex, int
    """
    prev: list[complex] | None = None
    panels = 2
    while True:
        theta, wts = _gl_panels(0.0, TWO_PI, panels, nodes)
        pts = z + radius * np.exp(1j * theta)
        vals = np.array([complex(f(p)) for p in pts])
        derivs = []
        for k in range(max_order + 1):
            integ = np.sum(vals * np.exp(-1j * k * theta) * wts)
            derivs.append(math.factorial(k) / (TWO_PI * radius**k) * integ)
        if prev is not None:
            # an order whose derivative vanishes can only stabilize against
            # an absolute floor; the Cauchy bound k! max|f| / r^k sets its scale
            M = float(np.max(np.abs(vals))) or 1.0
            ok = all(
                abs(d - p)
                <= rel_tol * abs(d) + rel_tol * math.factorial(k) * M / radius**k
                for k, (d, p) in enumerate(zip(derivs, prev))
            )
            if ok:
                dphi = np.diff(np.unwrap(np.angle(vals)))
                closing = wrap_phase(float(np.angle(vals[0]) - np.angle(vals[-1])))
                winding = (float(np.sum(dphi)) + closing) / TWO_PI
                return derivs, round(winding)
        prev = derivs
        panels *= 2
        if panels > max_panels:
            raise RuntimeError(
                f"circle_derivatives did not stabilize to {rel_tol:g} "
                f"within {max_panels} panels"
            )


def rect_path(x0: float, x1: float, y0: float, y1: float, per_side: int = 64) -> list[complex]:
    """Closed counterclockwise rectangle boundary, last point == first point."""
    bottom = [complex(x, y0) for x in np.linspace(x0, x1, per_side, endpoint=False)]
    right = [complex(x1, y) for y in np.linspace(y0, y1, per_side, endpoint=False)]
    top = [complex(x, y1) for x in np.linspace(x1, x0, per_side, endpoint=False)]
    left = [complex(x0, y) for y in np.linspace(y1, y0, per_side, endpoint=False)]
    pts = bottom + right + top + left
    pts.append(pts[0])
    return pts


def winding_number(
    eval_sc: Callable[[complex], ScaledComplex],
    path: Sequence[complex],
    step_cap: float = 0.5 * math.pi,
    max_passes: int = 18,
    max_points: int = 400_000,
) -> float:
    """Total phase winding of f along a closed path, in turns.

    The path is refined by midpoint insertion until, on every segment, the
    phase step is below ``step_cap`` and so is the change of log|f| across
    the segment, sampled a quarter segment to either side of its midpoint.
    The wrapped phase step alone cannot see a step of 2 pi k; by
    Cauchy-Riemann the argument turns along the path as fast as log|f|
    changes across it, so the second test catches such a segment.  The
    continuous argument is tracked without ever materializing |f|.  Raises
    BoundarySingularity if a path sample hits a tagged zero/pole.
    """

    def sample(p: complex) -> ScaledComplex:
        v = eval_sc(p)
        if v.kind != "finite":
            raise BoundarySingularity(f"path sample at {p} hits a {v.kind}")
        return v

    inserted = 0

    def turn(a: complex, va: ScaledComplex, b: complex, vb: ScaledComplex, depth: int) -> float:
        nonlocal inserted
        step = wrap_phase(vb.phase - va.phase)
        if depth == max_passes:
            return step
        mid, across = 0.5 * (a + b), 0.25j * (b - a)
        # a zero or pole beside the path makes the change across infinite or NaN: refine
        if abs(step) < step_cap and abs(
                eval_sc(mid + across).log_modulus - eval_sc(mid - across).log_modulus) < step_cap:
            return step
        inserted += 1
        if len(pts) + inserted > max_points:
            raise RuntimeError("winding_number refinement exceeded point budget")
        vm = sample(mid)
        return turn(a, va, mid, vm, depth + 1) + turn(mid, vm, b, vb, depth + 1)

    pts = list(path)
    if pts[0] != pts[-1]:
        pts.append(pts[0])
    vals = [sample(p) for p in pts]
    return sum(turn(pts[i], vals[i], pts[i + 1], vals[i + 1], 0) for i in range(len(pts) - 1)) / TWO_PI


def logderiv_loop_integral(
    logderiv: Callable[[complex], complex],
    corners: Sequence[complex],
    rel_tol: float = 1e-10,
    nodes: int = 64,
    max_panels: int = 64,
) -> complex:
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
            t, wts = _gl_panels(0.0, 1.0, panels, nodes)
            seg = b - a
            pts = a + seg * t
            vals = np.array([logderiv(p) for p in pts])
            total += seg * np.sum(vals * wts)
        total /= 2j * math.pi
        if prev is not None and abs(total - prev) <= rel_tol * (abs(total) + 1.0):
            return total
        prev = total
        panels *= 2
        if panels > max_panels:
            raise RuntimeError("logderiv_loop_integral did not stabilize")
