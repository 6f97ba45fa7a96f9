"""Glued quasiregular model maps and their dilatation accounting.

The assemblies here paste the 2*pi*i-periodic model functions of
:mod:`banklaine.specfun` together along strips, spirals, sectors, and
power-map wedges, interpolating with the conjugating diffeomorphisms of
:mod:`banklaine.diffeo` inside transition bands.  Each assembled map
carries seam-residual sweeps, a closed-form Beltrami coefficient, and a
polar midpoint quadrature of (K-1)/|z|^2 -- the integrand whose finite
tail is what makes the glued map a quasiconformal deformation of a
meromorphic one.

Four flavors are built by :func:`assemble`:

``spiral``
    two models glued across a logarithmic spiral via the chart z^mu,
``strips``
    horizontal strips of height 2*pi*N_k in both half-planes (with an
    optional z^n sector extension),
``power``
    a wedge pair |arg z| <= pi/(2*rho) / |arg(-z)| <= pi/(2*sigma) glued
    through the radial interpolation Q and the outer maps z^rho, -(-z)^sigma,
``mixed``
    the strip layout with half-model pieces in the upper half-plane.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import sequences
from .diffeo import LEFT, RIGHT, DiffeoSpec, PhiSolver, PsiMap, psi_link
from .scaledcx import conj, wrap_phase
from .sequences import build_graded_slopes, build_paired_slopes, select_case
from .specfun import HALF, PAIR_CAP, PLAIN, EvalDomainError, PairIndex, eval_model, eval_model_turns

TWO_PI = 2.0 * math.pi

# A seam decision taken from numpy values within this slack of its threshold is
# retaken by the scalar code.  numpy's log, arctan2 and exp may differ from libm
# by a few ulp.  |log r| < 745 and |beta0| < 1.7 (PAIR_CAP), so theta + beta0 log r
# (< 1300) and xi move by ~1e-12, bar the jumps of fmod and wrap_phase at xi = 0,
# +-pi; lm = order log r - beta0 xi (order < 4) by ~1e-11, and Im h by ~1e-11 |h|.
DECISION_SLACK = 1e-9
# The spiral's quiet_arc keeps xi this far from 0, +-pi and |Im h| from 1: far above DECISION_SLACK and ~1e-12.
QUIET_MARGIN = 1e-6

SPIRAL = "spiral"
STRIPS = "strips"
POWER = "power"
MIXED = "mixed"

_FLAVORS = (SPIRAL, STRIPS, POWER, MIXED)


class UninterpolatedRegion(ValueError):
    """Raised where a sector assembly is deliberately left undefined.

    The z^n extensions interpolate nothing inside |Im z^n| <= 2*pi around
    the sector rays; evaluation there has no formula to offer.
    """


class ResolutionError(ValueError):
    """Quadrature grid too coarse: seam-straddling cells exceed 20% of area."""


class PairCapError(ValueError):
    """A strip's model pair exceeds ``PAIR_CAP``: its strip system stops below that strip."""


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def affine_beltrami(x_div: float, y_div: float) -> complex:
    """Beltrami coefficient of chi(x+iy) = x/x_div + i y/y_div.

    For the strip charts this is (N-l)/(N+l) up to sign; zero when the two
    scales agree.  It is the constant dilatation that a strip's own chart adds
    to (K-1)/|z|^2, apart from any psi band.
    """
    return _compose_affine(x_div, y_div, 0.0, 0.0)


def _affine_parts(x_div, y_div):
    """(alpha, beta) of chi = alpha w + beta wbar = x/x_div + i y/y_div, for floats or arrays alike."""
    return 0.5 * (1.0 / x_div + 1.0 / y_div), 0.5 * (1.0 / x_div - 1.0 / y_div)


def _compose_affine(x_div: float, y_div: float, a: float, b: float) -> complex:
    # mu of chi o q with q_z = 1+a-ib, q_zbar = a+ib and chi = alpha w + beta wbar
    alpha, beta = _affine_parts(x_div, y_div)
    num = beta + (alpha + beta) * complex(a, b)
    den = alpha + (alpha + beta) * complex(a, -b)
    if den == 0:
        return complex("nan")
    return num / den


def _c_quot(ar: np.ndarray, ai: np.ndarray, br: np.ndarray, bi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ar + i ai) / (br + i bi) over arrays by Smith's method as CPython divides (``_Py_c_quot``); NaN where b == 0."""
    by_re = np.abs(br) >= np.abs(bi)
    with np.errstate(all="ignore"):  # in the branch np.where drops; Python overflows without a warning
        ratio = np.where(by_re, bi / br, br / bi)
        denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
        return (np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom,
                np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom)


def _affine_mu_abs(alpha: np.ndarray, beta: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """abs(_compose_affine(x_div, y_div, a, b)) over arrays, bit for bit, NaN (0/0) where den == 0.

    alpha, beta are ``_affine_parts(x_div, y_div)`` per cell; num = (beta + f a, f b) over den = (alpha + f a, -f b),
    f = alpha + beta, by ``_c_quot``, then hypot as complex abs; np.abs of a complex rounds differently.
    """
    fa, fb = (alpha + beta) * a, (alpha + beta) * b
    return np.hypot(*_c_quot(beta + fa, fb, alpha + fa, -fb))


def _band_mu(a: float, b: float) -> complex:
    den = complex(1.0 + a, -b)
    if den == 0:
        return complex("nan")
    return complex(a, b) / den


def _k_of_mu(mu_abs: float) -> float:
    if not math.isfinite(mu_abs) or mu_abs >= 1.0:
        return math.inf
    return (1.0 + mu_abs) / (1.0 - mu_abs)


def _log_gap(a: complex, b: complex) -> float:
    """Log-space distance between two complex logarithms; 0 between two zeros or two poles, else inf at either."""
    if math.isinf(a.real) or math.isinf(b.real):
        return 0.0 if a.real == b.real else math.inf
    return max(abs(a.real - b.real), abs(wrap_phase(a.imag - b.imag)))


# ---------------------------------------------------------------------------
# spiral charts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpiralCharts:
    """The pair p(z) = z^mu, h = p^{-1} used to wrap a half-plane gluing.

    ``mu`` is chosen so that the two edges of the cut along the negative
    reals are identified with a stretch by ``kappa``:  p(x+i0) = p(kappa x - i0)
    for x < 0, which follows from mu*(log kappa - 2 pi i) = -2 pi i.  The
    inverse chart lives on the complement of the logarithmic spiral
    Gamma = p((-inf, 0]).
    """

    kappa: float
    mu: complex
    beta0: float  # log(kappa)/(2 pi); the imaginary part of 1/mu
    order: float  # 1/Re(mu) = 1 + log^2(kappa)/(4 pi^2), the growth order scale

    def p(self, z: complex) -> complex:
        """z^mu with the principal branch (cut along the negative reals)."""
        z = complex(z)
        if z == 0:
            return 0j
        return cmath.exp(self.mu * cmath.log(z))

    def _xi(self, w: complex) -> float:
        # the argument of h(w); also the branch-adjusted phase of w
        return wrap_phase(math.atan2(w.imag, w.real) + self.beta0 * math.log(abs(w)))

    def _xis(self, theta: np.ndarray, logr: np.ndarray) -> np.ndarray:
        """``_xi`` from arrays of arg w and log|w|: np.fmod is exact, as math.fmod, then wrap_phase's corrections."""
        t = np.fmod(theta + self.beta0 * logr, TWO_PI)
        return np.where(t <= -math.pi, t + TWO_PI, np.where(t > math.pi, t - TWO_PI, t))

    def xi_logr(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(``_xi(w)``, log|w|) at nonzero points to ~1e-12; exact within DECISION_SLACK of xi = 0, +-pi."""
        logr = np.log(np.hypot(w.real, w.imag))
        xi = self._xis(np.arctan2(w.imag, w.real), logr)
        a = np.abs(xi)
        for j in np.flatnonzero((a < DECISION_SLACK) | (a > math.pi - DECISION_SLACK)).tolist():
            z = complex(w[j])
            xi[j], logr[j] = self._xi(z), math.log(abs(z))
        return xi, logr

    def h(self, w: complex) -> complex:
        """The inverse chart, branch fixed so arg h(w) lands in (-pi, pi].

        Writes h = exp((1/mu)(log|w| + i theta)) with 1/mu = 1 + i beta0 and
        theta the lift of arg w for which the image leaves the cut plane
        exactly along Gamma.  ``h_array`` is its array form, bit for bit.
        """
        w = complex(w)
        if w == 0:
            return 0j
        xi = self._xi(w)
        return cmath.exp(complex(self.order * math.log(abs(w)) - self.beta0 * xi, xi))

    def h_array(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Re h, Im h) at nonzero w as ``h`` forms them (libm log, atan2, exp per element); exact below |h| = e^708."""
        logr = np.array(list(map(math.log, np.hypot(w.real, w.imag).tolist())))
        xi = self._xis(np.array(list(map(math.atan2, w.imag.tolist(), w.real.tolist()))), logr)
        l = np.array(list(map(math.exp, (self.order * logr - self.beta0 * xi).tolist())))
        return l * np.cos(xi), l * np.sin(xi)

    def h_prime(self, w: complex) -> complex:
        """dh/dw = h(w)/(mu w) on the cut complement."""
        w = complex(w)
        return self.h(w) / (self.mu * w)

    def modulus_band(self, r: float) -> tuple[float, float]:
        """Sharp bounds for |h| on the circle |w| = r.

        |h| = r^{1/Re mu} e^{-beta0 xi} with xi in (-pi, pi], so the image
        of the circle spans exactly r^{1/Re mu} * [kappa^{-1/2}, kappa^{1/2}]
        (endpoints approached at the spiral cut).  So |w| <= r pulls back to
        |h| within a fixed factor of r^{1/Re mu}: the radius comparison
        behind the growth scale ``order``.
        """
        s = math.exp(abs(self.beta0) * math.pi)  # = max(sqrt(kappa), 1/sqrt(kappa))
        base = r ** self.order
        return base / s, base * s

    def boundary_gap(self, x: float) -> float:
        """|p(x + i eps) - p(kappa x - i eps)| at eps = 1e-8 for x < 0; -> 0 with eps.

        It measures the edge identification p(x + i0) = p(kappa x - i0) by which
        z^mu glues the two sides of the cut, the defining property of the chart.
        """
        if x >= 0:
            raise ValueError("the edge identification lives on x < 0")
        eps = 1e-8
        return abs(self.p(complex(x, eps)) - self.p(complex(self.kappa * x, -eps)))


def spiral_charts(kappa: float) -> SpiralCharts:
    """Construct the chart pair for a given edge stretch kappa > 0."""
    kappa = float(kappa)
    if not (kappa > 0 and math.isfinite(kappa)):
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    lk = math.log(kappa)
    den = TWO_PI * TWO_PI + lk * lk
    mu = complex(TWO_PI * TWO_PI / den, -TWO_PI * lk / den)
    beta0 = lk / TWO_PI
    return SpiralCharts(kappa=kappa, mu=mu, beta0=beta0, order=1.0 + beta0 * beta0)


# ---------------------------------------------------------------------------
# the strip homeomorphism on Pi = {|Im z| < 1}
# ---------------------------------------------------------------------------

class StripHomeo:
    """Interpolation of a conjugating diffeomorphism across a unit strip.

    Identity for |Im z| >= 1; on the real axis psi(x) = phi(x) for x > 0 and
    psi(kappa x) = phi(x) for x < 0, linearly interpolated in |Im z|.  The
    Jacobian tends to the identity as x -> +inf and to a unit upper-triangular
    matrix with off-diagonal -sign(y) c as x -> -inf.
    """

    def __init__(self, spec: DiffeoSpec):
        self.spec = spec
        self._solver = PhiSolver(spec)

    @property
    def kappa(self) -> float:
        return self.spec.kappa

    def _base(self, x: float) -> tuple[float, float]:
        """(base(x), base'(x)) from one solve: phi(x) for x >= 0, phi(x/kappa) below."""
        if x >= 0:
            return self._solver.solve(x)
        p, dp = self._solver.solve(x / self.kappa)
        return p, dp / self.kappa

    def __call__(self, z: complex) -> complex:
        z = complex(z)
        x, y = z.real, z.imag
        if abs(y) >= 1.0:
            return z
        base = self._base(x)[0]
        return complex(base + abs(y) * (x - base), y)

    def jacobian(self, z: complex) -> tuple[float, float, float, float]:
        """(u_x, u_y, v_x, v_y) of the interpolation; identity off the strip."""
        z = complex(z)
        x, y = z.real, z.imag
        if abs(y) >= 1.0:
            return 1.0, 0.0, 0.0, 1.0
        return _shear_jacobian(x, y, *self._base(x))


def _shear_jacobian(x: float, y: float, base: float, dp: float) -> tuple[float, float, float, float]:
    # u = base + |y| (x - base), v = y, for 0 < |y| < 1; dp = base'(x); floats or arrays
    sgn = 2.0 * (y >= 0) - 1.0
    return dp * (1.0 - abs(y)) + abs(y), sgn * (x - base), 0.0, 1.0


# ---------------------------------------------------------------------------
# one half-plane side of a strip assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Strip:
    """Strip k of one strip system, built once.

    The strip spans local heights [lo, hi) with hi - lo = 2 pi y_div,
    carries the model ``pair`` in ``variant`` scaled by
    chi = x/x_div + i y/y_div and shifted by ``shift``, and interpolates
    toward strip k+1 through its own ``psi`` (None when that map is the
    identity), whose table ``transition`` keys in its owner ``_psi_table``,
    shared by the strips that repeat it.  ``active`` says whether it carries any dilatation.
    """

    k: int
    pair: PairIndex
    variant: str
    x_div: float
    y_div: float
    shift: float
    lo: float
    hi: float
    psi: Optional[PsiMap]
    transition: Optional[tuple]
    active: bool


class _StripRecords:
    """One published value of a strip system: strips 1..n, tops Y_0 = 0, ..., Y_n, and columns built on first read."""

    def __init__(self, strips: list, tops: list):
        self.strips, self.tops, self._columns = strips, tops, None

    def columns(self) -> dict:
        """``x_div``, ``y_div``, ``active``, ``alpha``, ``beta`` by k - 1 and ``tops``; 176 rebuilds cost 7-14 ms."""
        if self._columns is None:
            cols = {a: np.array([getattr(s, a) for s in self.strips]) for a in ("x_div", "y_div", "active")}
            cols["alpha"], cols["beta"] = _affine_parts(cols["x_div"], cols["y_div"])
            cols["tops"], self._columns = np.array(self.tops), cols
        return self._columns


class _StripSystem:
    """Strip-indexed evaluator on one horizontal side of a half-plane.

    Strip k occupies local heights [Y_{k-1}, Y_k) with Y_k - Y_{k-1}
    = 2 pi y_div(k), carries the model pair (m_k, n_k) scaled by
    chi = x/x_div + i y/y_div, and interpolates toward strip k+1 through
    q = x + i y + t (psi_k(x) - x) with t the normalized strip height.
    Evaluation feeds t straight into the exact-turn model evaluator, so
    the top edge of strip k and the bottom edge of strip k+1 agree to the
    accuracy of the conjugacy solve.

    The strip records, their tops and their columns are one :class:`_StripRecords`
    value, grown into local lists and published whole by ``_covering``.  A racing
    thread may publish a shorter value, so an operation reads one value and takes
    every index from it: strips, tops, columns, and the strips that ``psi_read``
    reads by the rows those columns gave.

    ``psi_read`` takes each row's psi table from its owner ``_psi_table`` by
    the strip's ``transition`` and reads them stacked on one node grid, and
    ``mu_parts`` reads one, both through the one reader ``_PsiCache.read_rows``.
    Every psi solve, exact or tabulated, is a function of x alone.

    The lower half-plane is the conjugated mirror image of ``below``: the
    system itself on plain strips, the plain lower system on mixed and power
    maps.  ``read(y)`` is the one place that picks a system by the sign of y.
    """

    def __init__(self, m_seq, n_seq, side: str, l: int, heights: str,
                 variant_rule: Callable[[int], str], tag: str, below: Optional["_StripSystem"] = None):
        if heights not in ("slope", "unit"):
            raise ValueError("heights must be 'slope' or 'unit'")
        self._m, self._n = m_seq, n_seq
        self.side = side
        self.l = int(l)
        self.heights = heights
        self.variant_rule = variant_rule
        self.tag = tag
        self.below = self if below is None else below
        self._records = _StripRecords([], [0.0])
        self._xs = _PsiCache.nodes(*_PsiCache.SIDES[side])  # the node grid of every psi table here

    # -- strip records -----------------------------------------------------
    def _model(self, k: int, top: float) -> tuple[PairIndex, str]:
        """(pair, variant) of strip k, read by growth that stands at local height top."""
        stop = f"strip system {self.tag} stops at local height {top!r}: strip {self.tag}{k}"
        if k > sequences.MAX_ENTRIES:
            raise EvalDomainError(f"{stop} is past the slope sequences' MAX_ENTRIES = {sequences.MAX_ENTRIES}")
        m, n = self._m.entry(k), self._n.entry(k)
        if max(m, n) > PAIR_CAP:
            raise PairCapError(f"{stop} needs the pair ({m}, {n}), past PAIR_CAP = {PAIR_CAP}")
        return PairIndex(m, n), self.variant_rule(k)

    def _entry_cap_first(self, y: float) -> None:
        """Raise the entry cap's error before any record is built where growth to y reaches it: strips are 2 pi high
        or more and their sums round by far less than 1%, so only at y >= 0.99 * 2 pi (MAX_ENTRIES - 1).  A pair past
        PAIR_CAP or a failing source, found in doubling blocks of the slope prefixes, stops growth first instead."""
        cap, k = sequences.MAX_ENTRIES, 0
        while y >= 0.99 * TWO_PI * (cap - 1) and k < cap:
            k = min(max(2 * k, 16), cap)
            try:  # the entries as Python ints: a pair past the cap may pass int64 too
                if max(max(self._m.ensure(k)), max(self._n.ensure(k))) > PAIR_CAP:
                    return
            except RuntimeError:
                return
        if k == cap:  # Y_{cap-1} by the sequential sums lo + 2 pi y_div that growth forms
            y_div = np.ones(cap) if self.heights == "unit" else (self._m.prefix(cap) + 2 * self._n.prefix(cap) + 1.0)
            top = float(np.cumsum(np.concatenate([[0.0], TWO_PI * y_div[:cap - 1]]))[-1])
            if top <= y:
                self._model(cap + 1, top)

    def _covering(self, k: int, y: float) -> _StripRecords:
        """The published value if it holds strip k and reaches above local height y, else one grown to do so, strip i
        from the models of strips i and i + 1, and published whole, with the strips built before an error."""
        rec = self._records
        if len(rec.strips) >= k and rec.tops[-1] > y:
            return rec
        self._entry_cap_first(y)
        strips, tops = list(rec.strips), list(rec.tops)
        try:
            while len(strips) < k or tops[-1] <= y:
                i, lo = len(strips) + 1, tops[-1]
                model, model1 = self._model(i, lo), self._model(i + 1, lo)
                (pair, variant), pm = model, psi_link(model, model1, self.side, self.l)
                x_div, shift, y_div = pm.scale_out, pm.s_src, 1.0 if self.heights == "unit" else float(pair.N)
                pm, key = (None, None) if pm.exact_identity else (pm, (model, model1, self.side, self.l))
                strips.append(_Strip(i, pair, variant, x_div, y_div, shift, lo, lo + TWO_PI * y_div, pm, key,
                                     pm is not None or x_div != y_div))
                tops.append(strips[-1].hi)
        finally:
            if len(strips) > len(rec.strips):
                self._records = rec = _StripRecords(strips, tops)
        return rec

    def strip(self, k: int) -> _Strip:
        """The record of strip k >= 1."""
        return self._covering(k, -math.inf).strips[k - 1]

    def locate(self, y: float) -> tuple[_Strip, float]:
        """Strip record and normalized height for y >= 0."""
        if y < 0:
            raise ValueError("strip systems cover y >= 0")
        rec = self._covering(0, y)
        s = rec.strips[bisect_right(rec.tops, y) - 1]
        return s, (y - s.lo) / (TWO_PI * s.y_div)

    def read(self, y: float) -> tuple["_StripSystem", _Strip, float]:
        """(system, strip, t) at local height y: this system above the axis, ``below`` at |y| under it."""
        sys = self if y >= 0 else self.below
        return (sys, *sys.locate(abs(y)))

    def psi_read(self, strips: list, x: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(psi(x[c]), psi'(x[c])) from the table of strips[j[c]] (``_PsiCache.read_rows``); x and 1 without psi."""
        seen = np.zeros(len(strips), bool)
        seen[j] = True  # the strips read, in increasing k: one table row each, numbered by cumsum without a sort
        rows, r = np.flatnonzero(seen), (np.cumsum(seen) - 1)[j]
        keys = [strips[k].transition for k in rows.tolist()]
        return _PsiCache.read_rows(self._xs, [None if key is None else _psi_table(*key) for key in keys], x, r)

    # -- evaluation ------------------------------------------------------
    def value(self, s: _Strip, x: float, t: float) -> complex:
        """The model of strip s at x, height t; at t = 0 (bottom edge, upper side of a seam) no psi is solved."""
        xt = x if s.psi is None or t == 0.0 else x + t * (s.psi(x) - x)  # x + 0 * (psi - x) is x, bar x = -0.0
        return eval_model_turns(s.pair, xt / s.x_div + s.shift, t, s.variant)

    def eval_at(self, q: complex) -> complex:
        """Value at local q = x + i y; below the axis, the conjugate of ``below`` at the mirror image."""
        sys, s, t = self.read(q.imag)
        v = sys.value(s, q.real, t)
        return v if q.imag >= 0 else conj(v)

    # -- dilatation ------------------------------------------------------
    def mu_parts(self, s: _Strip, x: float, t: float, quad: bool, conj: bool) -> tuple:
        """(mu, mu_band, a, b, psi', psi(x)-x) of chi o q and of q alone in strip s.

        The band chart has a = t (psi' - 1)/2 and b = (psi(x) - x)/(4 pi y_div).
        ``quad`` reads psi through the Hermite table (quadrature accuracy
        only) instead of solving the conjugacy.  ``conj`` conjugates both
        coefficients, for a point of the lower half-plane that this system
        reads through its mirror image.
        """
        a, b, dp, gap = 0.0, 0.0, 1.0, 0.0
        if s.psi is not None:
            px, dp = (v.item() for v in _psi_table(*s.transition).read(np.array([x]))) if quad else s.psi.solve(x)
            a, b, gap = 0.5 * t * (dp - 1.0), (px - x) / (2.0 * TWO_PI * s.y_div), px - x
        mu, mu_band = _compose_affine(s.x_div, s.y_div, a, b), _band_mu(a, b)
        if conj:
            mu, mu_band = mu.conjugate(), mu_band.conjugate()
        return mu, mu_band, a, b, dp, gap

    def seam_distance(self, s: _Strip, x: float, y: float) -> float:
        """Distance from (x, y), y >= 0 in strip s, to the nearest seam."""
        d = math.inf
        if s.psi is not None:
            d = min(d, s.hi - y)
        if s.k > 1 and self.strip(s.k - 1).psi is not None:
            d = min(d, y - s.lo)
        if s.active:
            d = min(d, abs(x))  # the imaginary axis separates the two sides
        return d

    def reach(self, y_max: float) -> int:
        """The k of the first strip that reaches y_max (Y_k is the first top >= y_max), grown if need be."""
        s, _ = self.locate(y_max)  # Y_{k-1} <= y_max < Y_k
        return s.k - (s.lo == y_max)

    def active_windows(self, k: int) -> list[tuple[float, float]]:
        """(y_lo, y_hi) of the strips 1..k with dilatation."""
        return [(s.lo, s.hi) for s in self._covering(k, -math.inf).strips[:k] if s.active]

    def seam_ys(self, y_max: float) -> list[float]:
        """Heights Y_k <= y_max of the seams."""
        return [s.hi for s in self._covering(0, y_max).strips if s.psi is not None and s.hi <= y_max]

    def seam_checks(self, xs, strips: int, k_cap: int, name: Callable[[int], str]) -> list[SeamCheck]:
        """Log-space gaps across the first ``strips`` seams below strip k_cap, sampled at xs.

        A seam's upper side is the bottom edge t = 0 of the strip above, where ``value`` solves no psi."""
        checks = []
        k = 1
        while len(checks) < strips and k < k_cap:
            s = self.strip(k)
            if s.psi is not None:
                above = self.strip(k + 1)
                checks.append(_sweep(name(k), [complex(x, s.hi) for x in xs],
                                     lambda p: _log_gap(self.value(s, p.real, 1.0),
                                                        self.value(above, p.real, 0.0))))
            k += 1
        return checks


def _seam_heights(systems, y_max: float) -> list[float]:
    """Sorted distinct seam heights of strip systems that share their bounds."""
    return sorted({yv for sys in systems for yv in sys.seam_ys(y_max)})


def _plain_rule(_k: int) -> str:
    return PLAIN


def _hermite(x, x0, h, v0, d0, v1, d1) -> tuple:
    """Cubic Hermite (value, slope) at x in [x0, x0 + h] from end values v, slopes d; arrays.

    (1 - s)^2 is Python's float ** (libm pow): numpy's square and power round it otherwise."""
    s = (x - x0) / h
    om2 = np.array([u ** 2 for u in (1 - s).tolist()])
    s2 = s * s
    val = (1 + 2 * s) * om2 * v0 + h * s * om2 * d0 + s2 * (3 - 2 * s) * v1 + h * s2 * (s - 1) * d1
    der = (v0 * (6 * s2 - 6 * s) + h * d0 * (3 * s2 - 4 * s + 1)
           + v1 * (6 * s - 6 * s2) + h * d1 * (3 * s2 - 2 * s)) / h
    return val, der


class _PsiCache:
    """Cubic-Hermite table of a psi, for quadrature; ``fdf(x)`` gives (psi(x), psi'(x)).

    Outside |x| <= SPAN the two tails are frozen as x + c.  But the map reads
    phi at x/N_{k+1} (left strips), x/l (right strips) or x/kappa (spiral, x < 0),
    so it is affine only past about SPAN times that scale: |mu_quad| is off by
    7e-5 on strips (0.5, 0.5) at -200 + 33i, by 0.25 on power (0.75, 0.5)
    at 15 e^{2.992i} and by 3.4e-5 on the spiral at p(-40 - 0.5i), all pinned
    by an xfail test.  Value/derivative pairs
    at the nodes make the interpolant C^1 with error far under the
    midpoint-rule floor.

    A table is an immutable value, solved as it is built with one ``fdf``
    call per node and the values of the two tails, each a function of x
    alone.  Its owner, ``_psi_table`` per strip transition or
    ``_spiral_table`` per spiral, builds it on its first read, so a table
    that no quadrature reads costs no solve.  ``read_rows`` is its one reader.

    Tables that start at x = 0 (right-side seams pin psi(0) = 0) tabulate a
    ``PsiMap`` from x = 2: psi turns over below within a few multiples of 1/N,
    and no fixed grid keeps the *derivative* honest at the knee.  On that
    exact band, -SPAN < x <= 2, ``band`` memoizes ``fdf(x)``, so mirror
    cells that read one x solve it once.
    """

    SPAN = 24.0
    STEP = 0.25
    SIDES = {RIGHT: (0.0, SPAN), LEFT: (-SPAN, 0.0)}  # [lo, hi] of a strip system's tables

    @classmethod
    def nodes(cls, lo: float, hi: float) -> np.ndarray:
        """The node grid of a table on [lo, hi]: from 2 when lo = 0, where the exact band ends."""
        return np.arange(2.0 if lo == 0.0 else lo, hi + cls.STEP / 2.0, cls.STEP)

    def __init__(self, fdf: Callable[[float], tuple[float, float]], lo: float, hi: float):
        self.fdf = fdf
        self.xs = self.nodes(lo, hi)
        tail = self.SPAN + 2.0
        vs, ds = np.array([fdf(x) for x in self.xs.tolist()]).T
        self.table = (fdf(-tail)[0] + tail, vs, ds, fdf(tail)[0] - tail)  # (c_lo, psi at xs, psi' at xs, c_hi)
        self._band: dict[float, tuple[float, float]] = {}  # x -> (psi, psi') on the exact band

    def band(self, x: float) -> tuple[float, float]:
        """(psi(x), psi'(x)) on the exact band, solved once per x; threads that race solve the same bits."""
        return self._band.get(x) or self._band.setdefault(x, self.fdf(x))

    def read(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``read_rows`` of this table alone at each x."""
        return self.read_rows(self.xs, [self], x, np.zeros(len(x), int))

    @classmethod
    def read_rows(cls, xs: np.ndarray, tables: list, x: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(psi(x[c]), psi'(x[c])) from tables[r[c]], all on the node grid xs; a None table reads x + 0 and 1."""
        nan = np.full(len(xs), math.nan)
        rows = [(0.0, nan, nan, 0.0) if t is None else t.table for t in tables]
        c_lo, c_hi = (np.array([row[k] for row in rows], float)[r] for k in (0, 3))
        vs, ds = (np.array([row[k] for row in rows]).reshape(len(rows), len(xs)) for k in (1, 2))
        high = np.array([t is None for t in tables], bool)[r] | (x >= xs[-1])
        px, dp = x + np.where(high, c_hi, c_lo), np.ones(len(x))
        herm = ~high & (x > xs[0])
        if herm.any():
            xh, rh, i = x[herm], r[herm], np.searchsorted(xs, x[herm], side="right") - 1  # the cell [xs[i], xs[i+1])
            j = i + 1
            px[herm], dp[herm] = _hermite(xh, xs[i], xs[j] - xs[i], vs[rh, i], ds[rh, i], vs[rh, j], ds[rh, j])
        band = np.flatnonzero(~high & ~herm & (x > -cls.SPAN))  # right tables' exact band, 0 <= x <= 2
        if band.size:
            px[band], dp[band] = np.array([tables[k].band(v) for k, v in zip(r[band].tolist(), x[band].tolist())],
                                          float).reshape(-1, 2).T
        return px, dp


@lru_cache(maxsize=None)
def _psi_table(model: tuple[PairIndex, str], model1: tuple[PairIndex, str], side: str, l: int) -> _PsiCache:
    """The table of one strip transition, over a ``psi_link`` of its own: the same bits whoever builds it."""
    pm = psi_link(model, model1, side, l)
    return _PsiCache(pm.solve, *_PsiCache.SIDES[side])


@lru_cache(maxsize=None)
def _spiral_table(spec: DiffeoSpec) -> _PsiCache:
    """The table of a spiral's (base, base'), from ``StripHomeo._base``: the same bits whoever builds it."""
    return _PsiCache(StripHomeo(spec)._base, -_PsiCache.SPAN, _PsiCache.SPAN)


# ---------------------------------------------------------------------------
# classification / sampling records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PieceInfo:
    """Where a point landed inside an assembled map.

    ``seam_distance`` is the z-plane distance to the nearest declared seam.
    """

    label: str
    region: str
    pair: Optional[PairIndex] = None
    variant: Optional[str] = None
    k: Optional[int] = None
    t: Optional[float] = None
    x_div: Optional[float] = None
    y_div: Optional[float] = None
    band: bool = False
    conformal: bool = True
    seam_distance: float = math.inf
    uninterpolated: bool = False


@dataclass(frozen=True)
class SeamCheck:
    """Max log-space residual of one declared seam over a sample sweep."""

    name: str
    samples: int
    max_gap: float
    argmax: complex


def _sweep(name: str, points, gap: Callable[[complex], float]) -> SeamCheck:
    """The largest ``gap(p)`` over ``points``, and the point where it occurs."""
    gaps = [gap(p) for p in points]
    if not gaps:
        raise ValueError(f"seam sweep {name!r} has no sample points")
    i = int(np.argmax(gaps))
    return SeamCheck(name, len(gaps), float(gaps[i]), points[i])


@dataclass(frozen=True)
class BeltramiSample:
    """Closed-form Beltrami data of the glued map at one point.

    ``mu``/``K`` include every affine pre-map and holomorphic outer twist;
    ``mu_band``/``K_band`` keep only the interpolation chart q itself, the
    object the pointwise distortion bound 4(1+r)r/min(1, psi') controls.
    """

    z: complex
    piece: str
    mu: complex
    K: float
    mu_band: complex
    K_band: float
    a: float
    b: float
    psi_prime: Optional[float]
    psi_gap: Optional[float]
    indeterminate: bool


# ---------------------------------------------------------------------------
# engines: strips / mixed
# ---------------------------------------------------------------------------

class _Engine:
    """The hooks an engine behind a :class:`GluedMap` provides.

    Each engine decides where a point lands (chart, sheet, strip system,
    strip record, height t, conjugation) in one private ``_locate`` step,
    which ``classify`` and ``mu_parts`` read.  Strips, mixed, sectors and power
    take the strip system from ``_StripSystem.read``, the one mirror rule.

    - :class:`GluedMap` calls ``eval(z)``, ``classify(z)``,
      ``seam_residuals(samples, strips)`` and ``to_dict()``.
    - :func:`beltrami_at` calls ``classify(z)``, whose ``seam_distance`` is
      a z-plane distance in every flavor, and ``mu_parts(z)``.
    - :func:`dilatation_integral` calls ``fine_size(r_max)``,
      ``theta_windows(r0, r1)``, ``straddle_mask(r_max)`` and ``quiet_arc`` on each
      coarse arc between the windows, then once per block of radial shells
      ``cell_states`` and ``mu_abs_quad``.  Every engine defines all of them, the
      classifying hooks as the array form of its own ``_locate``; there are no
      defaults.  Sectors and power lack ``quiet_arc``: their windows cover the circle.

      - ``straddle_mask(r_max)`` returns ``test(z0, z1)``, a bool per cell
        saying whether a seam separates the corners of cell j: z0[j],
        z0[j+1] on the inner circle and z1[j], z1[j+1] on the outer.
      - ``quiet_arc(r0, r1, a, b)`` is True only where it is proved, with ``QUIET_MARGIN``
        to spare, that every cell of a <= theta <= b, r0 <= |z| <= r1 is conformal and
        straddles nothing; no node is built there.  Strips says False (see there).
      - ``cell_states(zc)`` is ``(codes, names, conformal, uninterpolated)`` at the
        midpoints zc, the cheap ``classify``: cell c has the label ``names[codes[c]]``,
        each name once, which keys ``strip_sums``; ``conformal`` promises mu == 0.
      - ``mu_abs_quad(zc)`` is ``abs(mu_quad(z))`` at the midpoints zc of the
        cells that straddle or are not conformal, read in the chart each map
        pulls back (a conformal pre-composition multiplies mu by a unit):
        arrays on strips, sectors (at z^n) and the spiral (|mu_band| at h,
        formed with libm); a loop over ``mu_quad`` on power.

    Array code must take the scalar code's decisions, since grid nodes sit on
    seams, and give |mu| bit for bit.  np.sin, np.cos, np.fmod and np.hypot agree
    with ``math`` and complex abs; np.log, np.arctan2, np.exp, complex numpy division
    and np.abs may differ in the last bit (AVX-512 builds), so |mu| calls libm and
    ``_c_quot``.  Decisions within ``DECISION_SLACK`` = 1e-9 of a threshold are retaken by scalar code.

    ``mu_parts(z, quad)`` is the one Beltrami computation.  It returns
    ``(mu, mu_band, a, b, psi', psi(x) - x)``: mu of the whole glued map,
    mu_band of the interpolation chart q alone, the chart's (a, b), and the
    strip system's psi data (None on the spiral, which has none).
    ``quad=False`` solves the conjugacy exactly, the reference;
    ``quad=True`` reads the :class:`_PsiCache` Hermite tables that ``_psi_table``
    and ``_spiral_table`` own, to quadrature accuracy only, in one-element
    reads of their one reader ``read_rows``.
    """

    def mu(self, z: complex) -> complex:
        """Beltrami coefficient of the glued map at z, from exact solves."""
        return self.mu_parts(z)[0]

    def mu_quad(self, z: complex) -> complex:
        """Beltrami coefficient at z to quadrature accuracy (Hermite tables)."""
        return self.mu_parts(z, quad=True)[0]


class _StripsEngine(_Engine):
    """Half-plane strip assembly; one system per side, whose ``below`` reads the lower half-plane.

    The plain flavor commutes with conjugation, so the lower half-plane
    reuses the upper systems; the mixed flavor runs half-model pieces above
    the real axis (wherever n_k = 1) and plain ones below.
    """

    flavor = STRIPS

    def __init__(self, lam1: float, lam2: float, mixed: bool):
        sel = select_case(lam1, lam2)
        self.case = sel.case
        self.l = sel.l
        self.m_seq, self.n_seq = sel.m_seq, sel.n_seq
        self.mixed = mixed
        if mixed:
            self.flavor = MIXED
            n_seq = self.n_seq

            def upper_rule(k: int) -> str:
                return HALF if n_seq.entry(k) == 1 else PLAIN
        else:
            upper_rule = _plain_rule

        def system(side: str, tag: str, rule: Callable[[int], str], below: Optional[_StripSystem] = None):
            return _StripSystem(self.m_seq, self.n_seq, side, self.l, "slope", rule, tag, below)

        self.sides = {side: system(side, tag, upper_rule, system(side, tag, _plain_rule) if mixed else None)
                      for side, tag in ((RIGHT, "R"), (LEFT, "L"))}
        self._windows: dict = {}  # each system's reach -> _all_windows

    def _systems(self) -> list[_StripSystem]:
        ups = list(self.sides.values())  # then each side's ``below`` where it is a system of its own
        return ups + [sys.below for sys in ups if sys.below is not sys]

    def _locate(self, z: complex) -> tuple[_StripSystem, _Strip, float]:
        """(system, strip, t) of z; below the real axis, of its mirror image."""
        return self.sides[RIGHT if z.real >= 0 else LEFT].read(z.imag)

    def _located(self, zc: np.ndarray):
        """``_locate`` over an array: (system, a value that holds its top cell, cell mask, indices k - 1) per system."""
        y, up, right = zc.imag, zc.imag >= 0, zc.real >= 0
        for side, on in ((RIGHT, right), (LEFT, ~right)):
            top = self.sides[side]
            # a plain side (below is self) reads both halves as one group, a mixed side each half apart
            for sys, sel in ((top, on),) if top.below is top else ((top, on & up), (top.below, on & ~up)):
                ay = np.abs(y[sel])
                rec = sys._covering(sys.locate(float(ay.max()))[0].k, -math.inf) if len(ay) else sys._records
                yield sys, rec, sel, np.searchsorted(rec.columns()["tops"], ay, side="right") - 1  # as locate bisects

    def eval(self, z: complex) -> complex:
        return self.sides[RIGHT if z.real >= 0 else LEFT].eval_at(z)

    def mu_parts(self, z: complex, quad: bool = False):
        sys, s, t = self._locate(z)
        return sys.mu_parts(s, z.real, t, quad, z.imag < 0)

    def classify(self, z: complex) -> PieceInfo:
        x, y = z.real, z.imag
        sys, s, t = self._locate(z)
        return PieceInfo(
            label=f"{sys.tag}{s.k}",
            region=("upper" if y >= 0 else "lower") + ("-right" if x >= 0 else "-left"),
            pair=s.pair, variant=s.variant, k=s.k, t=t,
            x_div=s.x_div, y_div=s.y_div,
            band=s.psi is not None,
            conformal=not s.active,
            seam_distance=sys.seam_distance(s, x, abs(y)),
        )

    def cell_states(self, zc: np.ndarray) -> tuple[np.ndarray, list, np.ndarray, np.ndarray]:
        codes, active, n = np.empty(len(zc), int), np.empty(len(zc), bool), 0
        for sys, rec, sel, j in self._located(zc):  # a side's mirror shares its tag, so its labels and codes
            codes[sel], active[sel], n = 2 * j + (sys.side == LEFT), rec.columns()["active"][j], max(n, len(rec.strips))
        names = [f"{self.sides[side].tag}{k}" for k in range(1, n + 1) for side in (RIGHT, LEFT)]  # R1, L1, R2, ...
        return codes, names, ~active, np.zeros(len(zc), bool)

    def mu_abs_quad(self, zc: np.ndarray) -> np.ndarray:
        """|mu_quad| at zc as arrays from ``psi_read``, bit for bit."""
        out = np.empty(len(zc))
        for sys, rec, sel, j in self._located(zc):  # as mu_parts: a = t (psi' - 1)/2, b = (psi(x) - x)/(4 pi y_div)
            x, cols = zc.real[sel], rec.columns()
            px, dp = sys.psi_read(rec.strips, x, j)
            t = (np.abs(zc.imag[sel]) - cols["tops"][j]) / (TWO_PI * cols["y_div"][j])
            a, b = 0.5 * t * (dp - 1.0), (px - x) / (2.0 * TWO_PI * cols["y_div"][j])
            out[sel] = _affine_mu_abs(cols["alpha"][j], cols["beta"][j], a, b)
        return out

    # -- dilatation hooks -------------------------------------------------
    def fine_size(self, _r_max: float) -> float:
        return TWO_PI / 8.0

    def _all_windows(self, y_max: float) -> list[tuple[float, float]]:
        """The active windows of every system below y_max, widened by 4 cells and merged; one list per reach.

        Kept per reach: over strips 1..450 its 573 calls take 3-6 ms, 8-15 ms merging each time."""
        reach = tuple((sys, sys.reach(y_max)) for sys in self._systems())
        if reach not in self._windows:
            margin = 4.0 * self.fine_size(y_max)
            self._windows[reach] = _merged((max(0.0, lo - margin), hi + margin)
                                           for sys, k in reach for lo, hi in sys.active_windows(k))
        return self._windows[reach]

    def theta_windows(self, r0: float, r1: float) -> list[tuple[float, float]]:
        out: list[tuple[float, float]] = []
        for lo, hi in self._all_windows(r1):  # every window starts below r1, as the reach of r1 stops there
            a, b = math.asin(lo / r1), math.asin(min(1.0, hi / r0))
            out += ((a, b), (math.pi - b, math.pi - a), (-b, -a), (-math.pi + a, -math.pi + b))
        return out

    def quiet_arc(self, _r0: float, _r1: float, _a: float, _b: float) -> bool:
        return False  # the seams of inactive strips cross the coarse arcs

    def straddle_mask(self, r_max: float):
        """Corner test: |y| seam crossings, and axis crossings inside the active windows."""
        seams = np.array(_seam_heights(self._systems(), r_max) + [math.inf])
        win_lo, win_hi = np.array(self._all_windows(r_max) + [(math.inf, math.inf)]).T

        def test(z0, z1) -> np.ndarray:
            lo, hi = _cell_range(np.abs(z0.imag), np.abs(z1.imag))
            x_lo, x_hi = _cell_range(z0.real, z1.real)
            # the merged windows are disjoint and sorted: the first one that
            # ends above lo is the one that can start below hi
            axis = (x_lo < 0.0) & (0.0 < x_hi) & (win_lo[np.searchsorted(win_hi, lo)] <= hi)
            return (seams[np.searchsorted(seams, lo, side="right")] < hi) | axis

        return test

    # -- seam residuals ----------------------------------------------------
    def seam_residuals(self, samples: int = 64, strips: int = 6) -> list[SeamCheck]:
        checks = []
        xs_r = np.linspace(0.5, 6.0, samples)
        xs_l = np.linspace(-40.0, -0.5, samples)
        right, left = self.sides[RIGHT], self.sides[LEFT]
        for hemi, pair in (("upper", (right, left)), ("lower", (right.below, left.below)))[:2 if self.mixed else 1]:
            for sys, xs in zip(pair, (xs_r, xs_l)):
                checks += sys.seam_checks(xs, strips, 400,
                                          lambda k, tag=sys.tag: f"{hemi}:{tag}{k}|{tag}{k+1}")
        # the imaginary axis: both sides reduce to the same turn evaluation
        mids = [complex(0.0, 0.5 * (s.lo + s.hi)) for s in map(right.strip, range(1, strips + 1))]
        checks.append(_sweep("axis", mids, lambda p: _log_gap(right.eval_at(p), left.eval_at(p))))
        if self.mixed:
            checks.append(_sweep("real-axis", [complex(x, 0.0) for x in np.linspace(-8.0, 8.0, samples)],
                                 lambda p: _log_gap(self.eval(p), (right if p.real >= 0 else left).below.eval_at(p))))
        return checks

    def to_dict(self) -> dict:
        return {"case": self.case, "l": self.l}


class _SectorEngine(_Engine):
    """z^n pullback of a strip assembly with the reciprocal boundary sheets.

    Sectors adjacent to the positive real axis use the flipped sheet
    G_1 (equal to 1/G_0 on the base strip 0 <= Im <= 2 pi); everything
    within |Im z^n| <= 2 pi stays uninterpolated by design.  Outside that
    core the flipped sheet is the half-turn translate of the base map, so
    the engine has no model of its own: every hook reads the base engine.
    """

    flavor = STRIPS

    def __init__(self, base: _StripsEngine, n: int):
        if n < 2:
            raise ValueError("sector extension needs n >= 2")
        for k in (1, 2):
            if base.sides[RIGHT].strip(k).pair != PairIndex(0, 0):
                raise ValueError("sector extension requires a plain (0,0) prefix")
        self.base = base
        self.n = int(n)
        self.case = base.case
        self.l = base.l

    @staticmethod
    def _half_turn(w: complex) -> complex:
        # the flipped sheet away from the real axis: G_1(w) = G_0(w -+ i pi)
        return w + complex(0.0, -math.pi if w.imag > 0 else math.pi)

    def _locate(self, z: complex) -> tuple[int, complex, bool]:
        """(sector j, base-engine point, uninterpolated) of z.

        The base-engine point is z^n, shifted by -+ i pi on the flipped
        sheet of sectors 1 and 2n.
        """
        az = math.atan2(z.imag, z.real) % TWO_PI
        j = min(int(az // (math.pi / self.n)) + 1, 2 * self.n)
        w = z ** self.n
        if abs(w.imag) <= TWO_PI:
            return j, w, True
        if j in (1, 2 * self.n):
            w = self._half_turn(w)
        return j, w, False

    def eval(self, z: complex) -> complex:
        z = complex(z)
        _, w, uninterpolated = self._locate(z)
        if uninterpolated:
            raise UninterpolatedRegion(
                f"|Im z^{self.n}| <= 2 pi at z={z:.6g}: no interpolation is defined here")
        return self.base.eval(w)

    def mu_parts(self, z: complex, quad: bool = False):
        z = complex(z)
        _, w, uninterpolated = self._locate(z)
        if uninterpolated:
            raise UninterpolatedRegion(f"uninterpolated at z={z:.6g}")
        mu0, mu_band, a, b, dp_, gap = self.base.mu_parts(w, quad)
        dpz = self.n * z ** (self.n - 1)
        return mu0 * dpz.conjugate() / dpz, mu_band, a, b, dp_, gap

    def classify(self, z: complex) -> PieceInfo:
        z = complex(z)
        j, w, uninterpolated = self._locate(z)
        if uninterpolated:
            return PieceInfo(label=f"sector{j}:uninterpolated", region=f"sector{j}",
                             conformal=False, uninterpolated=True)
        info = self.base.classify(w)
        sheet = "flipped" if j in (1, 2 * self.n) else "base"
        return replace(
            info, label=f"sector{j}:{sheet}:{info.label}", region=f"sector{j}",
            # back to the z-plane through |d z^n/dz|
            seam_distance=info.seam_distance / max(1e-300, self.n * abs(z) ** (self.n - 1)))

    def _located(self, zs: np.ndarray) -> tuple[tuple, np.ndarray, tuple]:
        """``_locate`` over an array: sectors, base-engine points (an array), uninterpolated flags."""
        js, ws, uninterp = zip(*map(self._locate, zs.tolist())) if len(zs) else ((), (), ())
        return js, np.array(ws, complex), uninterp

    def cell_states(self, zc: np.ndarray) -> tuple[np.ndarray, list, np.ndarray, np.ndarray]:
        js, ws, uninterp = self._located(zc)
        codes, base, conformal, _ = self.base.cell_states(ws)
        names = [f"sector{j}:{name}" for j in range(1, 2 * self.n + 1) for name in base + ["uninterpolated"]]
        stride, uninterp = len(base) + 1, np.array(uninterp, bool)  # sector j's names from (j - 1) stride on
        codes = (np.array(js, int) - 1) * stride + np.where(uninterp, stride - 1, codes)
        return codes, names, conformal & ~uninterp, uninterp

    def mu_abs_quad(self, zc: np.ndarray) -> np.ndarray:
        """The base engine's |mu_quad| at the base-engine points of zc: z^n is conformal, so |mu| is the base's."""
        _, ws, uninterp = self._located(zc)
        if any(uninterp):
            raise UninterpolatedRegion(f"uninterpolated at z={zc[uninterp.index(True)]:.6g}")
        return self.base.mu_abs_quad(ws)

    def fine_size(self, r_max: float) -> float:
        # pullback strip thickness ~ 2 pi / (n r^{n-1})
        return max(0.05, TWO_PI / (self.n * r_max ** (self.n - 1)) / 8.0)

    def theta_windows(self, _r0: float, _r1: float) -> list[tuple[float, float]]:
        return [(-math.pi, math.pi)]  # refine everywhere; sector tests stay small

    def straddle_mask(self, r_max: float):
        """The base engine's strip test at the base-engine points of the nodes."""
        base_test = self.base.straddle_mask(r_max ** self.n)

        def test(z0, z1) -> np.ndarray:
            return base_test(self._located(z0)[1], self._located(z1)[1])

        return test

    def seam_residuals(self, samples: int = 64, strips: int = 6) -> list[SeamCheck]:
        checks = self.base.seam_residuals(samples, strips)
        # the half-turn is the flipped sheet: base(w - i pi) = 1/base(w) on the (0,0) strip pi < Im w < 2 pi
        checks.append(_sweep("sheet-inverse", [complex(x, math.pi + 1.0 + 0.007 * x)
                                               for x in np.linspace(-6.0, 6.0, samples).tolist()],
                             lambda w: _log_gap(self.base.eval(w), -self.base.eval(self._half_turn(w)))))
        return checks

    def to_dict(self) -> dict:
        return {"case": self.case, "l": self.l, "sectors": self.n}


# ---------------------------------------------------------------------------
# engine: spiral
# ---------------------------------------------------------------------------

class _SpiralEngine(_Engine):
    """Two models glued across a logarithmic spiral by the chart z^mu; ``mu_abs_quad`` reads |mu| in the chart h."""

    flavor = SPIRAL

    def __init__(self, lower: PairIndex, upper: PairIndex):
        self.lower, self.upper = lower, upper
        self.spec = DiffeoSpec(lower, upper)
        self.charts = spiral_charts(self.spec.kappa)
        self.homeo = StripHomeo(self.spec)  # the exact reads; quadrature reads _spiral_table(spec)

    def _locate(self, w: complex) -> tuple[complex, bool]:
        """The chart point h(w) (h(0) = 0) and whether it lies in the band.

        Above the real axis h lands in the upper model, below it in the
        lower model through the strip homeo, which has dilatation only in
        the band -1 < Im h < 0.
        """
        h = self.charts.h(w)
        return h, -1.0 < h.imag < 0.0

    def eval(self, w: complex) -> complex:
        h, _ = self._locate(complex(w))
        return eval_model(self.upper, h) if h.imag >= 0 else eval_model(self.lower, self.homeo(h))

    def mu_parts(self, w: complex, quad: bool = False):
        w = complex(w)
        h, band = self._locate(w)
        if not band:
            return 0j, 0j, 0.0, 0.0, None, None
        if quad:
            base, dbase = (v.item() for v in _spiral_table(self.spec).read(np.array([h.real])))
            u_x, u_y, _, _ = _shear_jacobian(h.real, h.imag, base, dbase)
        else:
            u_x, u_y, _, _ = self.homeo.jacobian(h)
        a, b = 0.5 * (u_x - 1.0), 0.5 * u_y
        mu_band = _band_mu(a, b)
        hp = h / (self.charts.mu * w)  # h_prime(w), from the h located
        return mu_band * hp.conjugate() / hp, mu_band, a, b, None, None

    def mu_abs_quad(self, zc: np.ndarray) -> np.ndarray:
        """abs(mu_quad(w)) at each w of zc: |mu_band| at h(w), as conj(h')/h' is a unit; 0.0 off the band."""
        hr, hi = self.charts.h_array(np.where(zc == 0, 1.0, zc))  # h(1) = 1 is off the band, as h(0) = 0
        band, out = (-1.0 < hi) & (hi < 0.0), np.zeros(len(zc))  # _locate's test on the bits of h itself
        if not band.any():
            return out  # reading builds the table, which mu_parts does at its first band cell
        u_x, u_y, _, _ = _shear_jacobian(hr[band], hi[band], *_spiral_table(self.spec).read(hr[band]))
        a, b = 0.5 * (u_x - 1.0), 0.5 * u_y
        out[band] = np.hypot(*_c_quot(a, b, 1.0 + a, -b))  # abs(_band_mu(a, b))
        return out

    def classify(self, w: complex) -> PieceInfo:
        w = complex(w)
        if w == 0:
            return PieceInfo(label="origin", region="origin", pair=self.upper,
                             variant=PLAIN, seam_distance=0.0)
        h, band = self._locate(w)
        upper = h.imag >= 0
        return PieceInfo(
            label="upper" if upper else ("lower-band" if band else "lower"),
            region="spiral-upper" if upper else "spiral-lower",
            pair=self.upper if upper else self.lower, variant=PLAIN,
            band=band, conformal=not band,
            seam_distance=abs(h.imag) / abs(h / (self.charts.mu * w)),  # / |h_prime(w)|
        )

    def cell_states(self, zc: np.ndarray) -> tuple[np.ndarray, list, np.ndarray, np.ndarray]:
        # _locate's band test -1 < Im h < 0, retaken where Im h is within DECISION_SLACK (1 + |h|) of one end
        xi, logr = self.charts.xi_logr(zc)
        mod = np.exp(self.charts.order * logr - self.charts.beta0 * xi)
        h_im = mod * np.sin(xi)
        band = (-1.0 < h_im) & (h_im < 0.0)
        for j in np.flatnonzero(np.minimum(np.abs(h_im + 1.0), np.abs(h_im)) < DECISION_SLACK * (1.0 + mod)):
            band[j] = self._locate(complex(zc[j]))[1]
        return band.astype(int), ["regular", "cut-band"], ~band, np.zeros(len(zc), bool)

    def fine_size(self, _r_max: float) -> float:
        return 0.125

    def theta_windows(self, r0: float, _r1: float) -> list[tuple[float, float]]:
        q = self.charts.beta0 * math.log(max(r0, 1e-12))
        lo_edge = r0 ** self.charts.order / math.exp(abs(self.charts.beta0) * math.pi)
        du = min(0.5 * math.pi, 2.5 / max(1.0, lo_edge))
        wins = []
        for xi_lo, xi_hi in ((-math.pi - du, -math.pi + du), (-du, du)):
            # wrap the window into (-pi, pi], splitting at the branch point
            a = math.remainder(xi_lo - q, TWO_PI)
            b = a + (xi_hi - xi_lo)
            wins += [(a, math.pi), (-math.pi, b - TWO_PI)] if b > math.pi else [(a, b)]
        return wins

    def quiet_arc(self, r0: float, r1: float, a: float, b: float) -> bool:
        """True where every cell of a <= theta <= b, r0 <= |w| <= r1 is proved conformal and unstraddled: wrapped,
        xi = theta + beta0 log r in [a + min beta0 log r, b + max beta0 log r] keeps QUIET_MARGIN from 0 and +-pi,
        and on xi < 0 |Im h| = |h| |sin xi| >= r0^order e^(-max beta0 xi) min |sin xi| passes 1 + QUIET_MARGIN."""
        q0, q1 = sorted((self.charts.beta0 * math.log(r0), self.charts.beta0 * math.log(r1)))
        lo = math.remainder(a + q0, TWO_PI)
        hi = lo + ((b + q1) - (a + q0))
        if QUIET_MARGIN <= lo and hi <= math.pi - QUIET_MARGIN:
            return True
        if lo < QUIET_MARGIN - math.pi or hi > -QUIET_MARGIN:
            return False
        lm = self.charts.order * math.log(r0) - max(self.charts.beta0 * lo, self.charts.beta0 * hi)
        return math.exp(lm) * min(-math.sin(lo), -math.sin(hi)) > 1.0 + QUIET_MARGIN

    def straddle_mask(self, _r_max: float):
        """Corner test: the cut xi = 0 separates corners; on (-pi, pi] sin xi has the sign of xi."""
        def test(z0, z1) -> np.ndarray:
            lo, hi = _cell_range(self.charts.xi_logr(z0)[0], self.charts.xi_logr(z1)[0])
            return (lo < 0.0) & (0.0 < hi)

        return test

    def seam_residuals(self, samples: int = 64, strips: int = 0) -> list[SeamCheck]:
        del strips
        # positive ray: upper g2(x) against lower g1(psi(x));
        # spiral cut: the two h-edges x and kappa x
        return [_sweep(name, [complex(x, 0.0) for x in xs],
                       lambda p: _log_gap(eval_model(self.upper, p),
                                          eval_model(self.lower, self.homeo(complex(scale * p.real, 0.0)))))
                for name, xs, scale in (("positive-ray", np.linspace(0.5, 6.0, samples), 1.0),
                                        ("spiral-cut", np.linspace(-40.0, -0.5, samples), self.charts.kappa))]

    def to_dict(self) -> dict:
        return {"lower": (self.lower.m, self.lower.n),
                "upper": (self.upper.m, self.upper.n),
                "kappa": self.charts.kappa, "order": self.charts.order}


# ---------------------------------------------------------------------------
# engine: power
# ---------------------------------------------------------------------------

class _PowerEngine(_Engine):
    """Wedge gluing through z^rho / -(-z)^sigma and the radial map Q.

    The right wedge evaluates U(Q(z^rho)) on unit-height strips, the left
    wedge V(-(-z)^sigma) on strips of height 2 pi N_k; the piecewise map Q
    pre-distorts the imaginary axis so that both wedges meet the rays
    arg z = +-pi/(2 rho) with the same values V(+-i r^sigma).  On the axis
    Q is the map g, which reads the V strip records: U(i g(y)) and
    V(i y^gamma) land in strip k at the same normalized height.

    Q has four pieces in w = x + i y = z^rho (x >= 0), decided by ``_q``:
    ``q-identity`` (x >= 1) and ``q-square`` (x < 1, |y| < 1 <= |w|), where
    Q(w) = w; ``q-disk`` (|w| < 1), where Q(w) = w |w|^(gamma - 1); and
    ``q-band`` (x < 1 <= |y|), where Q(w) = x + i sgn(y) ((1 - x) g(|y|) + x |y|)
    runs linearly in x from g to the identity.  Only the band and the disk
    carry dilatation.  Q's formula changes across Re w = 1 for |y| >= 1, across
    |y| = 1 for x < 1 and across the arc |w| = 1.  gamma = 1/(2 rho - 1) and
    sigma = rho gamma follow from rho.
    """

    flavor = POWER

    def __init__(self, rho: float, delta: float):
        rho_q = Fraction(rho)
        if not (Fraction(1, 2) < rho_q < 1):
            raise ValueError(f"rho must lie in (1/2, 1), got {rho}")
        gamma_q = 1 / (2 * rho_q - 1)
        sigma_q = rho_q * gamma_q
        # 1/rho + 1/(rho*gamma) = 2 holds exactly in rational arithmetic
        assert 1 / rho_q + 1 / sigma_q == 2
        self.rho, self.gamma, self.sigma = float(rho_q), float(gamma_q), float(sigma_q)
        self.delta = float(delta)
        self.m_seq = build_graded_slopes(self.gamma, self.delta)
        self.n_seq = build_paired_slopes(self.gamma, self.m_seq)

        def upper_rule(k: int) -> str:
            return HALF if k >= 3 else PLAIN

        def system(side: str, heights: str, tag: str) -> _StripSystem:
            below = _StripSystem(self.m_seq, self.n_seq, side, 1, heights, _plain_rule, tag)
            return _StripSystem(self.m_seq, self.n_seq, side, 1, heights, upper_rule, tag, below)

        self.U, self.V = system(RIGHT, "unit", "U"), system(LEFT, "slope", "V")
        self.ray = math.pi / (2.0 * self.rho)

    # -- the radial interpolation Q --------------------------------------
    def _g(self, y: float) -> tuple[float, float]:
        """(g(y), g'(y)); g is piecewise linear in y^gamma with slope 1/N_k.

        g carries V strip k, which spans [lo, hi) with hi - lo = 2 pi N_k,
        onto U strip k = [2 pi (k-1), 2 pi k), so it reads the V strip
        record that holds t = y^gamma (both V systems share their heights).
        """
        if y < 0.0:
            raise ValueError("g is defined on [0, infinity)")
        t = y**self.gamma
        s, _ = self.V.locate(t)
        return TWO_PI * (s.k - 1) + (t - s.lo) / s.y_div, self.gamma * y ** (self.gamma - 1.0) / s.y_div

    def _q(self, w: complex) -> tuple[str, complex]:
        """(piece, Q(w)): the piece of Q that holds w, decided once, and Q there."""
        x, y = w.real, w.imag
        if x >= 1.0:
            return "q-identity", w
        ay = abs(y)
        if ay >= 1.0:
            return "q-band", complex(x, math.copysign((1.0 - x) * self._g(ay)[0] + x * ay, y))
        if x * x + y * y < 1.0:
            return "q-disk", w * abs(w) ** (self.gamma - 1.0)
        return "q-square", w

    def _dq(self, w: complex, piece: str) -> tuple[complex, complex]:
        """(dQ/dw, dQ/dw-bar) at w in ``piece``, as ``_q`` decided it."""
        if piece == "q-band":
            x, y = w.real, w.imag
            ay = abs(y)
            gv, gp = self._g(ay)
            im = math.copysign(0.5, y) * (ay - gv)
            return complex(0.5 * (1.0 + (1.0 - x) * gp + x), im), complex(0.5 * (1.0 - (1.0 - x) * gp - x), im)
        if piece == "q-disk":
            r = abs(w)
            return (complex(r ** (self.gamma - 1.0) * (self.gamma + 1.0) / 2.0, 0.0),
                    0.5 * (self.gamma - 1.0) * r ** (self.gamma - 1.0) * (w / r) ** 2)  # r^(gamma - 3) overflows
        return 1.0 + 0j, 0j

    @staticmethod
    def _q_edge_distance(w: complex, piece: str) -> float:
        """w-plane distance from w in ``piece`` to the edges of that piece across which Q's formula changes."""
        x, ay, r = w.real, abs(w.imag), abs(w)
        if piece == "q-identity":  # Re w = 1 above |y| = 1, and the arc at w = 1
            return min(math.hypot(x - 1.0, max(1.0 - ay, 0.0)), r - 1.0)
        if piece == "q-band":
            return min(1.0 - x, ay - 1.0)
        if piece == "q-square":
            return min(1.0 - ay, r - 1.0)
        return 1.0 - r

    # -- wedge coordinates -------------------------------------------------
    def _w(self, z: complex) -> complex:
        return cmath.exp(self.rho * cmath.log(z))

    def _v(self, z: complex) -> complex:
        return -cmath.exp(self.sigma * cmath.log(-z))

    def _locate(self, z: complex) -> tuple:
        """(w, piece of Q, q, system, strip, t) of z != 0.

        The right wedge reads U at q = Q(w), w = z^rho; the left wedge reads
        V at q = -(-z)^sigma and has no w or piece (None).  Below the real
        axis ``read`` gives the ``below`` system at the mirror image of q.
        """
        if abs(math.atan2(z.imag, z.real)) <= self.ray:
            w = self._w(z)
            piece, q = self._q(w)
            return (w, piece, q, *self.U.read(q.imag))
        q = self._v(z)
        return (None, None, q, *self.V.read(q.imag))

    def _located(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray, list, list]:
        """``_locate`` over an array of nonzero points: right wedge (bools), |Im q|, pieces of Q and strips."""
        locs = [self._locate(z) for z in zs.tolist()]
        return (np.array([w is not None for w, *_ in locs], bool), np.array([abs(loc[2].imag) for loc in locs]),
                [loc[1] for loc in locs], [loc[4] for loc in locs])

    def eval(self, z: complex) -> complex:
        z = complex(z)
        if z == 0:
            return self.U.eval_at(0j)
        _, _, q, sys, s, t = self._locate(z)
        v = sys.value(s, q.real, t)
        return v if q.imag >= 0 else conj(v)

    def mu_parts(self, z: complex, quad: bool = False):
        z = complex(z)
        if z == 0:
            return 0j, 0j, 0.0, 0.0, None, None
        w, piece, q, sys, s, t = self._locate(z)
        mu, mu_band, a, b, dpsi, gap = sys.mu_parts(s, q.real, t, quad, q.imag < 0)
        if w is not None:  # compose with Q, then twist by z^rho
            qw, qwb = self._dq(w, piece)
            den = qw + mu * qwb.conjugate()
            mu = complex("nan") if den == 0 else (qwb + mu * qw.conjugate()) / den
            dp = self.rho * cmath.exp((self.rho - 1.0) * cmath.log(z))
        else:
            dp = self.sigma * cmath.exp((self.sigma - 1.0) * cmath.log(-z))
        return mu * dp.conjugate() / dp, mu_band, a, b, dpsi, gap

    def _conformal(self, piece: Optional[str], s: _Strip) -> bool:
        return not s.active and piece in (None, "q-identity", "q-square")  # the left wedge has no Q

    def classify(self, z: complex) -> PieceInfo:
        z = complex(z)
        if z == 0:
            return PieceInfo(label="origin", region="power-right", pair=PairIndex(0, 0),
                             variant=PLAIN, conformal=False, seam_distance=0.0)
        loc = self._locate(z)
        w, piece, _, _, s, t = loc
        return PieceInfo(
            label=f"V{s.k}" if w is None else f"U{s.k}|{piece}",
            region="power-left" if w is None else "power-right",
            pair=s.pair, variant=s.variant, k=s.k, t=t,
            x_div=s.x_div, y_div=s.y_div, band=s.psi is not None,
            conformal=self._conformal(piece, s),
            seam_distance=self._seam_distance(z, loc),
        )

    def cell_states(self, zc: np.ndarray) -> tuple[np.ndarray, list, np.ndarray, np.ndarray]:
        _, _, pieces, strips = self._located(zc)  # the midpoints are nonzero
        index: dict = {}
        codes = [index.setdefault(f"V{s.k}" if p is None else p, len(index)) for p, s in zip(pieces, strips)]
        conformal = [self._conformal(piece, s) for piece, s in zip(pieces, strips)]
        return np.array(codes, int), list(index), np.array(conformal, bool), np.zeros(len(zc), bool)

    def mu_abs_quad(self, zc: np.ndarray) -> np.ndarray:
        """|mu_quad| at each point of zc, one ``mu_parts`` call per point: Q's composition has no array form."""
        return np.array([abs(self.mu_quad(z)) for z in zc.tolist()], float)

    def fine_size(self, r_max: float) -> float:
        spacing = TWO_PI * r_max ** (1.0 - self.rho) / self.rho
        return min(TWO_PI, spacing) / 8.0

    def theta_windows(self, _r0: float, _r1: float) -> list[tuple[float, float]]:
        return [(-math.pi, math.pi)]

    def straddle_mask(self, r_max: float):
        """Corner test: the rays, the circle |z| = 1 in the right wedge, and the
        strip seams at the height |Im q| of the point q that the system reads."""
        top = r_max ** self.rho  # |w| <= top, so |Im Q(w)| <= max(top, g(top))
        seams_u = np.array(_seam_heights((self.U, self.U.below), max(top, self._g(top)[0])) + [math.inf])
        seams_v = np.array(_seam_heights((self.V, self.V.below), r_max ** self.sigma) + [math.inf])

        def test(z0, z1) -> np.ndarray:
            (right0, hq0, *_), (right1, hq1, *_) = self._located(z0), self._located(z1)
            right, any_right = _cell_range(right0, right1)
            lo, hi = _cell_range(hq0, hq1)
            next_seam = np.where(right, seams_u[np.searchsorted(seams_u, lo, side="right")],
                                 seams_v[np.searchsorted(seams_v, lo, side="right")])
            r_lo, r_hi = _cell_range(np.hypot(z0.real, z0.imag), np.hypot(z1.real, z1.imag))
            return (right != any_right) | (right & (r_lo < 1.0) & (1.0 < r_hi)) | (next_seam < hi)

        return test

    def _seam_distance(self, z: complex, loc: tuple) -> float:
        """z-plane distance to the rays, the strip seams of the system z reads and, in the right wedge,
        the edges of its piece of Q: w-plane distances (in the q-band, seams' over |grad Im Q| = |Q_w -
        conj(Q_wbar)|) over rho |z|^(rho - 1) on the right, q-plane ones over sigma |z|^(sigma - 1) on the left."""
        w, piece, q, sys, s, _ = loc
        th = math.atan2(z.imag, z.real)
        p = self.sigma if w is None else self.rho
        edge = math.inf if w is None else self._q_edge_distance(w, piece)
        seam = sys.seam_distance(s, q.real, abs(q.imag))
        if piece == "q-band":
            qw, qwb = self._dq(w, piece)
            seam /= abs(qw - qwb.conjugate())
        return min(abs(z) * min(abs(th - self.ray), abs(th + self.ray)),
                   min(edge, seam) / max(p * abs(z) ** (p - 1.0), 1e-300))

    def seam_residuals(self, samples: int = 64, strips: int = 4) -> list[SeamCheck]:
        checks = []
        # imaginary-axis identity U(i g(y)) = V(i y^gamma)
        checks.append(_sweep("axis-identity", [complex(0.0, y) for y in np.linspace(0.37, 9.11, 32)],
                             lambda p: _log_gap(self.U.eval_at(complex(0.0, self._g(p.imag)[0])),
                                                self.V.eval_at(complex(0.0, p.imag ** self.gamma)))))
        # the glued rays
        for sgn, name in ((1.0, "ray+"), (-1.0, "ray-")):
            checks.append(_sweep(name, [r * cmath.exp(1j * sgn * self.ray)
                                        for r in np.linspace(1.1, 7.3, samples).tolist()],
                                 lambda zr: _log_gap(self.U.eval_at(self._q(self._w(zr))[1]),
                                                     self.V.eval_at(self._v(zr)))))
        # strip seams of both wedge systems
        xs_r = np.linspace(0.5, 6.0, samples)
        xs_l = np.linspace(-40.0, -0.5, samples)
        for sys, xs in ((self.U, xs_r), (self.V, xs_l)):
            for half, key in ((sys, "up"), (sys.below, "lo")):
                checks += half.seam_checks(xs, strips, 200, lambda k, key=key: f"{sys.tag}:{key}:{k}|{k+1}")
        return checks

    def to_dict(self) -> dict:
        return {"rho": self.rho, "gamma": self.gamma, "sigma": self.sigma,
                "delta": self.delta}


# ---------------------------------------------------------------------------
# the public map object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GluedMap:
    """An assembled quasiregular map; immutable, safe for parallel scans.

    State built on first use, a strip system's records and a slope sequence's run, is one value published
    whole by one store; each operation reads one value, and threads that race build the same bits.  Each
    mpmath fallback sum runs in a context private to it (``specfun._poly_logsum_mp``).  Psi tables are
    immutable values that ``lru_cache``d owners keep for the process's lifetime: threads that miss
    one at once each build it, to the same bits, and the cache keeps one copy.  Their exact-band
    memo is pure.  A ``PhiSolver`` keeps no state, so a phi or psi solve is a function of x alone
    and needs no lock; nor does ``specfun._real_gap``'s memo of F = log(g - 1), an ``lru_cache`` of
    a pure function.

    Calling the map returns the complex logarithm log|f| + i arg f of its value f, with arg f in
    (-pi, pi] (:mod:`banklaine.scaledcx`); a zero reads Re = -inf and a pole Re = +inf, not an
    error.  Points with a NaN or infinite part, points whose chart coordinate exceeds the
    double-exponential overflow horizon, and points in a strip past the slope sequences'
    ``MAX_ENTRIES`` raise :class:`~banklaine.specfun.EvalDomainError`; sector assemblies raise
    :class:`UninterpolatedRegion` inside |Im z^n| <= 2 pi.
    """

    flavor: str
    params: tuple[tuple[str, object], ...]
    _impl: object = field(repr=False, compare=False)

    def __call__(self, z: complex) -> complex:
        return self._impl.eval(_finite(z))

    def classify(self, z: complex) -> PieceInfo:
        return self._impl.classify(_finite(z))

    def seam_residuals(self, samples: int = 64, strips: int | None = None) -> list[SeamCheck]:
        """Log-space residual sweeps across every declared seam; ``strips`` >= 0 caps the strip seams
        swept on each side, and None keeps the flavour's own count."""
        if strips is None:
            return self._impl.seam_residuals(samples)
        strips = _whole("strips", strips)
        if strips < 0:
            raise ValueError(f"strips must be >= 0, got {strips}")
        return self._impl.seam_residuals(samples, strips)

    @property
    def params_dict(self) -> dict:
        return dict(self.params)

    def to_dict(self) -> dict:
        d = {"flavor": self.flavor, "params": self.params_dict}
        d.update(self._impl.to_dict())
        return d

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


def _finite(z) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise EvalDomainError(f"z = {z} is not a finite point")
    return z


def _whole(name: str, value) -> int:
    """``value`` as an int: ints and whole floats such as 3.0 pass, 2.7 and bools raise."""
    if not isinstance(value, bool) and (
            isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer())):
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def _as_pair(value) -> PairIndex:
    if isinstance(value, PairIndex):
        return value
    m, n = value
    return PairIndex(_whole("m", m), _whole("n", n))


def assemble(flavor: str, **opts) -> GluedMap:
    """Build a glued map.

    Parameters by flavor:

    - ``spiral``: ``lower=(m1, n1)``, ``upper=(m2, n2)``
    - ``strips``: ``lam1``, ``lam2`` in [0, 1], optional ``sectors=n``
    - ``mixed``: ``lam1``, ``lam2``
    - ``power``: ``rho`` in (1/2, 1), ``delta``; gamma = 1/(2 rho - 1) and
      sigma = rho/(2 rho - 1) follow from rho (``params_dict`` reports both)
    """
    if flavor == SPIRAL:
        lower = _as_pair(_take(flavor, opts, "lower"))
        upper = _as_pair(_take(flavor, opts, "upper"))
        _no_extras(flavor, opts)
        eng = _SpiralEngine(lower, upper)
        shown = {"lower": (lower.m, lower.n), "upper": (upper.m, upper.n),
                 "kappa": eng.charts.kappa}
    elif flavor in (STRIPS, MIXED):
        lam1 = float(_take(flavor, opts, "lam1"))
        lam2 = float(_take(flavor, opts, "lam2"))
        sectors = _whole("sectors", opts.pop("sectors", 1))
        if sectors < 1:
            raise ValueError("sectors must be a positive integer")
        if flavor == MIXED and sectors != 1:
            raise ValueError("sector extension applies to the strips flavor only")
        _no_extras(flavor, opts)
        eng = _StripsEngine(lam1, lam2, mixed=(flavor == MIXED))
        shown = {"lam1": lam1, "lam2": lam2}
        if sectors > 1:
            eng = _SectorEngine(eng, sectors)
            shown["sectors"] = sectors
    elif flavor == POWER:
        rho = _take(flavor, opts, "rho")
        delta = float(_take(flavor, opts, "delta"))
        _no_extras(flavor, opts)
        eng = _PowerEngine(rho, delta)
        shown = {"rho": eng.rho, "gamma": eng.gamma, "sigma": eng.sigma, "delta": delta}
    else:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {_FLAVORS}")
    return GluedMap(flavor=flavor, params=tuple(sorted(shown.items())), _impl=eng)


def _take(flavor: str, opts: dict, name: str):
    try:
        return opts.pop(name)
    except KeyError:
        raise ValueError(f"flavor {flavor!r} requires parameter {name!r}") from None


def _no_extras(flavor: str, opts: dict) -> None:
    if opts:
        raise ValueError(f"unexpected parameters for {flavor!r}: {sorted(opts)}")


# ---------------------------------------------------------------------------
# Beltrami sampling
# ---------------------------------------------------------------------------

def beltrami_at(gmap: GluedMap, z: complex) -> BeltramiSample:
    """Closed-form Beltrami coefficient of the glued map at z.

    Points closer than 1e-9 (a z-plane distance) to a
    declared seam, or at a chart singularity, come back flagged
    ``indeterminate`` -- the coefficient is still the one-sided value.
    """
    z = complex(z)
    info = gmap.classify(z)
    if info.uninterpolated:
        raise UninterpolatedRegion(f"no formula at z={z:.6g}")
    mu, mu_band, a, b, dpsi, gap = gmap._impl.mu_parts(z)
    mu_abs = abs(mu)
    indeterminate = info.seam_distance < 1e-9 or not math.isfinite(mu_abs) or mu_abs >= 1.0
    return BeltramiSample(
        z=z, piece=info.label, mu=mu, K=_k_of_mu(mu_abs),
        mu_band=mu_band, K_band=_k_of_mu(abs(mu_band)),
        a=a, b=b, psi_prime=dpsi, psi_gap=gap,
        indeterminate=indeterminate,
    )


# ---------------------------------------------------------------------------
# dilatation quadrature
# ---------------------------------------------------------------------------

@dataclass
class DilatationReport:
    """Midpoint-rule account of int (K-1)/|z|^2 over an annulus.

    ``strip_sums`` aggregates by the label ``names[code]`` of ``cell_states`` (strips such as
    ``R3``, the spiral's ``cut-band``, Q's pieces and ``V`` strips on power,
    ``sector{j}:``-prefixed base labels), ``shell_sums`` by radial shell and
    ``shell_strip_sums`` by (shell index, label); ``cumulative``
    runs over the shells, whose increments serve as the Cauchy tail
    diagnostic.  The four cell counts say how each cell was handled:
    conformal cells are classified analytically and skipped, and only the
    evaluated ones contribute.  ``certified_cells`` are the conformal cells
    of coarse arcs that ``quiet_arc`` proved quiet, whose nodes were never built.
    """

    flavor: str
    r_min: float
    r_max: float
    total: float
    strip_sums: dict
    shell_edges: np.ndarray
    shell_sums: np.ndarray
    cumulative: np.ndarray
    straddle_fraction: float
    straddled_cells: int
    evaluated_cells: int
    conformal_cells: int
    skipped_cells: int
    certified_cells: int
    shell_strip_sums: dict = field(default_factory=dict, repr=False)

    def tail_increment(self, r0: float) -> float:
        """Largest shell increment beyond radius r0 (the Cauchy tail gauge)."""
        mask = self.shell_edges[1:] > r0
        return float(np.max(np.abs(self.shell_sums[mask]), initial=0.0))

    @property
    def tail_ok(self) -> bool:
        """Cauchy flag: increments past the annulus midpoint below 1e-3."""
        return self.tail_increment(0.5 * (self.r_min + self.r_max)) < 1e-3

    def csv_text(self) -> str:
        """Audit rows (outer shell radius, strip, sum) of ``shell_strip_sums``: each strip's share of the tail."""
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["r", "strip", "sum"])
        for (i, label), s in sorted(self.shell_strip_sums.items()):
            w.writerow([f"{self.shell_edges[i + 1]:.17g}", label, f"{s:.17g}"])
        return buf.getvalue()

    def to_dict(self) -> dict:
        return {
            "flavor": self.flavor, "r_min": self.r_min, "r_max": self.r_max,
            "total": self.total, "strip_sums": dict(sorted(self.strip_sums.items())),
            "straddle_fraction": self.straddle_fraction,
            "straddled_cells": self.straddled_cells,
            "evaluated_cells": self.evaluated_cells,
            "conformal_cells": self.conformal_cells,
            "skipped_cells": self.skipped_cells,
            "certified_cells": self.certified_cells,
            "tail_ok": self.tail_ok,
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


def _cell_range(v0: np.ndarray, v1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least and greatest of each cell's four corner values, from node values on both circles."""
    lo = np.minimum(np.minimum(v0[:-1], v0[1:]), np.minimum(v1[:-1], v1[1:]))
    hi = np.maximum(np.maximum(v0[:-1], v0[1:]), np.maximum(v1[:-1], v1[1:]))
    return lo, hi


def _merged(spans, tol: float = 0.0) -> list[tuple[float, float]]:
    """The union of intervals, sorted; two that meet within ``tol`` join."""
    out: list[tuple[float, float]] = []
    for lo, hi in sorted(spans):
        if out and lo <= out[-1][1] + tol:
            out[-1] = (out[-1][0], max(hi, out[-1][1]))
        else:
            out.append((lo, hi))
    return out


def _fsums(groups) -> dict:
    """{key: the exactly rounded sum of the arrays filed under key} over (key, array) pairs, in any order."""
    by_key: dict = {}
    for key, vals in groups:
        by_key.setdefault(key, []).append(vals)
    return {key: math.fsum(np.concatenate(vs).tolist()) for key, vs in by_key.items()}


def _merge_intervals(spans: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out = _merged(((max(lo, -math.pi), min(hi, math.pi)) for lo, hi in spans if hi > lo), 1e-12)
    return [(lo, hi) for lo, hi in out if hi > lo]


# nodes per engine call: a call costs ~0.45 ms fixed on strips 1..450 and ~0.3 ms on spiral 1..200 (warm, one Xeon
# core); 8192 adds ~4% to peak RSS over a shell per call, 32,768 adds 19% (7 MiB on spiral 1..200)
BLOCK_CELLS = 8192


def dilatation_integral(gmap: GluedMap, r_min: float, r_max: float,
                        resolution: Optional[float] = None) -> DilatationReport:
    """Midpoint quadrature of (K_G - 1)/|z|^2 over r_min < |z| < r_max.

    ``resolution`` is the cell size: None takes an eighth of the thinnest
    gluing strip, a positive float sets it directly.  Cells have that size
    inside the active windows and a coarser arc outside them.  Grids whose
    seam-straddling cells exceed 20% of the annulus area raise
    :class:`ResolutionError`.

    A coarse arc that the engine's ``quiet_arc`` certifies builds no nodes: its
    cells count as conformal and as ``certified_cells``.  The other arcs of
    consecutive radial shells form blocks of at most ``BLOCK_CELLS`` nodes,
    each classified as numpy arrays by one straddle test and one ``cell_states``
    call; one ``mu_abs_quad`` call gives |mu| on its cells that are not skipped
    and straddle or are not conformal.  One stable sort groups them by (shell, label).
    """
    if not (0 < r_min < r_max < math.inf):
        raise ValueError("need 0 < r_min < r_max")
    eng = gmap._impl
    fine = float(resolution) if resolution is not None else eng.fine_size(r_max)
    if not fine > 0:
        raise ValueError("cell size must be positive")
    n_r = max(1, int(math.ceil((r_max - r_min) / fine)))
    edges = np.linspace(r_min, r_max, n_r + 1)
    coarse_arc = max(8.0 * fine, (r_max - r_min) / 48.0)

    straddle_fn = eng.straddle_mask(r_max)
    annulus_area = math.pi * (r_max * r_max - r_min * r_min)
    straddle_area = 0.0
    straddled = evaluated = conformal = skipped = certified = 0
    contribs: dict = {}  # (shell index, strip label) -> array of cell contributions

    def blocks():
        """Consecutive shells' pieces (shell, start, step, nodes, cell area): fine windows, uncertified coarse arcs."""
        nonlocal certified
        block, nodes = [], 0  # nodes: the running sum of p[3] over block + pieces
        for i in range(n_r):
            r0, r1 = float(edges[i]), float(edges[i + 1])
            rc, cursor, pieces = 0.5 * (r0 + r1), -math.pi, []
            for lo, hi in _merge_intervals(eng.theta_windows(r0, r1)) + [(math.pi, math.pi)]:
                for a, b, target, coarse in ((cursor, lo, coarse_arc, True), (lo, hi, fine, False)):
                    if b > a:
                        m = max(1, int(math.ceil((b - a) * rc / target)))
                        if coarse and eng.quiet_arc(r0, r1, a, b):
                            certified += m  # conformal and unstraddled: no nodes, no contribution
                            continue
                        dth = (b - a) / m
                        pieces.append((i, a, dth, m + 1, 0.5 * (r1 * r1 - r0 * r0) * dth))
                        nodes += m + 1
                cursor = max(cursor, hi)
            if block and nodes > BLOCK_CELLS:
                yield block
                block, nodes = [], sum(p[3] for p in pieces)
            block += pieces
        yield block

    for block in blocks():
        shell, start, step, count, area = (np.array(v) for v in zip(*block))
        # one node array, a + j dth on each piece; area 0 marks the node pair joining two pieces or shells
        first = np.cumsum(count) - count
        th = np.repeat(start, count) + (np.arange(count.sum()) - np.repeat(first, count)) * np.repeat(step, count)
        area, shell = np.repeat(area, count), np.repeat(shell, count)
        area[first + count - 1] = 0.0
        r0, r1 = edges[shell], edges[shell + 1]
        area, rc, shell = area[:-1], 0.5 * (r0 + r1)[:-1], shell[:-1]
        cell = area > 0.0
        cos_t, sin_t = np.cos(th), np.sin(th)
        tc = 0.5 * (th[:-1] + th[1:])
        zc = rc * np.cos(tc) + 1j * (rc * np.sin(tc))  # both parts exact, as in complex()
        is_straddle = straddle_fn(r0 * cos_t + 1j * (r0 * sin_t), r1 * cos_t + 1j * (r1 * sin_t))[cell]
        zc, area, rc, shell = zc[cell], area[cell], rc[cell], shell[cell]
        codes, names, conf, uninterp = eng.cell_states(zc)
        if len(set(names)) < len(names):  # one (shell, label) group would overwrite another in contribs
            raise RuntimeError(f"cell_states repeats the labels {sorted({n for n in names if names.count(n) > 1})}")
        straddled += int(is_straddle.sum())
        for a in area[is_straddle].tolist():
            straddle_area += a  # one cell at a time, in cell order: the same rounding
        todo = ~uninterp & (is_straddle | ~conf)
        skipped += int(uninterp.sum())
        conformal += len(zc) - int(todo.sum()) - int(uninterp.sum())
        m = eng.mu_abs_quad(zc[todo])
        km1 = np.divide(1.0 + m, 1.0 - m, out=np.ones_like(m), where=m < 1.0) - 1.0  # 0 where K = inf
        contrib = km1 / (rc[todo] * rc[todo]) * area[todo]
        evaluated += len(m)
        key = shell[todo] * len(names) + codes[todo]
        order = np.argsort(key, kind="stable")
        vals, key = contrib[order], key[order]
        at = np.flatnonzero(np.diff(key, prepend=-1)).tolist()  # where each run of one (shell, label) starts
        for lo, hi in zip(at, at[1:] + [len(key)]):
            i, c = divmod(int(key[lo]), len(names))
            contribs[(i, names[c])] = vals[lo:hi]

    straddle_fraction = straddle_area / annulus_area
    if straddle_fraction > 0.20:
        raise ResolutionError(
            f"straddling cells cover {straddle_fraction:.1%} of the annulus; "
            "refine the grid (>20% is past the reliability cutoff)")

    per_shell = _fsums((i, vals) for (i, _), vals in contribs.items())
    shell_sums = np.array([per_shell.get(i, 0.0) for i in range(n_r)])
    return DilatationReport(
        flavor=gmap.flavor, r_min=r_min, r_max=r_max,
        total=math.fsum(shell_sums.tolist()),
        strip_sums=_fsums((label, vals) for (_, label), vals in contribs.items()),
        shell_edges=edges, shell_sums=shell_sums,
        cumulative=np.cumsum(shell_sums),
        straddle_fraction=straddle_fraction,
        straddled_cells=straddled, evaluated_cells=evaluated,
        conformal_cells=conformal + certified, skipped_cells=skipped, certified_cells=certified,
        shell_strip_sums=_fsums(contribs.items()),
    )
