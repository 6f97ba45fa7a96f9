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
import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .diffeo import LEFT, RIGHT, DiffeoSpec, PhiSolver, PsiMap, psi_link
from .scaledcx import ScaledComplex, wrap_phase
from .sequences import build_graded_slopes, build_paired_slopes, select_case
from .specfun import HALF, PAIR_CAP, PLAIN, PairIndex, eval_model, eval_model_turns

TWO_PI = 2.0 * math.pi

# A seam decision taken from numpy values within this slack of its threshold is
# retaken by the scalar code.  numpy's log, arctan2 and exp may differ from libm
# by a few ulp.  |log r| < 745 and |beta0| < 1.7 (PAIR_CAP), so theta + beta0 log r
# (< 1300) and xi move by ~1e-12, bar the jumps of fmod and wrap_phase at xi = 0,
# +-pi; lm = order log r - beta0 xi (order < 4) by ~1e-11, and Im h by ~1e-11 |h|.
DECISION_SLACK = 1e-9

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
    alpha = 0.5 * (1.0 / x_div + 1.0 / y_div)
    beta = 0.5 * (1.0 / x_div - 1.0 / y_div)
    return complex(beta / alpha, 0.0)


def _compose_affine(x_div: float, y_div: float, a: float, b: float) -> complex:
    # mu of chi o q with q_z = 1+a-ib, q_zbar = a+ib and chi = alpha w + beta wbar
    alpha = 0.5 * (1.0 / x_div + 1.0 / y_div)
    beta = 0.5 * (1.0 / x_div - 1.0 / y_div)
    num = beta + (alpha + beta) * complex(a, b)
    den = alpha + (alpha + beta) * complex(a, -b)
    if den == 0:
        return complex("nan")
    return num / den


def _affine_mu_abs(x_div: np.ndarray, y_div: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """abs(_compose_affine(x_div, y_div, a, b)) over arrays, bit for bit, NaN (0/0) where den == 0.

    num = (beta + f a, f b) over den = (alpha + f a, -f b), f = alpha + beta, by Smith's method as CPython
    divides (``_Py_c_quot``), then hypot; complex numpy division and np.abs round differently.
    """
    alpha, beta = 0.5 * (1.0 / x_div + 1.0 / y_div), 0.5 * (1.0 / x_div - 1.0 / y_div)
    fa, fb = (alpha + beta) * a, (alpha + beta) * b
    nr, dr, di = beta + fa, alpha + fa, -fb
    by_re = np.abs(dr) >= np.abs(di)
    with np.errstate(divide="ignore", invalid="ignore"):  # in the branch np.where drops
        ratio = np.where(by_re, di / dr, dr / di)
        denom = np.where(by_re, dr + di * ratio, dr * ratio + di)
        return np.hypot(np.where(by_re, nr + fb * ratio, nr * ratio + fb) / denom,
                        np.where(by_re, fb - nr * ratio, fb * ratio - nr) / denom)


def _band_mu(a: float, b: float) -> complex:
    den = complex(1.0 + a, -b)
    if den == 0:
        return complex("nan")
    return complex(a, b) / den


def _k_of_mu(mu_abs: float) -> float:
    if not math.isfinite(mu_abs) or mu_abs >= 1.0:
        return math.inf
    return (1.0 + mu_abs) / (1.0 - mu_abs)


def _log_gap(a: ScaledComplex, b: ScaledComplex) -> float:
    """Log-space distance between two values; inf across kind mismatches."""
    if a.is_zero or a.is_pole or b.is_zero or b.is_pole:
        return 0.0 if (a.is_zero == b.is_zero and a.is_pole == b.is_pole) else math.inf
    return max(abs(a.log_modulus - b.log_modulus), abs(wrap_phase(a.phase - b.phase)))


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

    def xi_logr(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(``_xi(w)``, log|w|) at nonzero points to ~1e-12; exact within DECISION_SLACK of xi = 0, +-pi."""
        logr = np.log(np.hypot(w.real, w.imag))
        t = np.fmod(np.arctan2(w.imag, w.real) + self.beta0 * logr, TWO_PI)  # then wrap_phase's corrections
        xi = np.where(t <= -math.pi, t + TWO_PI, np.where(t > math.pi, t - TWO_PI, t))
        a = np.abs(xi)
        for j in np.flatnonzero((a < DECISION_SLACK) | (a > math.pi - DECISION_SLACK)).tolist():
            z = complex(w[j])
            xi[j], logr[j] = self._xi(z), math.log(abs(z))
        return xi, logr

    def h(self, w: complex) -> complex:
        """The inverse chart, branch fixed so arg h(w) lands in (-pi, pi].

        Writes h = exp((1/mu)(log|w| + i theta)) with 1/mu = 1 + i beta0 and
        theta the lift of arg w for which the image leaves the cut plane
        exactly along Gamma.
        """
        w = complex(w)
        if w == 0:
            return 0j
        xi = self._xi(w)
        return cmath.exp(complex(self.order * math.log(abs(w)) - self.beta0 * xi, xi))

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

    def _base(self, x: float) -> float:
        return self._solver.value(x if x >= 0 else x / self.kappa)

    def _base_deriv(self, x: float) -> float:
        if x >= 0:
            return self._solver.deriv(x)
        return self._solver.deriv(x / self.kappa) / self.kappa

    def __call__(self, z: complex) -> complex:
        z = complex(z)
        x, y = z.real, z.imag
        if abs(y) >= 1.0:
            return z
        base = self._base(x)
        return complex(base + abs(y) * (x - base), y)

    def jacobian(self, z: complex) -> tuple[float, float, float, float]:
        """(u_x, u_y, v_x, v_y) of the interpolation; identity off the strip."""
        z = complex(z)
        x, y = z.real, z.imag
        if abs(y) >= 1.0:
            return 1.0, 0.0, 0.0, 1.0
        dp = self._base_deriv(x)
        return _shear_jacobian(x, y, self._base(x), dp)


def _shear_jacobian(x: float, y: float, base: float, dp: float) -> tuple[float, float, float, float]:
    # u = base + |y| (x - base), v = y, for 0 < |y| < 1; dp = base'(x)
    sgn = 1.0 if y >= 0 else -1.0
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
    toward strip k+1 through ``psi`` (None when that map is the identity),
    tabulated for quadrature in ``psi_table``.  ``active`` says whether the
    strip carries any dilatation at all.
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
    psi_table: Optional[_PsiCache]
    active: bool


class _StripSystem:
    """Strip-indexed evaluator on one horizontal side of a half-plane.

    Strip k occupies local heights [Y_{k-1}, Y_k) with Y_k - Y_{k-1}
    = 2 pi y_div(k), carries the model pair (m_k, n_k) scaled by
    chi = x/x_div + i y/y_div, and interpolates toward strip k+1 through
    q = x + i y + t (psi_k(x) - x) with t the normalized strip height.
    Evaluation feeds t straight into the exact-turn model evaluator, so
    the top edge of strip k and the bottom edge of strip k+1 agree to the
    accuracy of the conjugacy solve.

    Each strip is one :class:`_Strip` record, appended by ``_grow`` the
    first time a lookup reaches it; ``_tops`` holds the heights
    Y_0 = 0, Y_1, ... that ``locate`` bisects.  ``_lock`` guards growth
    only: ``_grow`` appends each record before its top, so a reader that
    finds y below ``_tops[-1]`` without the lock also finds its record.

    The system owns its strips' psi tables, all on one node grid, and
    ``psi_read`` reads them stacked.  Each strip's psi owns its solver and
    ``_PsiCache.eval`` builds before it solves, so building every table read
    before any exact solve leaves each solver the solves ``eval`` gives it.
    """

    def __init__(self, m_seq, n_seq, side: str, l: int, heights: str,
                 variant_rule: Callable[[int], str], tag: str):
        if heights not in ("slope", "unit"):
            raise ValueError("heights must be 'slope' or 'unit'")
        self._m, self._n = m_seq, n_seq
        self.side = side
        self.l = int(l)
        self.heights = heights
        self.variant_rule = variant_rule
        self.tag = tag
        self._lock = threading.Lock()
        self._strips: list[_Strip] = []
        self._tops: list[float] = [0.0]
        self._cols: tuple[int, dict] = (-1, {})  # (strips laid out, columns)
        self._span = (0.0, _PsiCache.SPAN) if side == RIGHT else (-_PsiCache.SPAN, 0.0)
        self._xs = _PsiCache.nodes(*self._span)  # the node grid of every psi table here

    # -- strip records -----------------------------------------------------
    def _model(self, k: int) -> tuple[PairIndex, str]:
        """(pair, variant) of strip k."""
        m, n = self._m.entry(k), self._n.entry(k)
        if max(m, n) > PAIR_CAP:
            raise PairCapError(f"strip system {self.tag} stops at local height {self._tops[-1]!r}: "
                               f"strip {self.tag}{k} needs the pair ({m}, {n}), past PAIR_CAP = {PAIR_CAP}")
        return PairIndex(m, n), self.variant_rule(k)

    def _grow(self) -> None:
        """Append the next strip record, its x_div and shift read off its psi; the caller holds the lock."""
        k = len(self._strips) + 1
        pair, variant = self._model(k)
        pm = psi_link((pair, variant), self._model(k + 1), self.side, self.l)
        x_div, shift, y_div = pm.scale_out, pm.s_src, 1.0 if self.heights == "unit" else float(pair.N)
        table = None
        if pm.exact_identity:
            pm = None
        else:
            table = _PsiCache(pm, pm.deriv, *self._span)
        lo = self._tops[-1]
        hi = lo + TWO_PI * y_div
        self._strips.append(_Strip(k, pair, variant, x_div, y_div, shift, lo, hi, pm, table,
                                   pm is not None or x_div != y_div))
        self._tops.append(hi)

    def strip(self, k: int) -> _Strip:
        """The record of strip k >= 1."""
        if k > len(self._strips):
            with self._lock:
                while len(self._strips) < k:
                    self._grow()
        return self._strips[k - 1]

    def locate(self, y: float) -> tuple[_Strip, float]:
        """Strip record and normalized height for y >= 0."""
        if y < 0:
            raise ValueError("strip systems cover y >= 0")
        if self._tops[-1] <= y:
            with self._lock:
                while self._tops[-1] <= y:
                    self._grow()
        s = self._strips[bisect_right(self._tops, y) - 1]
        return s, (y - s.lo) / (TWO_PI * s.y_div)

    def columns(self) -> dict:
        """The strips grown so far as arrays indexed by k - 1, rebuilt after growth."""
        n = len(self._tops) - 1  # _grow appends each record before its top
        if self._cols[0] != n:
            recs = self._strips[:n]
            cols = {a: np.array([getattr(s, a) for s in recs]) for a in ("x_div", "y_div", "active")}
            cols["psi"] = np.array([s.psi is not None for s in recs], bool)
            cols["tops"] = np.array(self._tops[:n + 1])
            cols["label"] = np.array([f"{self.tag}{s.k}" for s in recs], object)
            self._cols = n, cols
        return self._cols[1]

    def psi_read(self, x: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``psi_table.eval`` at each x[c] in strip j[c] + 1, bit for bit, NaN where ``eval`` solves exactly.

        Strips without psi read x + 0 and 1.  Builds every table it reads first, as ``eval`` does.
        """
        xs, rows, r = self._xs, *np.unique(j, return_inverse=True)
        nan = np.full(len(xs), math.nan)
        tables = [(0.0, nan, nan, 0.0) if s.psi is None else s.psi_table._table or s.psi_table._build()
                  for s in map(self._strips.__getitem__, rows.tolist())]
        c_lo, c_hi = (np.array([t[k] for t in tables], float)[r] for k in (0, 3))
        vs, ds = (np.array([t[k] for t in tables]).reshape(len(rows), len(xs)) for k in (1, 2))
        high = ~self.columns()["psi"][j] | (x >= xs[-1])
        tail = high | (x <= -_PsiCache.SPAN)
        px, dp = np.where(tail, x + np.where(high, c_hi, c_lo), np.nan), np.where(tail, 1.0, np.nan)
        herm = ~tail & (x > xs[0])
        xh, rh, i = x[herm], r[herm], np.searchsorted(xs, x[herm], side="right") - 1
        px[herm], dp[herm] = _hermite(xh, xs[i], xs[i + 1] - xs[i], vs[rh, i], ds[rh, i], vs[rh, i + 1], ds[rh, i + 1])
        return px, dp

    # -- evaluation ------------------------------------------------------
    def value(self, s: _Strip, x: float, t: float) -> ScaledComplex:
        xt = x if s.psi is None else x + t * (s.psi(x) - x)
        return eval_model_turns(s.pair, xt / s.x_div + s.shift, t, s.variant)

    def eval_xy(self, x: float, y: float) -> ScaledComplex:
        """Value at local (x, y); below the axis, the conjugate of the mirror image."""
        s, t = self.locate(abs(y))
        v = self.value(s, x, t)
        return v if y >= 0 else v.conj()

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
            px, dp = s.psi_table.eval(x) if quad else (s.psi(x), s.psi.deriv(x))
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

    def active_windows(self, y_max: float) -> list[tuple[float, float]]:
        """(y_lo, y_hi) of the strips with dilatation, up to the first strip that reaches y_max."""
        while self._tops[-1] < y_max:
            self.strip(len(self._strips) + 1)
        cols = self.columns()
        k = int(np.searchsorted(cols["tops"], y_max))  # Y_k is the first top >= y_max
        on = cols["active"][:k]
        return list(zip(cols["tops"][:k][on].tolist(), cols["tops"][1:k + 1][on].tolist()))

    def seam_ys(self, y_max: float) -> list[float]:
        """Heights Y_k <= y_max of the seams."""
        self.locate(y_max)  # grows the system past y_max
        cols = self.columns()
        return cols["tops"][1:][cols["psi"] & (cols["tops"][1:] <= y_max)].tolist()

    def seam_checks(self, xs, strips: int, k_cap: int, name: Callable[[int], str]) -> list[SeamCheck]:
        """Log-space gaps across the first ``strips`` seams below strip k_cap, sampled at xs."""
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
    """Cubic Hermite (value, slope) at x in [x0, x0 + h] from end values v, slopes d; floats or arrays.

    (1 - s)^2 is Python's float ** (libm pow) on both: numpy's square and power round it otherwise."""
    s = (x - x0) / h
    om2 = (1 - s) ** 2 if isinstance(s, float) else np.array([u ** 2 for u in (1 - s).tolist()])
    s2 = s * s
    val = (1 + 2 * s) * om2 * v0 + h * s * om2 * d0 + s2 * (3 - 2 * s) * v1 + h * s2 * (s - 1) * d1
    der = (v0 * (6 * s2 - 6 * s) + h * d0 * (3 * s2 - 4 * s + 1)
           + v1 * (6 * s - 6 * s2) + h * d1 * (3 * s2 - 2 * s)) / h
    return val, der


class _PsiCache:
    """Cubic-Hermite table of a psi (value ``f``, derivative ``df``), for quadrature.

    Outside |x| <= SPAN the two tails are frozen as x + c.  But the map reads
    phi at x/N_{k+1} (left strips), x/l (right strips) or x/kappa (spiral, x < 0),
    so it is affine only past about SPAN times that scale: |mu_quad| is off by
    7e-5 on strips (0.5, 0.5) at -200 + 33i and by 0.25 on power (0.75, 0.5)
    at 15 e^{2.992i}, both pinned by an xfail test.  Value/derivative pairs
    at the nodes make the interpolant C^1 with error far under the
    midpoint-rule floor.

    The first ``eval`` (or ``_build``) solves the whole table in one sweep
    of ascending x (left tail constant, nodes, right tail constant) under
    ``_lock`` and stores one immutable tuple (c_lo, psi and psi' as node
    arrays, c_hi), which later reads take without a lock; ``eval`` builds
    before it solves.  A quadrature reads nearly every node of the tables it
    reads (1,106 of 1,116 on strips 1..450, 185 of 193 on the spiral 1..200),
    and one sweep keeps the nodes independent of the order cells reach them.
    A table that no quadrature reads costs no solve.

    Tables that start at x = 0 (right-side seams pin psi(0) = 0) fall back
    to exact solves on -SPAN < x <= 2: psi turns over there within a few
    multiples of 1/N, and no fixed grid keeps the *derivative* honest at the
    knee.  ``_StripSystem.psi_read`` reads a system's tables as arrays.
    """

    SPAN = 24.0
    STEP = 0.25

    @classmethod
    def nodes(cls, lo: float, hi: float) -> np.ndarray:
        """The node grid of a table on [lo, hi]: from 2 when lo = 0, where the exact band ends."""
        return np.arange(2.0 if lo == 0.0 else lo, hi + cls.STEP / 2.0, cls.STEP)

    def __init__(self, f: Callable[[float], float], df: Callable[[float], float], lo: float, hi: float):
        self.f, self.df = f, df
        self.xs = self.nodes(lo, hi)
        self._xl = self.xs.tolist()
        self._table: Optional[tuple] = None  # (c_lo, psi at xs, psi' at xs, c_hi)
        self._lock = threading.Lock()

    def _build(self) -> tuple:
        with self._lock:
            if self._table is None:
                tail = self.SPAN + 2.0
                c_lo = self.f(-tail) + tail
                vs, ds = np.array([(self.f(x), self.df(x)) for x in self._xl]).T
                self._table = (c_lo, vs, ds, self.f(tail) - tail)
            return self._table

    def eval(self, x: float) -> tuple[float, float]:
        """(psi(x), psi'(x)) to interpolation accuracy."""
        c_lo, vs, ds, c_hi = self._table or self._build()
        xl = self._xl
        if x >= xl[-1]:
            return x + c_hi, 1.0
        if x <= xl[0]:
            if x <= -self.SPAN:
                return x + c_lo, 1.0
            return self.f(x), self.df(x)
        i = bisect_right(xl, x) - 1
        val, der = _hermite(x, xl[i], xl[i + 1] - xl[i], vs.item(i), ds.item(i), vs.item(i + 1), ds.item(i + 1))
        return float(val), float(der)


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
    which ``classify`` and ``mu_parts`` read.

    - :class:`GluedMap` calls ``eval(z)``, ``classify(z)``,
      ``seam_residuals(samples, strips)`` and ``to_dict()``.
    - :func:`beltrami_at` calls ``classify(z)``, whose ``seam_distance`` is
      a z-plane distance in every flavor, and ``mu_parts(z)``.
    - :func:`dilatation_integral` calls ``fine_size(r_max)``,
      ``theta_windows(r0, r1)`` and ``straddle_mask(r_max)``, then once per
      block of radial shells ``cell_states`` and ``mu_abs_quad``.  Every engine
      implements the two classifying hooks as the array form of its own
      ``_locate``; there are no defaults.

      - ``straddle_mask(r_max)`` returns ``test(z0, z1)``, a bool per cell
        saying whether a seam separates the corners of cell j: z0[j],
        z0[j+1] on the inner circle and z1[j], z1[j+1] on the outer.
      - ``cell_states(zc)`` is ``(labels, conformal, uninterpolated)`` at the
        midpoints zc, the cheap ``classify``: labels key ``strip_sums``, and
        ``conformal`` promises mu == 0.
      - ``mu_abs_quad(zc)`` is ``abs(mu_quad(z))`` at the midpoints zc of the
        cells that straddle or are not conformal.  The default loops over
        ``mu_quad``.  The strips engine reads psi (frozen tails, Hermite
        tables, or none) as arrays through ``_StripSystem.psi_read``, which
        builds the tables first, and loops only over the exact band of its
        right tables: one solver per strip, and ``eval`` builds before it solves.

    Array code must take the scalar code's decisions, since grid nodes sit on
    seams, and give |mu| bit for bit.  np.sin, np.cos, np.fmod and np.hypot agree
    with ``math`` and complex abs; np.log, np.arctan2, np.exp and complex np.abs
    may differ in the last bit (AVX-512 builds).  Decisions, not values, are exact:
    one within ``DECISION_SLACK`` = 1e-9 of its threshold is retaken by scalar code.

    ``mu_parts(z, quad)`` is the one Beltrami computation.  It returns
    ``(mu, mu_band, a, b, psi', psi(x) - x)``: mu of the whole glued map,
    mu_band of the interpolation chart q alone, the chart's (a, b), and the
    strip system's psi data (None on the spiral, which has none).
    ``quad=False`` solves the conjugacy exactly, the reference;
    ``quad=True`` reads the :class:`_PsiCache` Hermite tables, to
    quadrature accuracy only.
    """

    def mu(self, z: complex) -> complex:
        """Beltrami coefficient of the glued map at z, from exact solves."""
        return self.mu_parts(z)[0]

    def mu_quad(self, z: complex) -> complex:
        """Beltrami coefficient at z to quadrature accuracy (Hermite tables)."""
        return self.mu_parts(z, quad=True)[0]

    def mu_abs_quad(self, zc: np.ndarray) -> np.ndarray:
        """|mu_quad| at each point of zc."""
        return np.array([abs(self.mu_quad(z)) for z in zc.tolist()], float)


class _StripsEngine(_Engine):
    """Half-plane strip assembly; upper and lower systems per side.

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

        def systems(rule: Callable[[int], str]) -> dict:
            return {side: _StripSystem(self.m_seq, self.n_seq, side, self.l, "slope", rule, tag)
                    for side, tag in ((RIGHT, "R"), (LEFT, "L"))}

        self.up = systems(upper_rule)
        self.lo = systems(_plain_rule) if mixed else self.up

    def _systems(self) -> list[_StripSystem]:
        tables = (self.up, self.lo) if self.mixed else (self.up,)
        return [table[side] for table in tables for side in (RIGHT, LEFT)]

    def _locate(self, z: complex) -> tuple[_StripSystem, _Strip, float]:
        """(system, strip, t) of z; below the real axis, of its mirror image."""
        x, y = z.real, z.imag
        sys = (self.up if y >= 0 else self.lo)[RIGHT if x >= 0 else LEFT]
        return (sys, *sys.locate(abs(y)))

    def _located(self, zc: np.ndarray):
        """``_locate`` over an array: (system, columns, cell mask, strip indices k - 1) per system."""
        x, y = zc.real, zc.imag
        for table, half in ((self.up, y >= 0), (self.lo, ~(y >= 0))):
            for side, sel in ((RIGHT, half & (x >= 0)), (LEFT, half & ~(x >= 0))):
                sys, ay = table[side], np.abs(y[sel])
                if len(ay) and sys._tops[-1] <= ay.max():
                    sys.locate(float(ay.max()))  # grows the system past the highest cell
                cols = sys.columns()
                yield sys, cols, sel, np.searchsorted(cols["tops"], ay, side="right") - 1  # as locate bisects

    def eval(self, z: complex) -> ScaledComplex:
        sys, s, t = self._locate(z)
        v = sys.value(s, z.real, t)
        return v if z.imag >= 0 else v.conj()

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

    def cell_states(self, zc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        labels, active = np.empty(len(zc), dtype=object), np.empty(len(zc), bool)
        for _, cols, sel, j in self._located(zc):
            labels[sel], active[sel] = cols["label"][j], cols["active"][j]
        return labels, ~active, np.zeros(len(zc), bool)

    def mu_abs_quad(self, zc: np.ndarray) -> np.ndarray:
        """|mu_quad| at zc as arrays from ``psi_read``, bar the exact band it leaves NaN (right tables at x <= 2)."""
        out, exact = np.empty(len(zc)), np.zeros(len(zc), bool)
        for sys, cols, sel, j in self._located(zc):  # as mu_parts: a = t (psi' - 1)/2, b = (psi(x) - x)/(4 pi y_div)
            x = zc.real[sel]
            px, dp = sys.psi_read(x, j)
            t = (np.abs(zc.imag[sel]) - cols["tops"][j]) / (TWO_PI * cols["y_div"][j])
            a, b = 0.5 * t * (dp - 1.0), (px - x) / (2.0 * TWO_PI * cols["y_div"][j])
            out[sel], exact[sel] = _affine_mu_abs(cols["x_div"][j], cols["y_div"][j], a, b), np.isnan(px)
        out[exact] = super().mu_abs_quad(zc[exact])  # in cell order, after every table the cells read is built
        return out

    # -- dilatation hooks -------------------------------------------------
    def fine_size(self, _r_max: float) -> float:
        return TWO_PI / 8.0

    def _all_windows(self, y_max: float) -> list[tuple[float, float]]:
        wins: list[tuple[float, float]] = []
        margin = 4.0 * self.fine_size(y_max)
        for sys in self._systems():
            for lo, hi in sys.active_windows(y_max):
                wins.append((max(0.0, lo - margin), hi + margin))
        return _merged(wins)

    def theta_windows(self, r0: float, r1: float) -> list[tuple[float, float]]:
        out: list[tuple[float, float]] = []
        for lo, hi in self._all_windows(r1):
            if lo >= r1:
                continue
            s_lo = min(1.0, lo / r1)
            s_hi = min(1.0, hi / r0)
            if s_lo >= s_hi and s_lo >= 1.0:
                continue
            a, b = math.asin(s_lo), math.asin(s_hi)
            out += ((a, b), (math.pi - b, math.pi - a), (-b, -a), (-math.pi + a, -math.pi + b))
        return out

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
        for table, hemi in ((self.up, "upper"), (self.lo, "lower")) if self.mixed else ((self.up, "upper"),):
            for sys, xs in ((table[RIGHT], xs_r), (table[LEFT], xs_l)):
                checks += sys.seam_checks(xs, strips, 400,
                                          lambda k, tag=sys.tag: f"{hemi}:{tag}{k}|{tag}{k+1}")
        # the imaginary axis: both sides reduce to the same turn evaluation
        mids = [complex(0.0, 0.5 * (s.lo + s.hi)) for s in map(self.up[RIGHT].strip, range(1, strips + 1))]
        checks.append(_sweep("axis", mids,
                             lambda p: _log_gap(self.up[RIGHT].eval_xy(0.0, p.imag),
                                                self.up[LEFT].eval_xy(0.0, p.imag))))
        if self.mixed:
            checks.append(_sweep("real-axis", [complex(x, 0.0) for x in np.linspace(-8.0, 8.0, samples)],
                                 lambda p: _log_gap(self.eval(p), self.lo[RIGHT if p.real >= 0 else LEFT]
                                                    .eval_xy(p.real, 0.0))))
        return checks

    def to_dict(self) -> dict:
        return {"case": self.case, "l": self.l}


class _SectorEngine(_Engine):
    """z^n pullback of a strip assembly with the reciprocal boundary sheets.

    Sectors adjacent to the positive real axis use the flipped sheet
    G_1 (equal to 1/G_0 on the base strip 0 <= Im <= 2 pi); everything
    within |Im z^n| <= 2 pi stays uninterpolated by design.  Outside that
    core the flipped sheet is the half-turn translate of the base map, so
    every hook reads the base engine at the translated point.
    """

    flavor = STRIPS

    def __init__(self, base: _StripsEngine, n: int):
        if n < 2:
            raise ValueError("sector extension needs n >= 2")
        for k in (1, 2):
            if base.up[RIGHT].strip(k).pair != PairIndex(0, 0):
                raise ValueError("sector extension requires a plain (0,0) prefix")
        self.base = base
        self._sheet = base.up[RIGHT].strip(1)  # the plain (0,0) model of the flipped sheet
        self.n = int(n)
        self.case = base.case
        self.l = base.l

    def _chi1(self, w: complex) -> complex:
        if w.real >= 0:
            return complex(w.real / self.l, w.imag)
        return w

    @staticmethod
    def _half_turn(w: complex) -> complex:
        # the flipped sheet away from the real axis: G_1(w) = G_0(w -+ i pi)
        return w + complex(0.0, -math.pi if w.imag > 0 else math.pi)

    def flipped_value(self, w: complex) -> ScaledComplex:
        if abs(w.imag) >= math.pi:
            return self.base.eval(self._half_turn(w))
        zeta = self._chi1(w)
        return eval_model_turns(self._sheet.pair, zeta.real + self._sheet.shift,
                                zeta.imag / TWO_PI, PLAIN).recip()

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

    def eval(self, z: complex) -> ScaledComplex:
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
        return PieceInfo(
            label=f"sector{j}:{sheet}:{info.label}", region=f"sector{j}",
            pair=info.pair, variant=info.variant, k=info.k, t=info.t,
            x_div=info.x_div, y_div=info.y_div, band=info.band,
            conformal=info.conformal,
            # back to the z-plane through |d z^n/dz|
            seam_distance=info.seam_distance / max(1e-300, self.n * abs(z) ** (self.n - 1)),
        )

    def _located(self, zs: np.ndarray) -> tuple[tuple, np.ndarray, tuple]:
        """``_locate`` over an array: sectors, base-engine points (an array), uninterpolated flags."""
        js, ws, uninterp = zip(*map(self._locate, zs.tolist())) if len(zs) else ((), (), ())
        return js, np.array(ws, complex), uninterp

    def cell_states(self, zc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        js, ws, uninterp = self._located(zc)
        base_labels, conformal, _ = self.base.cell_states(ws)
        labels = [f"sector{j}:{'uninterpolated' if u else label}"
                  for j, label, u in zip(js, base_labels.tolist(), uninterp)]
        uninterp = np.array(uninterp, bool)
        return np.array(labels, dtype=object), conformal & ~uninterp, uninterp

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
        # the two sheets are reciprocal on the base strip 0 <= Im w <= 2 pi
        def gap(w: complex) -> float:
            prod = self.base.eval(w).mul(self.flipped_value(w))
            return max(abs(prod.log_modulus), abs(wrap_phase(prod.phase)))

        checks.append(_sweep("sheet-inverse", [complex(x, 1.0 + 0.007 * x)
                                               for x in np.linspace(-6.0, 6.0, samples).tolist()], gap))
        return checks

    def to_dict(self) -> dict:
        return {"case": self.case, "l": self.l, "sectors": self.n}


# ---------------------------------------------------------------------------
# engine: spiral
# ---------------------------------------------------------------------------

class _SpiralEngine(_Engine):
    """Two models glued across a logarithmic spiral by the chart z^mu."""

    flavor = SPIRAL

    def __init__(self, lower: PairIndex, upper: PairIndex):
        self.lower, self.upper = lower, upper
        self.spec = DiffeoSpec(lower, upper)
        self.charts = spiral_charts(self.spec.kappa)
        self.homeo = StripHomeo(self.spec)
        # tabulates the homeo's axis profile (base, base')
        self._qcache = _PsiCache(self.homeo._base, self.homeo._base_deriv,
                                 -_PsiCache.SPAN, _PsiCache.SPAN)

    def _locate(self, w: complex) -> tuple[complex, bool]:
        """The chart point h(w) (h(0) = 0) and whether it lies in the band.

        Above the real axis h lands in the upper model, below it in the
        lower model through the strip homeo, which has dilatation only in
        the band -1 < Im h < 0.
        """
        h = self.charts.h(w)
        return h, -1.0 < h.imag < 0.0

    def eval(self, w: complex) -> ScaledComplex:
        h, _ = self._locate(complex(w))
        return eval_model(self.upper, h) if h.imag >= 0 else eval_model(self.lower, self.homeo(h))

    def mu_parts(self, w: complex, quad: bool = False):
        w = complex(w)
        h, band = self._locate(w)
        if not band:
            return 0j, 0j, 0.0, 0.0, None, None
        if quad:
            base, dbase = self._qcache.eval(h.real)
            u_x, u_y, _, _ = _shear_jacobian(h.real, h.imag, base, dbase)
        else:
            u_x, u_y, _, _ = self.homeo.jacobian(h)
        a, b = 0.5 * (u_x - 1.0), 0.5 * u_y
        mu_band = _band_mu(a, b)
        hp = h / (self.charts.mu * w)  # h_prime(w), from the h located
        return mu_band * hp.conjugate() / hp, mu_band, a, b, None, None

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

    def cell_states(self, zc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # _locate's band test -1 < Im h < 0, retaken where Im h is within DECISION_SLACK (1 + |h|) of one end
        xi, logr = self.charts.xi_logr(zc)
        mod = np.exp(self.charts.order * logr - self.charts.beta0 * xi)
        h_im = mod * np.sin(xi)
        band = (-1.0 < h_im) & (h_im < 0.0)
        for j in np.flatnonzero(np.minimum(np.abs(h_im + 1.0), np.abs(h_im)) < DECISION_SLACK * (1.0 + mod)):
            band[j] = self._locate(complex(zc[j]))[1]
        return np.where(band, "cut-band", "regular"), ~band, np.zeros(len(zc), bool)

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
    """

    flavor = POWER
    _Q_CONFORMAL = ("q-identity", "q-square")  # pieces of Q that are the identity

    def __init__(self, rho: float, delta: float,
                 gamma: Optional[float] = None, sigma: Optional[float] = None):
        rho_q = Fraction(rho)
        if not (Fraction(1, 2) < rho_q < 1):
            raise ValueError(f"rho must lie in (1/2, 1), got {rho}")
        gamma_q = 1 / (2 * rho_q - 1)
        sigma_q = rho_q * gamma_q
        if gamma is not None and Fraction(gamma) != gamma_q:
            raise ValueError(f"gamma={gamma} inconsistent with rho={rho} (need {gamma_q})")
        if sigma is not None and Fraction(sigma) != sigma_q:
            raise ValueError(f"sigma={sigma} inconsistent with rho={rho} (need {sigma_q})")
        # 1/rho + 1/(rho*gamma) = 2 holds exactly in rational arithmetic
        assert 1 / rho_q + 1 / sigma_q == 2
        self.rho_q, self.gamma_q, self.sigma_q = rho_q, gamma_q, sigma_q
        self.rho, self.gamma, self.sigma = float(rho_q), float(gamma_q), float(sigma_q)
        self.delta = float(delta)
        self.m_seq = build_graded_slopes(self.gamma, self.delta)
        self.n_seq = build_paired_slopes(self.gamma, self.m_seq)

        def upper_rule(k: int) -> str:
            return HALF if k >= 3 else PLAIN

        def systems(side: str, heights: str, tag: str) -> dict:
            return {"up": _StripSystem(self.m_seq, self.n_seq, side, 1, heights, upper_rule, tag),
                    "lo": _StripSystem(self.m_seq, self.n_seq, side, 1, heights, _plain_rule, tag)}

        self.U, self.V = systems(RIGHT, "unit", "U"), systems(LEFT, "slope", "V")
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
        s, _ = self.V["up"].locate(t)
        return TWO_PI * (s.k - 1) + (t - s.lo) / s.y_div, self.gamma * y ** (self.gamma - 1.0) / s.y_div

    def g_axis(self, y: float) -> float:
        return self._g(y)[0]

    def q_label(self, w: complex) -> str:
        x, y = w.real, w.imag
        if x >= 1.0:
            return "q-identity"
        if abs(y) >= 1.0:
            return "q-band"
        if x * x + y * y < 1.0:
            return "q-disk"
        return "q-square"

    def q_value(self, w: complex) -> complex:
        label = self.q_label(w)
        if label in ("q-identity", "q-square"):
            return w
        x, y = w.real, w.imag
        if label == "q-band":
            s = 1.0 if y >= 0 else -1.0
            ay = abs(y)
            return complex(x, s * ((1.0 - x) * self.g_axis(ay) + x * ay))
        if w == 0:
            return 0j
        return w * abs(w) ** (self.gamma - 1.0)

    def q_wirtinger(self, w: complex) -> tuple[complex, complex]:
        label = self.q_label(w)
        if label in ("q-identity", "q-square"):
            return 1.0 + 0j, 0j
        x, y = w.real, w.imag
        if label == "q-band":
            s = 1.0 if y >= 0 else -1.0
            ay = abs(y)
            gv, gp = self._g(ay)
            qw = complex(0.5 * (1.0 + (1.0 - x) * gp + x), 0.5 * s * (ay - gv))
            qwb = complex(0.5 * (1.0 - (1.0 - x) * gp - x), 0.5 * s * (ay - gv))
            return qw, qwb
        r = abs(w)
        qw = complex(r ** (self.gamma - 1.0) * (self.gamma + 1.0) / 2.0, 0.0)
        qwb = 0.5 * (self.gamma - 1.0) * r ** (self.gamma - 3.0) * w * w
        return qw, qwb

    # -- wedge coordinates -------------------------------------------------
    def _right(self, z: complex) -> bool:
        return abs(math.atan2(z.imag, z.real)) <= self.ray

    def _w(self, z: complex) -> complex:
        return cmath.exp(self.rho * cmath.log(z))

    def _v(self, z: complex) -> complex:
        return -cmath.exp(self.sigma * cmath.log(-z))

    def _sys_value(self, table, q: complex) -> ScaledComplex:
        return table["up" if q.imag >= 0 else "lo"].eval_xy(q.real, q.imag)

    def _locate(self, z: complex) -> tuple:
        """(w, q-label, q, system, strip, t) of z != 0.

        The right wedge reads U at q = Q(w), w = z^rho; the left wedge reads
        V at q = -(-z)^sigma and has no w or q-label (None).  Below the real
        axis the system reads the mirror image of q.
        """
        if self._right(z):
            w = self._w(z)
            qlab = self.q_label(w)
            q = w if qlab in self._Q_CONFORMAL else self.q_value(w)
            table = self.U
        else:
            w = qlab = None
            q = self._v(z)
            table = self.V
        sys = table["up" if q.imag >= 0 else "lo"]
        return (w, qlab, q, sys, *sys.locate(abs(q.imag)))

    def eval(self, z: complex) -> ScaledComplex:
        z = complex(z)
        if z == 0:
            return self._sys_value(self.U, 0j)
        _, _, q, sys, s, t = self._locate(z)
        v = sys.value(s, q.real, t)
        return v if q.imag >= 0 else v.conj()

    def mu_parts(self, z: complex, quad: bool = False):
        z = complex(z)
        if z == 0:
            return 0j, 0j, 0.0, 0.0, None, None
        w, _, q, sys, s, t = self._locate(z)
        mu, mu_band, a, b, dpsi, gap = sys.mu_parts(s, q.real, t, quad, q.imag < 0)
        if w is not None:  # compose with Q, then twist by z^rho
            qw, qwb = self.q_wirtinger(w)
            den = qw + mu * qwb.conjugate()
            mu = complex("nan") if den == 0 else (qwb + mu * qw.conjugate()) / den
            dp = self.rho * cmath.exp((self.rho - 1.0) * cmath.log(z))
        else:
            dp = self.sigma * cmath.exp((self.sigma - 1.0) * cmath.log(-z))
        return mu * dp.conjugate() / dp, mu_band, a, b, dpsi, gap

    def _conformal(self, qlab: Optional[str], s: _Strip) -> bool:
        return (not s.active) and (qlab is None or qlab in self._Q_CONFORMAL)

    def classify(self, z: complex) -> PieceInfo:
        z = complex(z)
        if z == 0:
            return PieceInfo(label="origin", region="power-right", pair=PairIndex(0, 0),
                             variant=PLAIN, conformal=False, seam_distance=0.0)
        loc = self._locate(z)
        w, qlab, _, _, s, t = loc
        return PieceInfo(
            label=f"V{s.k}" if w is None else f"U{s.k}|{qlab}",
            region="power-left" if w is None else "power-right",
            pair=s.pair, variant=s.variant, k=s.k, t=t,
            x_div=s.x_div, y_div=s.y_div, band=s.psi is not None,
            conformal=self._conformal(qlab, s),
            seam_distance=self._seam_distance(z, loc),
        )

    def cell_states(self, zc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        locs = [self._locate(z) for z in zc.tolist()]  # the midpoints are nonzero
        labels = [f"V{s.k}" if w is None else qlab for w, qlab, _, _, s, _ in locs]
        conformal = [self._conformal(qlab, s) for _, qlab, _, _, s, _ in locs]
        return np.array(labels, dtype=object), np.array(conformal, bool), np.zeros(len(zc), bool)

    def fine_size(self, r_max: float) -> float:
        spacing = TWO_PI * r_max ** (1.0 - self.rho) / self.rho
        return min(TWO_PI, spacing) / 8.0

    def theta_windows(self, _r0: float, _r1: float) -> list[tuple[float, float]]:
        return [(-math.pi, math.pi)]

    def straddle_mask(self, r_max: float):
        """Corner test: the rays, the circle |z| = 1 in the right wedge, and the
        strip seams at the height |Im q| of the point q that the system reads."""
        top = r_max ** self.rho  # |w| <= top, so |Im Q(w)| <= max(top, g(top))
        seams_u = np.array(_seam_heights(self.U.values(), max(top, self.g_axis(top))) + [math.inf])
        seams_v = np.array(_seam_heights(self.V.values(), r_max ** self.sigma) + [math.inf])

        def nodes(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            locs = [self._locate(zn) for zn in z.tolist()]
            return (np.array([w is not None for w, *_ in locs], bool),
                    np.array([abs(q.imag) for _, _, q, *_ in locs]))

        def test(z0, z1) -> np.ndarray:
            (right0, hq0), (right1, hq1) = nodes(z0), nodes(z1)
            right, any_right = _cell_range(right0, right1)
            lo, hi = _cell_range(hq0, hq1)
            next_seam = np.where(right, seams_u[np.searchsorted(seams_u, lo, side="right")],
                                 seams_v[np.searchsorted(seams_v, lo, side="right")])
            r_lo, r_hi = _cell_range(np.hypot(z0.real, z0.imag), np.hypot(z1.real, z1.imag))
            return (right != any_right) | (right & (r_lo < 1.0) & (1.0 < r_hi)) | (next_seam < hi)

        return test

    def _seam_distance(self, z: complex, loc: tuple) -> float:
        w, qlab, q, sys, s, _ = loc
        th = math.atan2(z.imag, z.real)
        d = abs(z) * min(abs(th - self.ray), abs(th + self.ray))
        if w is None:
            scale = self.sigma * abs(z) ** (self.sigma - 1.0)
        else:
            scale = self.rho * abs(z) ** (self.rho - 1.0)
            if qlab != "q-identity":
                d = min(d, abs(abs(w) - 1.0) / max(scale, 1e-300))
        return min(d, sys.seam_distance(s, q.real, abs(q.imag)) / max(scale, 1e-300))

    def seam_residuals(self, samples: int = 64, strips: int = 4) -> list[SeamCheck]:
        checks = []
        # imaginary-axis identity U(i g(y)) = V(i y^gamma)
        checks.append(_sweep("axis-identity", [complex(0.0, y) for y in np.linspace(0.37, 9.11, 32)],
                             lambda p: _log_gap(self._sys_value(self.U, complex(0.0, self.g_axis(p.imag))),
                                                self._sys_value(self.V, complex(0.0, p.imag ** self.gamma)))))
        # the glued rays
        for sgn, name in ((1.0, "ray+"), (-1.0, "ray-")):
            checks.append(_sweep(name, [r * cmath.exp(1j * sgn * self.ray)
                                        for r in np.linspace(1.1, 7.3, samples).tolist()],
                                 lambda zr: _log_gap(self._sys_value(self.U, self.q_value(self._w(zr))),
                                                     self._sys_value(self.V, self._v(zr)))))
        # strip seams of both wedge systems
        xs_r = np.linspace(0.5, 6.0, samples)
        xs_l = np.linspace(-40.0, -0.5, samples)
        for table, xs, tag in ((self.U, xs_r, "U"), (self.V, xs_l, "V")):
            for key in ("up", "lo"):
                checks += table[key].seam_checks(xs, strips, 200, lambda k, key=key: f"{tag}:{key}:{k}|{k+1}")
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

    State built on first use is guarded where it lives: strip records by
    the ``_StripSystem`` lock, Hermite tables by the ``_PsiCache`` lock,
    slopes by the ``SlopeSequence`` lock and mpmath's process-wide precision
    by ``specfun._MP_LOCK``.  A ``PhiSolver`` warm start needs no lock: it is
    one immutable pair, and a seed that does not converge falls back to the
    bracketed solve.

    Calling the map returns a :class:`~banklaine.scaledcx.ScaledComplex`
    (poles are tagged, not raised).  Points whose chart coordinate exceeds
    the double-exponential overflow horizon raise
    :class:`~banklaine.specfun.EvalDomainError`; sector assemblies raise
    :class:`UninterpolatedRegion` inside |Im z^n| <= 2 pi.
    """

    flavor: str
    params: tuple[tuple[str, object], ...]
    _impl: object = field(repr=False, compare=False)

    def __call__(self, z: complex) -> ScaledComplex:
        return self._impl.eval(complex(z))

    def classify(self, z: complex) -> PieceInfo:
        return self._impl.classify(complex(z))

    def seam_residuals(self, samples: int = 64, **kw) -> list[SeamCheck]:
        """Log-space residual sweeps across every declared seam."""
        return self._impl.seam_residuals(samples, **kw)

    @property
    def params_dict(self) -> dict:
        return dict(self.params)

    def to_dict(self) -> dict:
        d = {"flavor": self.flavor, "params": self.params_dict}
        d.update(self._impl.to_dict())
        return d

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


def _whole(name: str, value) -> int:
    """``value`` as an int: ints and whole floats such as 3.0 pass, 2.7 raises."""
    if isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer()):
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def _as_pair(value) -> PairIndex:
    if isinstance(value, PairIndex):
        return value
    m, n = value
    return PairIndex(_whole("m", m), _whole("n", n))


def assemble(flavor: str, params: Optional[dict] = None, **kw) -> GluedMap:
    """Build a glued map.

    Parameters by flavor:

    - ``spiral``: ``lower=(m1, n1)``, ``upper=(m2, n2)``
    - ``strips``: ``lam1``, ``lam2`` in [0, 1], optional ``sectors=n``
    - ``mixed``: ``lam1``, ``lam2``
    - ``power``: ``rho`` in (1/2, 1), ``delta``; optional ``gamma``/``sigma``
      are cross-checked exactly against 1/(2 rho - 1) and rho/(2 rho - 1)
    """
    opts = dict(params or {})
    opts.update(kw)
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
        gamma = opts.pop("gamma", None)
        sigma = opts.pop("sigma", None)
        _no_extras(flavor, opts)
        eng = _PowerEngine(rho, delta, gamma, sigma)
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

    ``strip_sums`` aggregates by gluing strip, ``shell_sums`` by radial
    shell and ``shell_strip_sums`` by (shell index, strip); ``cumulative``
    runs over the shells, whose increments serve as the Cauchy tail
    diagnostic.  The four cell counts say how each cell was handled:
    conformal cells are classified analytically and skipped, and only the
    evaluated ones contribute.
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


def _merge_intervals(spans: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out = _merged(((max(lo, -math.pi), min(hi, math.pi)) for lo, hi in spans if hi > lo), 1e-12)
    return [(lo, hi) for lo, hi in out if hi > lo]


# nodes per engine call: 8192 adds under 3% to peak RSS, 32,768 adds 18% (7 MiB on spiral 1..200)
BLOCK_CELLS = 8192


def dilatation_integral(gmap: GluedMap, r_min: float, r_max: float,
                        resolution: Optional[float] = None) -> DilatationReport:
    """Midpoint quadrature of (K_G - 1)/|z|^2 over r_min < |z| < r_max.

    ``resolution`` is the cell size: None takes an eighth of the thinnest
    gluing strip, a positive float sets it directly.  Cells have that size
    inside the active windows and a coarser arc outside them.  Grids whose
    seam-straddling cells exceed 20% of the annulus area raise
    :class:`ResolutionError`.

    Consecutive radial shells form blocks of at most ``BLOCK_CELLS`` nodes,
    each classified as numpy arrays by one straddle test and one ``cell_states``
    call; one ``mu_abs_quad`` call gives |mu| on its cells that are not skipped
    and straddle or are not conformal.  Cells keep their order, shell by shell.
    """
    if not (0 < r_min < r_max):
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
    straddled = evaluated = conformal = skipped = 0
    contribs: dict = {}  # (shell index, strip label) -> array of cell contributions
    shell_sums = np.zeros(n_r)

    def blocks():
        """Consecutive shells' arc pieces (shell, start, step, nodes, cell area), coarse gaps and fine windows."""
        block: list = []
        for i in range(n_r):
            r0, r1 = float(edges[i]), float(edges[i + 1])
            rc, cursor, pieces = 0.5 * (r0 + r1), -math.pi, []
            for lo, hi in _merge_intervals(eng.theta_windows(r0, r1)) + [(math.pi, math.pi)]:
                for a, b, target in ((cursor, lo, coarse_arc), (lo, hi, fine)):
                    if b > a:
                        m = max(1, int(math.ceil((b - a) * rc / target)))
                        dth = (b - a) / m
                        pieces.append((i, a, dth, m + 1, 0.5 * (r1 * r1 - r0 * r0) * dth))
                cursor = max(cursor, hi)
            if block and sum(p[3] for p in block + pieces) > BLOCK_CELLS:
                yield block
                block = []
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
        labels, conf, uninterp = eng.cell_states(zc)
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
        ids, at = np.unique(shell[todo], return_index=True)  # a shell's cells are consecutive
        for i, c in zip(ids.tolist(), np.split(contrib, at[1:])):
            shell_sums[i] = math.fsum(c.tolist())  # exactly rounded: any grouping gives these bits
        # (shell, label) groups by one stable sort of an integer key, keys in first-appearance order
        index: dict = {}
        code = np.array([index.setdefault(lab, len(index)) for lab in labels[todo].tolist()], int)
        key = shell[todo] * len(index) + code
        order = np.argsort(key, kind="stable")
        starts = np.flatnonzero(np.diff(key[order], prepend=-1))
        groups, heads, names = np.split(contrib[order], starts[1:]), order[starts], list(index)
        for g in np.argsort(heads).tolist():
            i, lab = divmod(int(key[heads[g]]), len(names))
            contribs[(i, names[lab])] = groups[g]

    straddle_fraction = straddle_area / annulus_area
    if straddle_fraction > 0.20:
        raise ResolutionError(
            f"straddling cells cover {straddle_fraction:.1%} of the annulus; "
            "refine the grid (>20% is past the reliability cutoff)")

    by_strip: dict = {}
    for (_, label), vals in contribs.items():
        by_strip.setdefault(label, []).append(vals)
    return DilatationReport(
        flavor=gmap.flavor, r_min=r_min, r_max=r_max,
        total=math.fsum(shell_sums.tolist()),
        strip_sums={label: math.fsum(np.concatenate(vs).tolist()) for label, vs in by_strip.items()},
        shell_edges=edges, shell_sums=shell_sums,
        cumulative=np.cumsum(shell_sums),
        straddle_fraction=straddle_fraction,
        straddled_cells=straddled, evaluated_cells=evaluated,
        conformal_cells=conformal, skipped_cells=skipped,
        shell_strip_sums={k: math.fsum(v.tolist()) for k, v in contribs.items()},
    )
