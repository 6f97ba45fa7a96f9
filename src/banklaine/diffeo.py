"""Conjugating diffeomorphisms between model functions: shifts, phi, psi, fixed points.

The central equation is g_dst(x) = (g_src o phi)(x) on the real axis, solved
in F(u) = log(g(u) - 1) coordinates.  specfun sums g - 1 there as a series of
positive terms, so F keeps its relative precision on the whole line, and
F' >= 2n + 1 runs from N at -infinity to e^u at +infinity, so Newton steps
stay well-scaled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .specfun import (
    HALF,
    LOG2,
    PLAIN,
    PairIndex,
    _gap_shift,
    _real_gap,
    build_coefficients,
    real_log_value,
    real_log_value_slope,
)


def _log_intercept(pair: PairIndex, variant: str) -> float:
    """log(binom(m+2n, m) N!), plus log 2 for the half variant.

    F(x) = N x - _log_intercept(pair, variant) + o(1) as x -> -infinity.
    """
    return build_coefficients(pair).log_intercept + _gap_shift(variant)


def closed_form_c(
    src: PairIndex, dst: PairIndex, variant_src: str = PLAIN, variant_dst: str = PLAIN
) -> float:
    """Limit constant c with phi(x) = kappa*x + c + o(1) as x -> -infinity.

    c = (1/N)[log(binom(m+2n,m) N!) - log(binom(m'+2n',m') M!)] for src
    (m, n) and dst (m', n'), with a -+ log 2 correction when either side is
    half-shifted.
    """
    return (_log_intercept(src, variant_src) - _log_intercept(dst, variant_dst)) / src.N


@dataclass(frozen=True)
class DiffeoSpec:
    """A pair of (model, variant) endpoints and the asymptotic constants tied to them."""

    src: PairIndex
    dst: PairIndex
    variant_src: str = PLAIN
    variant_dst: str = PLAIN

    def __post_init__(self):
        for variant in (self.variant_src, self.variant_dst):
            _gap_shift(variant)  # an unknown variant raises

    @property
    def kappa(self) -> float:
        return self.dst.N / self.src.N

    @property
    def c(self) -> float:
        return closed_form_c(self.src, self.dst, self.variant_src, self.variant_dst)

    @property
    def delta(self) -> float:
        return 0.5 * min(1.0, self.kappa)

    @property
    def is_identity(self) -> bool:
        return self.src == self.dst and self.variant_src == self.variant_dst


@dataclass(frozen=True)
class ShiftConstant:
    pair: PairIndex
    variant: str
    value: float
    residual: float
    iterations: int


_NEWTON_WIDTH = 1e-3  # _bisect_newton bisects down to this bracket width, then runs Newton
_STEP_CAP = 200  # bracket expansions, bisections and Newton steps of one _bisect_newton call
_FIXED_POINT_CAP = 200  # max(N, M) up to which find_fixed_points' coefficients stay below 1e258 (1e308 near 238)


def _bisect_newton(
    fdf: Callable[[float], tuple[float, float]], lo: float, hi: float, tol: float = 1e-13
) -> tuple[float, float, int]:
    """Monotone-increasing root find of f, fdf(x) = (f(x), f'(x)): bisection then Newton.

    Returns (root, |f(root)|, iterations).  Newton steps that escape the
    bracket fall back to bisection, so convergence is unconditional.
    """
    flo, fhi = fdf(lo)[0], fdf(hi)[0]
    it = 0
    while flo > 0 or fhi < 0:
        # expand the bracket; callers pass generous guesses so this is rare
        width = hi - lo
        if flo > 0:
            lo -= width
            flo = fdf(lo)[0]
        if fhi < 0:
            hi += width
            fhi = fdf(hi)[0]
        it += 1
        if it > 120:
            raise RuntimeError("bracketing failure (should not happen for homeomorphisms)")
    while hi - lo > _NEWTON_WIDTH and it < _STEP_CAP:
        mid = 0.5 * (lo + hi)
        if fdf(mid)[0] < 0:
            lo = mid
        else:
            hi = mid
        it += 1
    x = 0.5 * (lo + hi)
    fx, d = fdf(x)
    while abs(fx) > tol and it < _STEP_CAP:
        step = fx / d if d > 0 else math.copysign(_NEWTON_WIDTH, fx)
        xn = x - step
        if not (lo <= xn <= hi):
            # Newton escaped; shrink the bracket by bisection instead
            if fx < 0:
                lo = x
            else:
                hi = x
            xn = 0.5 * (lo + hi)
        x = xn
        fx, d = fdf(x)
        it += 1
    return x, abs(fx), it


@lru_cache(maxsize=None)
def solve_shift(pair: PairIndex, variant: str = PLAIN) -> ShiftConstant:
    """The normalization shift s with g(s) = 2 (plain) or (g(s)+1)/2 = 2 (half); cached per model."""

    def fdf(s: float) -> tuple[float, float]:
        v, dv = real_log_value_slope(pair, s, variant)
        return v - LOG2, dv

    guess = math.log(pair.N) - 1.0
    s, res, it = _bisect_newton(fdf, guess - 3.0, guess + 3.0)
    return ShiftConstant(pair, variant, s, res, it)


class PhiSolver:
    """Evaluator of the conjugating diffeomorphism for one DiffeoSpec.

    solve(x) gives (phi(x), phi'(x)): it solves F_src(phi) = F_dst(x) to
    1e-13 in F-space by Newton from the closed-form asymptotic guess
    ``_guess``, with a bracketed bisection around that guess where Newton
    does not converge, and phi' = F_dst'(x)/F_src'(phi).  ``value`` and
    ``deriv`` read it.  The public conjugacy residual
    |log g_dst(x) - log g_src(phi(x))| is never larger than the F-space one.

    A solver keeps no state, so phi(x) depends on x alone and threads may
    share one without a lock.  F comes from ``specfun._real_gap``, whose memo
    every solver shares.  The two models are resolved once, in ``_src`` and
    ``_dst``: (pair, log 2 for the half variant, else 0.0), so a lookup is
    one memo read and one subtraction.
    """

    def __init__(self, spec: DiffeoSpec):
        self.spec = spec
        self._src = (spec.src, _gap_shift(spec.variant_src))
        self._dst = (spec.dst, _gap_shift(spec.variant_dst))

    def _slope(self, model: tuple[PairIndex, float], u: float) -> tuple[float, float]:
        """(F, F') of ``model`` (``_src`` or ``_dst``) at u, as ``real_log_gap_slope`` gives them."""
        f, df = _real_gap(model[0], float(u))
        return f - model[1], df

    def _f_src(self, u: float) -> tuple[float, float]:
        return self._slope(self._src, u)

    def _guess(self, v: float) -> float:
        # invert the two asymptotic regimes of F_src
        if v > 3.0:
            return math.log(v)
        return (v + _log_intercept(self.spec.src, self.spec.variant_src)) / self.spec.src.N

    def _polish(self, u: float, fdf) -> float:
        # Newton with a step-size stop: |step| ~ |u - u_true|, which stays
        # meaningful even where F itself is ~1e17 and ulp-limited.  A running
        # bracket around the (unique, F increasing) root absorbs bad steps.
        lo, hi = -math.inf, math.inf
        for _ in range(30):
            fu, d = fdf(u)
            if fu < 0:
                lo = max(lo, u)
            else:
                hi = min(hi, u)
            if d <= 0:
                break
            step = fu / d
            if abs(step) < 1e-13 * max(1.0, abs(u)):
                # sub-tolerance correction: apply it raw.  The bracket is
                # ulp-tight here and its midpoint fallback would kick the
                # iterate back off the root by the stale bracket width.
                return u - step
            un = u - step
            if not (lo < un < hi):
                if math.isfinite(lo) and math.isfinite(hi):
                    un = 0.5 * (lo + hi)
                else:
                    un = min(max(un, u - 2.0), u + 2.0)
            u = un
        return u

    def value(self, x: float) -> float:
        return self.solve(x)[0]

    def deriv(self, x: float) -> float:
        return self.solve(x)[1]

    def solve(self, x: float) -> tuple[float, float]:
        """(phi(x), phi'(x)) from Newton at the guess, bracketed around it where that does not converge."""
        if self.spec.is_identity or x > 64.0:
            # phi(x) - x ~ x e^{-x} past 64, far below one ulp of x itself, and
            # the double-exponential F would overflow long before 709 anyway
            return x, 1.0
        v, d_dst = self._slope(self._dst, x)

        def fdf(u: float) -> tuple[float, float]:
            fu, du = self._f_src(u)  # the memo repeats bisection's last point for polish, and polish's for the check
            return fu - v, du

        g = self._guess(v)
        u = self._polish(g, fdf)
        fu, du = fdf(u)
        if abs(fu) >= 1e-10 * max(1.0, abs(v)):  # Newton from the guess did not converge
            u = self._polish(_bisect_newton(fdf, g - 2.0, g + 2.0, tol=1e-13 * max(1.0, abs(v)))[0], fdf)
            du = fdf(u)[1]
        return u, d_dst / du

    def conjugacy_residual(self, x: float) -> float:
        """|log g_dst(x) - log g_src(phi(x))| / max(1, |log g_dst(x)|).

        The max(1, .) guard makes this absolute near the axis crossing and
        relative in the double-exponential regime, where an absolute target
        is below one ulp of log g itself.
        """
        if self.spec.is_identity:
            return 0.0
        p = self.value(x)
        lhs = real_log_value(self.spec.dst, x, self.spec.variant_dst)
        rhs = real_log_value(self.spec.src, p, self.spec.variant_src)
        return abs(lhs - rhs) / max(1.0, abs(lhs))


def _ols_line(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    A = np.column_stack([xs, np.ones_like(xs)])
    sol, *_ = np.linalg.lstsq(A, ys, rcond=None)
    return float(sol[0]), float(sol[1])


@dataclass
class AsymptoticReport:
    spec: DiffeoSpec
    tag: str                      # "exact" for identity specs, else "fitted"
    decay_slope: Optional[float]  # slope of log|phi-x| vs x on the right window
    decay_intercept: Optional[float]
    kappa_hat: Optional[float]
    c_hat: Optional[float]
    deriv_right: Optional[float]  # phi' at the right end of the grid, from PhiSolver.deriv
    deriv_left: Optional[float]   # phi' at the left end, likewise
    residual_max: float
    n_right: int = 0
    n_left: int = 0

    def to_dict(self) -> dict:
        d = {
            "src": str(self.spec.src),
            "dst": str(self.spec.dst),
            "variant_src": self.spec.variant_src,
            "variant_dst": self.spec.variant_dst,
            "kappa": self.spec.kappa,
            "c": self.spec.c,
            "tag": self.tag,
            "residual_max": self.residual_max,
        }
        for k in ("decay_slope", "decay_intercept", "kappa_hat", "c_hat",
                  "deriv_right", "deriv_left", "n_right", "n_left"):
            d[k] = getattr(self, k)
        return d


def asymptotic_report(spec: DiffeoSpec, grid: Sequence[float]) -> AsymptoticReport:
    """Fit the two asymptotic regimes of phi over the given grid.

    Right side, x >= 5: OLS of log|phi(x)-x| against x (decay exponent).
    Left side, x <= -15: OLS of phi(x) against x giving (kappa_hat, c_hat).
    Deviations below 1e-13 are machine noise and are discarded before
    fitting.  The left window ends at -15 because the O(e^{delta x})
    remainder is still ~1e-4 at x=-5 and would contaminate a 1e-4
    acceptance band on c_hat.  The slopes at the grid ends are the closed
    form phi' = F_dst'/F_src'(phi) of ``PhiSolver.deriv``.
    """
    xs = np.asarray(sorted(grid), dtype=float)
    if spec.is_identity:
        return AsymptoticReport(spec, "exact", None, None, None, None, 1.0, 1.0, 0.0)
    solver = PhiSolver(spec)
    phis = np.array([solver.value(x) for x in xs])
    residual_max = max(solver.conjugacy_residual(x) for x in xs[:: max(1, len(xs) // 32)])

    dev = np.abs(phis - xs)
    rmask = (xs >= 5.0) & (dev > 1e-13)
    n_right = int(np.sum(rmask))
    if n_right < 8:
        raise ValueError(f"degenerate right fit: only {n_right} usable points")
    dslope, dint = _ols_line(xs[rmask], np.log(dev[rmask]))

    lmask = xs <= -15.0
    n_left = int(np.sum(lmask))
    if n_left < 8:
        raise ValueError(f"degenerate left fit: only {n_left} usable points")
    khat, chat = _ols_line(xs[lmask], phis[lmask])

    dr, dl = solver.deriv(float(xs[-1])), solver.deriv(float(xs[0]))
    return AsymptoticReport(
        spec, "fitted", dslope, dint, khat, chat, dr, dl, residual_max, n_right, n_left
    )


@dataclass
class PsiMap:
    """Strip-boundary interpolation map psi(x) = out*(phi(x/inn + s_dst) - s_src); ``solve`` gives (psi, psi')."""

    spec: DiffeoSpec
    s_src: float
    s_dst: float
    scale_in: float
    scale_out: float
    solver: PhiSolver = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.solver is None:
            self.solver = PhiSolver(self.spec)

    @property
    def exact_identity(self) -> bool:
        return self.spec.is_identity and self.scale_in == self.scale_out

    def __call__(self, x: float) -> float:
        return self.solve(x)[0]

    def deriv(self, x: float) -> float:
        return self.solve(x)[1]

    def solve(self, x: float) -> tuple[float, float]:
        """(psi(x), psi'(x)) from one stateless ``PhiSolver.solve``: a function of x alone."""
        if self.exact_identity:
            return x, 1.0
        p, d = self.solver.solve(x / self.scale_in + self.s_dst)
        return self.scale_out * (p - self.s_src), (self.scale_out / self.scale_in) * d


RIGHT = "right-halfplane"
LEFT = "left-halfplane"


def psi_link(model: tuple[PairIndex, str], model1: tuple[PairIndex, str], side: str, l: int) -> PsiMap:
    """The psi from the (pair, variant) of strip k to that of strip k+1 on one side.

    The right side uses horizontal scale l on both ends; the left side reads
    in x/N_{k+1} and writes out N_k, matching the strip heights it
    interpolates between.  ``scale_out`` and ``s_src`` are strip k's x_div
    and shift; psi(0) = 0 because phi maps the dst shift to the src shift.
    """
    (pair, variant), (pair1, variant1) = model, model1
    inn, out = (float(l), float(l)) if side == RIGHT else (float(pair1.N), float(pair.N))
    return PsiMap(DiffeoSpec(pair, pair1, variant, variant1),
                  solve_shift(pair, variant).value, solve_shift(pair1, variant1).value, inn, out)


def build_psi(chain: Sequence[tuple[PairIndex, str]], side: str, l: int = 1) -> list[PsiMap]:
    """One ``psi_link`` per consecutive chain link (k -> k+1)."""
    if side not in (RIGHT, LEFT):
        raise ValueError(f"side must be {RIGHT!r} or {LEFT!r}")
    if l < 1:
        raise ValueError("l must be a positive integer")
    return [psi_link(a, b, side, l) for a, b in zip(chain, chain[1:])]


@dataclass
class FixedPointReport:
    spec: DiffeoSpec
    tag: str  # "identity" or "closed-form"
    points: list[float]
    cuts: list[float]  # where D was read: the window ends and the cuts between them


def find_fixed_points(spec: DiffeoSpec) -> FixedPointReport:
    """The fixed points of phi in [-5, 2 log max(N,M) + 10], the window of every one the fixed-point dichotomy allows.

    phi(x) - x has the sign of D = F_dst - F_src: at w = e^x, of e^w A - c B with g = e^w P/Q, c = a_src - a_dst (a = 1
    plain, 2 half), the exact A = a_src P_dst Q_src - a_dst P_src Q_dst (less w^k, k > 0 only where c = A(0) = 0) and
    B = Q_dst Q_src.  In u = w/s it turns at most once between the positive real parts of the roots of A' and of
    s A B + A' B - A B' (s A B times (w + log|A/B|)'); D is read there, and ``_bisect_newton`` solves each change.
    """
    if spec.is_identity:
        return FixedPointReport(spec, "identity", [], [])
    s = max(spec.src.N, spec.dst.N)  # P and Q have roots at |w| ~ N: in u their coefficients keep to float range
    if s > _FIXED_POINT_CAP:
        raise NotImplementedError(f"fixed points capped at max(N, M) = {_FIXED_POINT_CAP}, got {s}")
    p_src, q_src, p_dst, q_dst = (np.array([c * s**k for k, c in enumerate(cs)][::-1], dtype=object)
                                  for t in map(build_coefficients, (spec.src, spec.dst)) for cs in (t.numer, t.denom))
    a_src, a_dst = (2 if v == HALF else 1 for v in (spec.variant_src, spec.variant_dst))
    A = np.trim_zeros(np.polysub(a_src * np.polymul(p_dst, q_src), a_dst * np.polymul(p_src, q_dst)), "b")
    B, dA = np.polymul(q_dst, q_src), np.polyder(A)
    C = np.polysub(np.polymul(np.polyadd(s * A, dA), B), np.polymul(A, np.polyder(B)))
    roots = np.concatenate([np.roots(poly.astype(float)) for poly in (dA, C)]).real
    lo, hi = -5.0, 2.0 * math.log(s) + 10.0
    xs = np.unique(np.r_[lo, np.log(s * roots[roots > 0]).clip(lo, hi), hi]).tolist()
    solver = PhiSolver(spec)

    def gap(x: float, sign: float = 1.0) -> tuple[float, float]:
        """sign (D, D') / max(1, |F_dst|) at x: the scale makes ``_bisect_newton``'s tolerance relative to F."""
        (fd, dd), (fs, ds) = solver._slope(solver._dst, x), solver._slope(solver._src, x)
        scale = sign / max(1.0, abs(fd))
        return scale * (fd - fs), scale * (dd - ds)

    gaps = [gap(x)[0] for x in xs]
    points: list[float] = []
    for x_prev, x, d_prev, d in zip(xs, xs[1:], gaps, gaps[1:]):
        if d_prev == 0.0:
            points.append(x_prev)
        elif d_prev * d < 0:  # sign = -1 turns a falling crossing into a rising one
            fdf = partial(gap, sign=math.copysign(1.0, d))
            p = solver._polish(_bisect_newton(fdf, x_prev, x)[0], fdf)  # the polish stops on the step, not on D
            if abs(solver.value(p) - p) < 1e-10:
                points.append(p)
    return FixedPointReport(spec, "closed-form", points, xs)


def r0_constant() -> float:
    """The unique real root of e^r + r + 1 = 0."""
    return _bisect_newton(lambda r: (math.exp(r) + r + 1.0, math.exp(r) + 1.0), -2.0, -1.0)[0]
