"""Model meromorphic functions g(z) = R(e^z) * exp(e^z) and their calculus.

The rational factor R = P/Q is indexed by a pair (m, n): Q has degree m with
positive factorial-ratio coefficients, P has degree 2n with alternating ones.
Both model families used downstream (plain and half-shifted) evaluate through
the log-polar ScaledComplex type, so moduli like exp(exp(40)) stay exact in
log space and phases stay exact on the real axis.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lgamma
from threading import Lock
from typing import Callable, Optional, Sequence

import mpmath as mp
import numpy as np

from . import contour
from .scaledcx import ScaledComplex

TWO_PI = 2.0 * math.pi
LOG2 = math.log(2.0)

PAIR_CAP = 10_000
_MP_LOCK = Lock()  # mpmath's working precision is one process-wide setting
SINGULAR_TOL = 1e-13  # Newton distance |T/(dT/dz)| below this => root hit (zero/pole)
CANCEL_TOL = 1e-4     # |T|/max-term below this => redo the sum at high precision

PLAIN = "plain"
HALF = "half"
VARIANTS = (PLAIN, HALF)


class EvalDomainError(ValueError):
    """Evaluation requested outside the representable domain."""


@dataclass(frozen=True, order=True)
class PairIndex:
    """Index (m, n) of a model function; N = m + 2n + 1 is its left slope."""

    m: int
    n: int

    def __post_init__(self):
        for v, name in ((self.m, "m"), (self.n, "n")):
            if not isinstance(v, int) or v < 0 or v > PAIR_CAP:
                raise ValueError(f"{name} must be an integer in [0, {PAIR_CAP}], got {v!r}")

    @property
    def N(self) -> int:
        return self.m + 2 * self.n + 1

    def __str__(self) -> str:
        return f"({self.m},{self.n})"


@dataclass(frozen=True)
class CoefficientTable:
    """Coefficients of P (numerator, degree 2n) and Q (denominator, degree m).

    The exact Fractions ``numer``/``denom`` are the one source of the
    coefficients: the mpmath fallback sum and the root registries read them.
    The log-magnitude mirrors feed the double log-sum evaluation path.
    ``log_intercept`` = log(binom(m+2n, m) N!) = -log c_N, with c_N w^N the
    first term of g - 1, so F(x) = log(g(x) - 1) = N x - log_intercept + o(1)
    as x -> -infinity.  ``lead_zero`` is log_intercept/N as a sum hi + lo of
    two doubles: N((x - hi) - lo) keeps its digits where N x and
    log_intercept cancel.
    """

    pair: PairIndex
    log_abs_numer: np.ndarray = field(repr=False)
    log_abs_denom: np.ndarray = field(repr=False)
    log_intercept: float = 0.0
    lead_zero: tuple[float, float] = (0.0, 0.0)

    @cached_property
    def numer(self) -> tuple[Fraction, ...]:
        m, n2 = self.pair.m, 2 * self.pair.n
        top = math.factorial(m + n2)
        return tuple(
            Fraction(
                (-1) ** j * math.factorial(n2) * math.factorial(m + n2 - j),
                math.factorial(j) * math.factorial(n2 - j) * top,
            )
            for j in range(n2 + 1)
        )

    @cached_property
    def denom(self) -> tuple[Fraction, ...]:
        m, n2 = self.pair.m, 2 * self.pair.n
        top = math.factorial(m + n2)
        return tuple(
            Fraction(
                math.factorial(m) * math.factorial(m + n2 - i),
                math.factorial(i) * math.factorial(m - i) * top,
            )
            for i in range(m + 1)
        )

    @property
    def identity_product(self) -> Fraction:
        """Exact product |A_m * B_{2n}| of the two extreme coefficients."""
        return self.denom[-1] * abs(self.numer[-1])

    @property
    def identity_expected(self) -> Fraction:
        m, n = self.pair.m, self.pair.n
        s = math.factorial(m + 2 * n)
        return Fraction(math.factorial(m) * math.factorial(2 * n), s * s)

    def identity_holds(self) -> bool:
        """Exact check of A_m * B_{2n} = m!(2n)!/((m+2n)!)^2 in big rationals."""
        return self.identity_product == self.identity_expected


@lru_cache(maxsize=256)
def build_coefficients(pair: PairIndex) -> CoefficientTable:
    """Coefficient table for the pair, with log-magnitudes built from lgamma.

    The values solve the two-term recursions forced by the underlying linear
    ODE:  A_i = m!(m+2n-i)!/(i!(m-i)!(m+2n)!)  and
    B_j = (-1)^j (2n)!(m+2n-j)!/(j!(2n-j)!(m+2n)!).  For m = 0 the numerator
    is the truncated series of exp(-w).  ``log_intercept`` is the logarithm
    of the exact integer binom(m+2n, m) N!, taken to 40 digits.
    """
    m, n2 = pair.m, 2 * pair.n
    lg_top = lgamma(m + n2 + 1)
    log_num = np.array(
        [
            lgamma(n2 + 1) + lgamma(m + n2 - j + 1) - lgamma(j + 1) - lgamma(n2 - j + 1) - lg_top
            for j in range(n2 + 1)
        ]
    )
    log_den = np.array(
        [
            lgamma(m + 1) + lgamma(m + n2 - i + 1) - lgamma(i + 1) - lgamma(m - i + 1) - lg_top
            for i in range(m + 1)
        ]
    )
    with localcontext() as ctx:
        ctx.prec = 40
        log_c = Decimal(math.comb(m + n2, m) * math.factorial(pair.N)).ln()
        hi = float(log_c / pair.N)
        lead_zero = (hi, float(log_c / pair.N - Decimal(hi)))
    return CoefficientTable(pair, log_num, log_den, float(log_c), lead_zero)


# ---------------------------------------------------------------------------
# core evaluation
# ---------------------------------------------------------------------------

def _reduce_turns(t: float) -> float:
    """Fractional part of t (in turns) in [-1/2, 1/2], snapping seam hits to 0."""
    k = round(t)
    frac = t - k
    if abs(frac) <= 1e-12 or abs(frac) <= 8.0 * 2.220446049250313e-16 * abs(t):
        return 0.0
    return frac


def _horner(cs: Sequence, w):
    """(p(w), p'(w)) for p(w) = sum_k cs[k] w^k, by Horner's rule."""
    p = dp = 0
    for c in reversed(cs):
        dp = dp * w + p
        p = p * w + c
    return p, dp


def _poly_logsum(
    logc: np.ndarray, alternating: bool, x: float, yr: float
) -> tuple[complex, complex, float]:
    """log T(w) and T'(w)/T(w) at w = e^(x + i*yr), by scaled term summation.

    T(w) = sum_j c_j w^j with |c_j| = exp(logc[j]) and signs (+1)^j or (-1)^j.
    Working with log-magnitudes term by term keeps the sum finite for any x;
    returns (logT, ratio, tiny) where tiny = |T| / max_j |c_j w^j|.  A zero
    polynomial value comes back as tiny == 0.0.
    """
    deg = len(logc) - 1
    if deg == 0:
        return 0j, 0j, 1.0
    jj = np.arange(deg + 1, dtype=float)
    logs = logc + jj * x
    L = float(np.max(logs))
    mags = np.exp(logs - L)
    if alternating:
        mags = mags * np.where(np.arange(deg + 1) % 2 == 0, 1.0, -1.0)
    if yr == 0.0:
        terms = mags.astype(complex)
    else:
        terms = mags * np.exp(1j * (jj * yr))
    T = complex(np.sum(terms))
    D = complex(np.sum(jj * terms))  # = w T'(w) / scale
    tiny = abs(T)
    if T == 0:
        return complex(-math.inf, 0.0), 0j, 0.0
    ratio = (D / T) * cmath.exp(complex(-x, -yr))  # T'(w)/T(w)
    logT = L + cmath.log(T)
    return logT, ratio, tiny


@lru_cache(maxsize=64)
def _mp_coefficients(pair: PairIndex, numer: bool, dps: int) -> tuple:
    """The exact coefficients of P (numer) or Q as mpf, each rounded at dps digits."""
    table = build_coefficients(pair)
    with mp.workdps(dps):
        return tuple(mp.mpf(c.numerator) / c.denominator for c in (table.numer if numer else table.denom))


def _poly_logsum_mp(
    table: CoefficientTable, numer: bool, x: float, yr: float, lost_digits: float
) -> tuple[complex, complex, float]:
    """High-precision fallback for the cancellation-prone alternating sum.

    The sum runs at 30 + lost_digits digits on the exact coefficients and
    measures its own loss, log10(max_k |c_k w^k| / |T|); with fewer than 20
    digits to spare it is redone at loss + 30 digits.  A sum that needs more
    than 300 digits raises EvalDomainError.
    """
    dps = 30 + int(lost_digits)
    if dps > 300:
        raise EvalDomainError(f"polynomial sum at x={x} needs {dps} digits (cap 300)")
    with _MP_LOCK, mp.workdps(dps):
        w = mp.exp(mp.mpc(x, yr))
        T = mp.mpc(0)
        D = mp.mpc(0)
        scale = mp.mpf(0)
        wk = mp.mpc(1)
        for k, c in enumerate(_mp_coefficients(table.pair, numer, dps)):
            term = c * wk
            T += term
            D += k * term
            scale = max(scale, abs(term))
            wk *= w
        if T == 0:
            return complex(-math.inf, 0.0), 0j, 0.0
        loss = float(mp.log10(scale / abs(T)))
        if dps - loss >= 20:
            return complex(mp.log(T)), complex(D / (T * w)), float(abs(T) / scale)
    return _poly_logsum_mp(table, numer, x, yr, loss)


def _poly_eval(
    table: CoefficientTable, numer: bool, x: float, yr: float
) -> tuple[complex, complex, bool]:
    """(log T(w), T'(w)/T(w), singular) for T = P or Q at w = e^(x+i*yr).

    'singular' means the Newton distance |T / (w T')| from z to the nearest
    root is below SINGULAR_TOL, i.e. the point is a zero/pole hit for all
    practical purposes.  Cancellation-depleted sums are recomputed with
    mpmath first, so the distance test sees accurate values even when the
    double sum lost every digit; the mpmath sum checks the digits it kept
    itself, since the double sum's estimate of its loss saturates near 16.
    """
    logc = table.log_abs_numer if numer else table.log_abs_denom
    logT, ratio, tiny = _poly_logsum(logc, numer, x, yr)
    if tiny < CANCEL_TOL:
        lost = -math.log10(tiny) if tiny > 0 else 60.0
        logT, ratio, tiny = _poly_logsum_mp(table, numer, x, yr, lost + 10)
    if tiny == 0.0:
        return logT, ratio, True
    r = abs(ratio)
    singular = r > 0.0 and (x + math.log(r)) > -math.log(SINGULAR_TOL)
    return logT, ratio, singular


def _check_re(x: float) -> None:
    if not math.isfinite(x):
        raise EvalDomainError(f"non-finite Re z: {x!r}")
    if x > 709.0:
        raise EvalDomainError(
            f"Re z = {x:.3g}: exp(e^z) exceeds the representable log range"
        )


def eval_model_turns(
    pair: PairIndex, x: float, turns: float, variant: str = PLAIN
) -> ScaledComplex:
    """Evaluate the model at z = x + 2*pi*i*turns.

    Working directly in turn units lets strip assemblies hit their seams
    exactly: an integer ``turns`` reduces to a real-axis evaluation with
    phase identically zero, where g > 1 has no zero or pole to test for.
    """
    _check_re(x)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    frac = _reduce_turns(turns)
    if frac == 0.0:
        return ScaledComplex.from_log(real_log_value(pair, x, variant))
    table = build_coefficients(pair)
    yr = TWO_PI * frac
    logP, _, psing = _poly_eval(table, True, x, yr)
    logQ, _, qsing = _poly_eval(table, False, x, yr)
    if qsing:
        return ScaledComplex.pole()
    if psing:
        if variant == PLAIN:
            return ScaledComplex.zero()
        return ScaledComplex.from_complex(0.5)
    ez = cmath.exp(complex(x, yr))
    sc = ScaledComplex.from_log(ez + logP - logQ)
    if variant == HALF:
        sc = sc.add_real(1.0).times_real(0.5)
    return sc


def eval_model(pair: PairIndex, z: complex, variant: str = PLAIN) -> ScaledComplex:
    """Evaluate g (plain) or (g+1)/2 (half) at a complex point, log-polar result."""
    z = complex(z)
    return eval_model_turns(pair, z.real, z.imag / TWO_PI, variant)


def eval_model_derivative(pair: PairIndex, z: complex, variant: str = PLAIN) -> ScaledComplex:
    """dg/dz in log-polar form, via the closed-form monomial identity.

    P'Q - PQ' + PQ collapses to N c_N w^(N-1), so the derivative needs no
    numerator evaluation at all:
    log g' = e^z + log N + N z - log_intercept - 2 log Q(e^z),  N = m + 2n + 1.
    The half variant just halves it.
    """
    z = complex(z)
    _check_re(z.real)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    table = build_coefficients(pair)
    frac = _reduce_turns(z.imag / TWO_PI)
    yr = TWO_PI * frac
    logQ, _, qsing = _poly_eval(table, False, z.real, yr)
    if qsing:
        return ScaledComplex.pole()
    ez = cmath.exp(complex(z.real, yr))
    zred = complex(z.real, yr)
    sc = ScaledComplex.from_log(ez + math.log(pair.N) + pair.N * zred - table.log_intercept
                                - 2.0 * logQ)
    if variant == HALF:
        sc = sc.times_real(0.5)
    return sc


def log_derivative(pair: PairIndex, z: complex, variant: str = PLAIN) -> complex:
    """The value g'/g (plain) or g'/(g+1) (half) as an ordinary complex number."""
    z = complex(z)
    _check_re(z.real)
    table = build_coefficients(pair)
    frac = _reduce_turns(z.imag / TWO_PI)
    yr = TWO_PI * frac
    zred = complex(z.real, yr)
    ez = cmath.exp(zred)
    logQ, rQ, qsing = _poly_eval(table, False, z.real, yr)
    if qsing:
        raise EvalDomainError(f"log-derivative requested at a pole near z={z}")
    if variant == PLAIN:
        logP, rP, psing = _poly_eval(table, True, z.real, yr)
        if psing:
            raise EvalDomainError(f"log-derivative requested at a zero near z={z}")
        return ez * (1.0 + rP - rQ)
    # half: (g+1)'/(g+1) = g'/(g+1), via logs to dodge zeros of g
    log_gp = ez + math.log(pair.N) + pair.N * zred - table.log_intercept - 2.0 * logQ
    g_sc = eval_model_turns(pair, z.real, z.imag / TWO_PI, PLAIN)
    gp1 = g_sc.add_real(1.0)
    if gp1.is_zero:
        raise EvalDomainError(f"log-derivative of half variant at its zero near z={z}")
    expo = log_gp - gp1.logpolar
    if expo.real > 709.0:
        raise EvalDomainError("half-variant log-derivative overflows")
    return cmath.exp(expo)


# ---------------------------------------------------------------------------
# the real axis: g - 1 as a sum of positive terms
# ---------------------------------------------------------------------------
# On w = e^x > 0, g - 1 = S(w)/Q(w) with S = e^w P - Q = sum_{k>=N} c_k w^k and
# c_k = m!(2n)!/(m+2n)! * C(k-m-1, 2n)/k! > 0.  Q and S are sums of positive
# terms, so F = log(g - 1) and F' = w S'/S - w Q'/Q >= 2n+1 do not cancel.

def _ratio_sum(pair: PairIndex, w: float, k: int, last: float = math.inf) -> tuple[float, float]:
    """(log sum_j t_j, sum_j j t_j / sum_j t_j) over j = k..last, with t_k = 1.

    t_{j+1}/t_j = w (j-m)/((j+1)(j-N+1)), the ratio of consecutive Taylor
    coefficients of Q (j < m) and of S (j >= N).  The terms rise, then fall,
    so the sum stops at the first term below 1e-17 of it.  Partial sums past
    2^800 are scaled down by 2^800 so that they stay finite.
    """
    m, N = pair.m, pair.N
    t = s = 1.0
    ks = float(k)
    e = 0
    while k < last and t > 1e-17 * s:
        t *= w * (k - m) / ((k + 1) * (k - N + 1))
        k += 1
        s += t
        ks += k * t
        if s > 2.0 ** 800:
            t, s, ks, e = t * 2.0 ** -800, s * 2.0 ** -800, ks * 2.0 ** -800, e + 800
    return math.log(s) + e * LOG2, ks / s


def _series_end(pair: PairIndex) -> int:
    """The w = max(4n(m+1), 2N) past which the direct sum of P e^w / Q takes over.

    Past 4n(m+1) each term of P is at least twice the one before it, so |P|
    keeps half its top term; past 2N, w Q'/Q <= m < w/2 and g > 2, so neither
    log(g - 1) nor (log g)' = w + w P'/P - w Q'/Q cancels.
    """
    return max(4 * pair.n * (pair.m + 1), 2 * pair.N)


def _real_gap(pair: PairIndex, x: float) -> tuple[float, float]:
    """(F(x), F'(x)) with F = log(g - 1) at real x."""
    _check_re(x)
    table = build_coefficients(pair)
    w = math.exp(x)
    if w <= _series_end(pair):
        log_s, ks = _ratio_sum(pair, w, pair.N)
        log_q, kq = _ratio_sum(pair, w, 0, pair.m)
        hi, lo = table.lead_zero
        return pair.N * ((x - hi) - lo) + log_s - log_q, ks - kq
    logP, rP, _ = _poly_eval(table, True, x, 0.0)
    logQ, rQ, _ = _poly_eval(table, False, x, 0.0)
    logg = (w + logP - logQ).real
    d = -math.expm1(-logg)  # (g - 1)/g
    return logg + math.log(d), (w * (1.0 + rP - rQ)).real / d


def real_log_gap(pair: PairIndex, x: float, variant: str = PLAIN) -> float:
    """F(x) = log(g(x) - 1), minus log 2 for the half variant."""
    return real_log_gap_slope(pair, x, variant)[0]


def real_log_gap_deriv(pair: PairIndex, x: float) -> float:
    """F'(x) = g'(x)/(g(x) - 1) >= 2n + 1; identical for both variants."""
    return _real_gap(pair, x)[1]


def real_log_gap_slope(pair: PairIndex, x: float, variant: str = PLAIN) -> tuple[float, float]:
    """(``real_log_gap``, ``real_log_gap_deriv``) from one evaluation."""
    f, df = _real_gap(pair, x)
    return (f - LOG2 if variant == HALF else f), df


def real_log_value(pair: PairIndex, x: float, variant: str = PLAIN) -> float:
    """log g(x) = log(1 + e^F) > 0, or log((g(x)+1)/2) = log(1 + e^(F - log 2)) > 0."""
    f = real_log_gap(pair, x, variant)
    return max(f, 0.0) + math.log1p(math.exp(-abs(f)))


def real_log_value_deriv(pair: PairIndex, x: float, variant: str = PLAIN) -> float:
    """d/dx of log g = F'/(1 + e^-F) (plain) or of log((g+1)/2) = F'/(1 + 2e^-F) (half)."""
    return real_log_value_slope(pair, x, variant)[1]


def real_log_value_slope(pair: PairIndex, x: float, variant: str = PLAIN) -> tuple[float, float]:
    """(``real_log_value``, ``real_log_value_deriv``) from one evaluation."""
    f, df = real_log_gap_slope(pair, x, variant)
    e = math.exp(-abs(f))
    return max(f, 0.0) + math.log1p(e), df * math.exp(min(f, 0.0)) / (1.0 + e)


# ---------------------------------------------------------------------------
# roots, handles, residual diagnostics
# ---------------------------------------------------------------------------

_ROOT_DEGREE_CAP = 64


def _poly_roots(coeffs: Sequence[Fraction]) -> tuple[complex, ...]:
    deg = len(coeffs) - 1
    if deg == 0:
        return ()
    if deg > _ROOT_DEGREE_CAP:
        raise NotImplementedError(f"root registry capped at degree {_ROOT_DEGREE_CAP}")
    cf = np.array([float(c) for c in coeffs])
    roots = np.roots(cf[::-1])
    # Newton polish on the exact coefficients
    out = []
    for r in roots:
        w = complex(r)
        for _ in range(8):
            p, dp = _horner(cf, w)
            if dp == 0:
                break
            step = p / dp
            w -= step
            if abs(step) < 1e-15 * max(1.0, abs(w)):
                break
        out.append(w)
    return tuple(sorted(out, key=lambda c: (c.real, c.imag)))


@lru_cache(maxsize=256)
def numer_roots(pair: PairIndex) -> tuple[complex, ...]:
    """Roots of P in the w-plane (zeros of the model live at log w + 2*pi*i*k)."""
    return _poly_roots(build_coefficients(pair).numer)


@lru_cache(maxsize=256)
def denom_roots(pair: PairIndex) -> tuple[complex, ...]:
    """Roots of Q in the w-plane (poles of the model)."""
    return _poly_roots(build_coefficients(pair).denom)


def solve_value_negative_one(pair: PairIndex, w_seed: complex) -> complex | None:
    """Newton solve of P(w) e^w + Q(w) = 0 (i.e. g = -1) from a w-plane seed.

    Returns None when Newton fails: a vanishing derivative, an iterate that
    overflows, or no convergence within 60 steps.
    """
    table = build_coefficients(pair)
    B = [float(b) for b in table.numer]
    A = [float(a) for a in table.denom]
    w = complex(w_seed)
    try:
        for _ in range(60):
            (p, dp), (q, dq) = _horner(B, w), _horner(A, w)
            ew = cmath.exp(w)
            h, hp = p * ew + q, (dp + p) * ew + dq
            if hp == 0:
                return None
            step = h / hp
            w -= step
            if abs(step) < 1e-13 * max(1.0, abs(w)):
                return w
    except OverflowError:
        return None
    return None


@dataclass
class FunctionHandle:
    """An evaluatable function plus the analyticity facts callers may rely on.

    ``eval`` returns ScaledComplex.  ``logderiv`` (if given) returns plain
    complex values of f'/f.  ``poles_in``/``zeros_in`` (if given) list exact
    singularity positions inside a rectangle (x0, x1, y0, y1) and give the
    counting machinery its second, independent route.
    """

    eval: Callable[[complex], ScaledComplex]
    name: str = ""
    logderiv: Optional[Callable[[complex], complex]] = None
    poles_in: Optional[Callable[[tuple[float, float, float, float]], list[complex]]] = None
    zeros_in: Optional[Callable[[tuple[float, float, float, float]], list[complex]]] = None


def _instances_in_rect(wroots: Sequence[complex], rect: tuple[float, float, float, float]) -> list[complex]:
    x0, x1, y0, y1 = rect
    out = []
    for wr in wroots:
        base = cmath.log(wr)
        if not (x0 <= base.real <= x1):
            continue
        k_lo = math.ceil((y0 - base.imag) / TWO_PI)
        k_hi = math.floor((y1 - base.imag) / TWO_PI)
        for k in range(k_lo, k_hi + 1):
            out.append(base + 2j * math.pi * k)
    return out


def model_handle(pair: PairIndex, variant: str = PLAIN) -> FunctionHandle:
    """FunctionHandle for the model pair; registries are exact root images."""
    zeros = None
    if variant == PLAIN:
        zeros = lambda rect: _instances_in_rect(numer_roots(pair), rect)
    return FunctionHandle(
        eval=lambda z: eval_model(pair, z, variant),
        name=f"g{pair}" if variant == PLAIN else f"ghalf{pair}",
        logderiv=lambda z: log_derivative(pair, z, variant),
        poles_in=lambda rect: _instances_in_rect(denom_roots(pair), rect),
        zeros_in=zeros,
    )


def tail_expansion_residual(pair: PairIndex, y: float) -> float:
    """Gap between log(h(y)-1) and its leading closed-form tail at real y > 0.

    h(y) = (P(y)/Q(y)) e^y; the comparison term is
    y + N log y - log(binom(m+2n,m) N!) - 2 log Q(y) - log(1 + y/N).
    Evaluated at 40 significant digits so the caller can trust ~1e-20.
    """
    if y <= 0:
        raise ValueError("tail residual needs y > 0")
    m, n, N = pair.m, pair.n, pair.N
    table = build_coefficients(pair)
    with _MP_LOCK, mp.workdps(40):
        yy = mp.mpf(y)
        P, _ = _horner([mp.mpf(b.numerator) / b.denominator for b in table.numer], yy)
        Q, _ = _horner([mp.mpf(a.numerator) / a.denominator for a in table.denom], yy)
        h = P / Q * mp.exp(yy)
        norm = mp.mpf(math.comb(m + 2 * n, m)) * mp.factorial(N)
        lead = yy + N * mp.log(yy) - mp.log(norm) - 2 * mp.log(Q) - mp.log(1 + yy / N)
        return float(mp.log(h - 1) - lead)


# ---------------------------------------------------------------------------
# differential operators through contour derivatives
# ---------------------------------------------------------------------------

def _complex_eval(handle: FunctionHandle) -> Callable[[complex], complex]:
    def f(z: complex) -> complex:
        return handle.eval(z).to_complex()

    return f


def apply_B(handle: FunctionHandle, z: complex) -> complex:
    """The coefficient functional -2E''/E + (E'/E)^2 - 1/E^2 at z.

    Derivatives come from Cauchy integrals on |zeta - z| = 0.25; if the
    winding of E around that circle is nonzero the disk contains a zero or
    pole of E and the request violates the benign-point contract.
    """
    (e0, e1, e2), winding = contour.circle_derivatives(_complex_eval(handle), z, 0.25, 2)
    if winding != 0:
        raise ValueError(f"disk of radius 0.25 at {z} contains a zero/pole (winding {winding})")
    return -2.0 * e2 / e0 + (e1 / e0) ** 2 - 1.0 / (e0 * e0)


def model_schwarzian(pair: PairIndex, z: complex) -> complex:
    """Schwarzian derivative S(g) = -e^{2z}/2 + (m - 2n) e^z - N^2/2 of the plain model g, in closed form."""
    ez = cmath.exp(z)
    return -ez * ez / 2 + (pair.m - 2 * pair.n) * ez - pair.N ** 2 / 2


def bank_laine_A(pair: PairIndex, z: complex) -> complex:
    """A = S(g)/2: E = g/g' is the product of two solutions of w'' + A w = 0, so 4A = ``apply_B`` of E."""
    return model_schwarzian(pair, z) / 2
