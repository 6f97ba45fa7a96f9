"""Model function evaluation against an independent mpmath oracle.

The oracle rebuilds P, Q from exact rationals and evaluates at 60 digits, so
any agreement here is between two genuinely different code paths.
"""

import cmath
import math
import sys
import threading
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from banklaine import specfun
from banklaine.scaledcx import from_log, to_complex
from banklaine.specfun import (
    CANCEL_TOL,
    EvalDomainError,
    _gap_series,
    _poly_eval,
    _poly_logsum,
    _poly_logsum_mp,
    HALF,
    PLAIN,
    PairIndex,
    apply_B,
    bank_laine_A,
    build_coefficients,
    denom_roots,
    eval_model,
    eval_model_derivative,
    eval_model_turns,
    log_derivative,
    model_schwarzian,
    numer_roots,
    real_log_gap,
    real_log_gap_slope,
    real_log_value,
    real_log_value_slope,
    solve_value_negative_one,
    tail_expansion_residual,
)

PAIRS = [PairIndex(0, 0), PairIndex(1, 0), PairIndex(0, 1), PairIndex(1, 1),
         PairIndex(2, 1), PairIndex(3, 2), PairIndex(0, 4), PairIndex(5, 0)]


def oracle(pair: PairIndex, z: complex, dps: int = 60) -> mp.mpc:
    """g at z from exact coefficients, all in mpmath."""
    t = build_coefficients(pair)
    with mp.workdps(dps):
        w = mp.exp(mp.mpc(z))
        P = sum(mp.mpf(c.numerator) / mp.mpf(c.denominator) * w**j
                for j, c in enumerate(t.numer))
        Q = sum(mp.mpf(c.numerator) / mp.mpf(c.denominator) * w**i
                for i, c in enumerate(t.denom))
        return P * mp.exp(w) / Q


def assert_logpolar_close(sc, ref: mp.mpc, tol=5e-13):
    lm, ph = sc.real, sc.imag
    ref_lm = float(mp.log(abs(ref)))
    ref_ph = float(mp.arg(ref))
    assert abs(lm - ref_lm) <= tol * max(1.0, abs(ref_lm))
    d = (ph - ref_ph) % (2 * math.pi)
    assert min(d, 2 * math.pi - d) <= 5e-12


# ---- exact coefficient structure -------------------------------------------

def test_tables_1_1_exact():
    t = build_coefficients(PairIndex(1, 1))
    assert t.denom == (Fraction(1), Fraction(1, 3))
    assert t.numer == (Fraction(1), Fraction(-2, 3), Fraction(1, 6))


def test_truncated_exponential_for_m_zero():
    t = build_coefficients(PairIndex(0, 3))
    assert t.numer == tuple(Fraction((-1) ** j, math.factorial(j)) for j in range(7))
    assert t.denom == (Fraction(1),)


@pytest.mark.parametrize("pair", PAIRS)
def test_extreme_coefficient_identity(pair):
    # |A_m * B_{2n}| = m!(2n)!/((m+2n)!)^2, exactly in big rationals
    table, m, n2 = build_coefficients(pair), pair.m, 2 * pair.n
    s = math.factorial(m + n2)
    assert table.denom[-1] * abs(table.numer[-1]) == Fraction(math.factorial(m) * math.factorial(n2), s * s)


def test_denominator_coefficients_positive_decreasing():
    for m in (1, 2, 3, 6):
        for n in (0, 1, 2):
            A = build_coefficients(PairIndex(m, n)).denom
            assert all(a > 0 for a in A)
            assert all(b <= a for a, b in zip(A, A[1:]))  # A_0 = A_1 when n = 0
            # the recursion ratio A_{i+1}/A_i = (m-i)/((i+1)(m+2n-i))
            for i in range(m):
                assert A[i + 1] * (i + 1) * (m + 2 * n - i) == A[i] * (m - i)


def test_gap_series_head_vanishes():
    # the Taylor coefficients c_k of e^w P - Q, exact from the tables (times
    # k! and a common denominator D): zero below N = m + 2n + 1, then
    # c_k = m!(2n)!/(m+2n)! C(k-m-1, 2n)/k! > 0
    for m in range(10):
        for n in range(8):
            t, N = build_coefficients(PairIndex(m, n)), m + 2 * n + 1
            D = math.lcm(*(c.denominator for c in t.numer + t.denom))
            B, A = [int(c * D) for c in t.numer], [int(c * D) for c in t.denom]
            lead = Fraction(D * math.factorial(m) * math.factorial(2 * n), math.factorial(m + 2 * n))
            for k in range(150):
                ck = sum(b * math.perm(k, j) for j, b in enumerate(B[: k + 1]))
                ck -= A[k] * math.factorial(k) if k <= m else 0
                assert ck == (lead * math.comb(k - m - 1, 2 * n) if k >= N else 0), (m, n, k)


# ---- evaluation vs oracle ---------------------------------------------------

GRID = [0.0 + 0.0j, 1.3 + 0.7j, -2.0 + 3.1j, 0.5 - 2.2j, 4.0 + 0.01j, -8.0 + 1.0j]


@pytest.mark.parametrize("pair", PAIRS)
@pytest.mark.parametrize("z", GRID)
def test_eval_matches_oracle(pair, z):
    assert_logpolar_close(eval_model(pair, z), oracle(pair, z))


def test_eval_survives_cancellation_depth():
    # (0,32) near w = 18: the double sum loses ~15 digits; mpmath fallback
    # has to hand back full accuracy
    pair = PairIndex(0, 32)
    z = complex(math.log(18.0), 0.03)
    assert_logpolar_close(eval_model(pair, z), oracle(pair, z, dps=120))


def test_half_variant_is_g_plus_one_over_two():
    pair, z = PairIndex(1, 1), 0.8 + 0.6j
    ref = (oracle(pair, z) + 1) / 2
    assert_logpolar_close(eval_model(pair, z, HALF), ref)


def test_large_x_does_not_overflow():
    sc = eval_model(PairIndex(2, 1), complex(700.0, 0.4))
    assert sc.real > 1e300  # e^700, kept as a log
    with pytest.raises(EvalDomainError):
        eval_model(PairIndex(2, 1), complex(710.0, 0.0))


def oracle_log_derivative(pair: PairIndex, z: complex, dps: int = 60) -> mp.mpc:
    """g'/g = e^z (1 + P'(w)/P(w) - Q'(w)/Q(w)) at w = e^z, from exact coefficients in mpmath."""
    t = build_coefficients(pair)
    with mp.workdps(dps):
        w = mp.exp(mp.mpc(z))

        def ratio(cs):
            cs = [mp.mpf(c.numerator) / c.denominator for c in cs]
            return sum(j * c * w ** (j - 1) for j, c in enumerate(cs) if j) / sum(c * w ** j for j, c in enumerate(cs))

        return w * (1 + ratio(t.numer) - ratio(t.denom))


@pytest.mark.parametrize("pair, z", [(PairIndex(1, 1), -709.5 + 1j), (PairIndex(1, 1), -720.0 + 1j),
                                     (PairIndex(1, 1), -5000.0 + 3j), (PairIndex(3, 2), -720.0 - 2j)])
def test_far_left_values_are_finite(pair, z):
    # past Re z = -709.78, e^-Re z overflows a double while g is about R(0) = 1;
    # 1 + P'/P - Q'/Q cancels to O(w^(N-1)), so the oracle carries N |Re z| / ln 10 digits
    g = oracle(pair, z)
    ld = oracle_log_derivative(pair, z, dps=40 + int(pair.N * abs(z.real) / math.log(10.0)))
    assert_logpolar_close(eval_model(pair, z), g)
    assert_logpolar_close(eval_model(pair, z, HALF), (g + 1) / 2)
    assert_logpolar_close(eval_model_derivative(pair, z), g * ld)
    assert_logpolar_close(eval_model_derivative(pair, z, HALF), g * ld / 2)
    for variant, want in ((PLAIN, ld), (HALF, g * ld / (g + 1))):
        # |g'/g| ~ e^(N Re z) underflows; what is left is rounding far below any normal double
        assert abs(log_derivative(pair, z, variant) - complex(want)) < 1e-300, variant


@pytest.mark.parametrize("x", [-30.0, -15.0, -5.0, 5.0, 20.0, 30.0, 100.0])
def test_log_derivative_off_the_axis_matches_the_oracle(x):
    # the bracket of g'/g = e^z (1 + P'/P - Q'/Q) cancels to O(e^((N-1) x))
    # left of the axis (relative errors 7e-8, 8e5 and 5e25 at x = -5, -15,
    # -30), and exp(log g' - log g) or exp(log g' - log(g + 1)) keeps the
    # rounding of e^z right of it (2e-9 at x = 20, 1e-3 at x = 30, every
    # digit lost at x = 100)
    pair, z = PairIndex(1, 1), complex(x, 1.0)
    with mp.workdps(200):
        g, ld = oracle(pair, z, dps=200), oracle_log_derivative(pair, z, dps=200)
        wants = ((PLAIN, complex(ld)), (HALF, complex(g * ld / (g + 1))))
    for variant, want in wants:
        assert abs(log_derivative(pair, z, variant) - want) <= 1e-14 * abs(want), variant


# ---- singular points ---------------------------------------------------------

def test_pole_and_zero_hits():
    pair = PairIndex(1, 1)
    pole = complex(math.log(3.0), math.pi)        # Q(-3) = 0
    zroot = next(r for r in numer_roots(pair) if r.imag > 0)
    zero = complex(math.log(abs(zroot)), math.atan2(zroot.imag, zroot.real))
    assert eval_model(pair, pole).real == math.inf
    assert eval_model(pair, zero).real == -math.inf
    # half variant: g = 0 maps to 1/2
    assert to_complex(eval_model(pair, zero, HALF)) == pytest.approx(0.5)


def test_near_miss_is_not_singular():
    pair = PairIndex(1, 1)
    pole = complex(math.log(3.0), math.pi)
    assert eval_model(pair, pole + 1e-14).real == math.inf  # below resolvable distance
    sc = eval_model(pair, pole + 1e-11)                      # resolvable: huge but finite
    assert sc.real != math.inf and sc.real > 20


def test_root_registries_annihilate():
    pair = PairIndex(2, 1)
    t = build_coefficients(pair)
    for r in numer_roots(pair):
        val = sum(float(c) * r**j for j, c in enumerate(t.numer))
        assert abs(val) < 1e-12
    for r in denom_roots(pair):
        val = sum(float(c) * r**i for i, c in enumerate(t.denom))
        assert abs(val) < 1e-12


def test_solve_negative_one_gives_half_zero():
    # zeros of the half variant sit where g = -1; the evaluated modulus
    # collapses to rounding residue (they are not registry poles/zeros of g)
    pair = PairIndex(1, 1)
    w = solve_value_negative_one(pair, -0.5 + 0.5j)
    z = complex(math.log(abs(w)), math.atan2(w.imag, w.real))
    sc = eval_model(pair, z, HALF)
    assert sc.real == -math.inf or sc.real < -25.0


# ---- seam exactness ----------------------------------------------------------

def test_integer_turns_are_exactly_real():
    for pair in (PairIndex(0, 0), PairIndex(1, 1), PairIndex(0, 4)):
        for k in (-3, 0, 1, 7):
            sc = eval_model_turns(pair, 0.37, float(k))
            assert sc.imag == 0.0
            ref = eval_model_turns(pair, 0.37, 0.0)
            assert sc.real == ref.real


def test_turn_snapping_is_relative_to_the_turn_count():
    # Im z snaps onto a seam only within 8 ulps of its turn count, that
    # count's own rounding.  4e-13 turns past 5 is a phase of 2 pi frac
    # Re(g'/g)(1) to first order (the next term is ~1e-35); frac = t - 5
    # is exact, so it is the offset the model sees
    pair, t = PairIndex(1, 1), 5.0 + 4e-13
    want = 2.0 * math.pi * (t - 5.0) * log_derivative(pair, 1.0).real
    assert abs(eval_model_turns(pair, 1.0, t).imag - want) <= 1e-12 * abs(want)
    assert eval_model_turns(pair, 1.0, 5.0 + 4e-15).imag == 0.0


# ---- derivatives -------------------------------------------------------------

def test_derivative_never_vanishes_and_matches_fd():
    pair = PairIndex(1, 1)
    for z in (0.2 + 0.4j, 1.0 - 1.1j, 0.0 + 0.0j):
        d = to_complex(eval_model_derivative(pair, z))
        h = 1e-6
        fd = (to_complex(eval_model(pair, z + h))
              - to_complex(eval_model(pair, z - h))) / (2 * h)
        assert abs(d - fd) < 5e-9 * abs(d)
        assert d != 0


def test_derivative_frozen_at_origin():
    # g'(0) = e / (binom(3,1) * 3! * Q(1)^2) * 1, with Q(1) = 4/3
    want = math.e / (3 * 6 * (4.0 / 3.0) ** 2)
    got = to_complex(eval_model_derivative(PairIndex(1, 1), 0j))
    assert got.real == pytest.approx(want, rel=1e-13)
    assert got.imag == pytest.approx(0.0, abs=1e-16)


def test_log_derivative_half_variant():
    pair, z = PairIndex(1, 1), 0.4 + 0.3j
    got = log_derivative(pair, z, HALF)
    gp = to_complex(eval_model_derivative(pair, z))
    g = to_complex(eval_model(pair, z))
    assert abs(got - gp / (g + 1)) < 1e-12 * abs(got)


# ---- real-axis fast paths ----------------------------------------------------

def test_real_log_gap_deep_left():
    # log(g(x)-1) = 4x - log 72 + O(e^x) for (1,1)
    got = real_log_gap(PairIndex(1, 1), -30.0)
    assert got == pytest.approx(4 * -30.0 - math.log(72.0), rel=1e-14)


def test_real_log_gap_matches_oracle_mid():
    pair, x = PairIndex(2, 1), 0.7
    with mp.workdps(50):
        want = float(mp.log(oracle(pair, x).real - 1))
    assert real_log_gap(pair, x) == pytest.approx(want, rel=1e-12)
    assert real_log_gap(pair, x, HALF) == pytest.approx(want - math.log(2), rel=1e-12)


def test_gap_derivative_limits():
    pair = PairIndex(1, 1)
    assert real_log_gap_slope(pair, -35.0)[1] == pytest.approx(4.0, rel=1e-10)
    x = 25.0
    # right regime: F' ~ e^x (1 + (2n - m) e^{-x})
    assert real_log_gap_slope(pair, x)[1] == pytest.approx(
        math.exp(x) + (2 - 1), rel=1e-9
    )


def test_gap_derivative_against_fd_everywhere():
    pair = PairIndex(0, 4)
    for x in (-20.0, -3.0, 0.0, 2.0, 10.0, 18.0):
        h = 1e-6
        fd = (real_log_gap(pair, x + h) - real_log_gap(pair, x - h)) / (2 * h)
        assert real_log_gap_slope(pair, x)[1] == pytest.approx(fd, rel=1e-7)


def series_oracle(pair: PairIndex, x: float, dps: int = 40) -> tuple[float, float]:
    """(F, F') from S = sum_{k>=N} c_k w^k and Q, summed at dps digits."""
    m, N = pair.m, pair.N
    with mp.workdps(dps):
        w = mp.exp(mp.mpf(x))
        t, s, ks, k = mp.mpf(1), mp.mpf(1), mp.mpf(N), N
        while k < N + 2 * w or t > s * mp.mpf(10) ** -dps:
            t *= w * (k - m) / ((k + 1) * (k - N + 1))
            k += 1
            s, ks = s + t, ks + k * t
        q = [mp.binomial(m, i) * mp.factorial(m + 2 * pair.n - i) / mp.factorial(m + 2 * pair.n)
             * w**i for i in range(m + 1)]
        c_N = 1 / (mp.binomial(m + 2 * pair.n, m) * mp.factorial(N))
        F = mp.log(c_N * w**N * s / sum(q))
        return float(F), float(ks / s - sum(i * qi for i, qi in enumerate(q)) / sum(q))


@pytest.mark.parametrize("m", [0, 1, 2, 3, 5])
def test_real_log_gap_matches_the_series_oracle(m):
    # both regimes (positive series, then the direct sum past series_end);
    # near (2,8), x = 1.75, log(g - 1) taken from log g loses 8 digits
    for n in (0, 1, 4, 8, 12):
        pair = PairIndex(m, n)
        for x in (-2.0, -1.0, -0.25, 0.5, 1.25, 1.75, 2.5, 3.0, 3.5, 4.25, 5.0, 5.5):
            F, dF = series_oracle(pair, x)
            assert abs(real_log_gap(pair, x) - F) <= 1e-13 * max(1.0, abs(F)), (pair, x)
            assert abs(real_log_gap_slope(pair, x)[1] - dF) <= 1e-13 * max(1.0, abs(dF)), (pair, x)


@pytest.mark.parametrize("m,n,x", [(1, 90, 6.5), (0, 600, 7.5), (700, 0, 7.1)])
def test_gap_series_sums_past_the_float_range(m, n, x):
    # partial sums of S, and for (700,0) of Q, pass 2^800 and are rescaled
    pair = PairIndex(m, n)
    assert math.exp(x) <= build_coefficients(pair).series_end
    F, dF = series_oracle(pair, x)
    assert real_log_gap(pair, x) == pytest.approx(F, rel=1e-13)
    assert real_log_gap_slope(pair, x)[1] == pytest.approx(dF, rel=1e-13)


@pytest.mark.parametrize("pair,xs", [
    (PairIndex(1, 28), [3.7526]),
    (PairIndex(1, 47), [3.0 + 0.1 * i for i in range(21)]),
    (PairIndex(4, 6), [-3.0, 0.4, 1.9, 2.6, 4.1, 6.0]),
])
def test_real_axis_eval_matches_the_oracle(pair, xs):
    # log g on the real axis to 1e-14 relative, where the alternating sum
    # of P cancels: by up to 4 digits at (1,28), x = 3.7526, which stay in
    # a double sum, and by more along (1,47)
    for x in xs:
        g = oracle(pair, x, dps=80).real
        for variant, want in ((PLAIN, g), (HALF, (g + 1) / 2)):
            ref = float(mp.log(want))
            got = eval_model_turns(pair, x, 0.0, variant).real
            assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref)), (pair, x, variant)


def test_series_hands_over_to_the_direct_sum():
    # at the hand-over g > 2, and F, F' agree across it to rounding
    for m in range(0, 30, 3):
        for n in range(0, 30, 3):
            pair = PairIndex(m, n)
            x = math.log(build_coefficients(pair).series_end)
            x_right = math.nextafter(x, math.inf)
            assert real_log_gap(pair, x) > 0.0
            for i, want in enumerate(real_log_gap_slope(pair, x)):
                assert real_log_gap_slope(pair, x_right)[i] == pytest.approx(want, rel=1e-14), (pair, i)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(m=st.integers(0, 12), n=st.integers(0, 12), x=st.floats(-40.0, 6.0))
def test_real_axis_paper_bounds(m, n, x):
    # F' = w S'/S - w Q'/Q >= N - m = 2n + 1, F' -> N at -infinity, and
    # log g = log1p(e^F), log((g+1)/2) = log1p(e^F / 2)
    pair = PairIndex(m, n)
    F, dF = real_log_gap(pair, x), real_log_gap_slope(pair, x)[1]
    assert dF >= (2 * n + 1) * (1.0 - 1e-15)
    assert real_log_gap_slope(pair, x - 40.0)[1] == pytest.approx(pair.N, rel=1e-15)
    eF = math.exp(F)
    assert real_log_value(pair, x) == pytest.approx(math.log1p(eF), rel=1e-15)
    assert real_log_value(pair, x, HALF) == pytest.approx(math.log1p(eF / 2), rel=1e-15)
    assert real_log_value_slope(pair, x)[1] == pytest.approx(dF * eF / (1 + eF), rel=1e-15)


@pytest.mark.parametrize("pair", [PairIndex(0, 0), PairIndex(1, 1), PairIndex(1, 47), PairIndex(3, 5)])
def test_real_gap_memo_shares_keys_only_between_equal_values(pair):
    # lru_cache takes -0.0 and 0.0, 0, and np.float64(x) and x for one key,
    # so whichever comes first fills the entry the others read
    memo = specfun._real_gap
    memo.cache_clear()
    neg = memo(pair, -0.0)
    memo.cache_clear()
    assert [v.hex() for v in memo(pair, 0.0)] == [v.hex() for v in neg]
    for x in (0.0, -3.25, 1.5, 4.0, 7.0):  # series and direct sums
        want = None
        for first in (x, np.float64(x), int(x) if x.is_integer() else x):
            memo.cache_clear()
            for arg in (first, x, np.float64(x)):
                got = real_log_gap_slope(pair, arg)
                assert all(type(v) is float for v in got), (pair, x, type(first), type(arg))
                want = want or [v.hex() for v in got]
                assert [v.hex() for v in got] == want, (pair, x, type(first), type(arg))
    # a point outside the domain raises on every call: exceptions are not kept
    memo.cache_clear()
    for x in (710.0, math.nan):
        for _ in range(3):
            with pytest.raises(EvalDomainError):
                real_log_gap_slope(pair, x)
    assert memo.cache_info().currsize == 0


def test_tail_expansion_residual_frozen():
    # (0,0) at y=1: log(e^e/e - 1) vs 1 + 0 - 0 - log(1+1) exactly
    want = math.log(math.e - 1.0) - 1.0 + math.log(2.0)
    assert tail_expansion_residual(PairIndex(0, 0), 1.0) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("pair, y, want", [((1, 10), 0.5, 0.0029341010677521208),
                                           ((1, 10), 0.2, 0.0012031474152930548),
                                           ((0, 20), 1.0, 0.00055445036339170249)])
def test_tail_expansion_residual_keeps_its_digits_where_h_is_near_1(pair, y, want):
    # h - 1 is 1e-29, 1e-38 and 1e-49 here, past what a fixed 40-digit sum keeps
    # (it gave 0.00194 for the second value and a negative h - 1 for the
    # third); the positive series loses nothing.  Values from 400-digit sums
    assert tail_expansion_residual(PairIndex(*pair), y) == pytest.approx(want, rel=0, abs=5e-14)


def test_monotone_on_real_axis():
    xs = np.linspace(-20, 10, 121)
    for pair in (PairIndex(0, 0), PairIndex(1, 1), PairIndex(4, 2)):
        vals = [real_log_value(pair, float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=-30.0, max_value=5.0, allow_nan=False),
)
def test_value_above_one_on_axis(m, n, x):
    assert real_log_value(PairIndex(m, n), x) > 0.0


def _fallback_sums() -> list[tuple]:
    """Arguments of 18 fallback sums of P and Q of (3,20) off the axis, at 30, 90 and 230 digits."""
    table = build_coefficients(PairIndex(3, 20))
    return [(table, numer, x, 0.3, lost) for numer in (True, False)
            for x in (-2.0, 0.5, 3.0) for lost in (0, 60, 200)]


def test_concurrent_mp_fallbacks_keep_their_precision():
    # each fallback sum runs in an mpmath context of its own: one at 230
    # digits must not finish at the 30 digits of another thread's sum
    args = _fallback_sums()
    want = [_poly_logsum_mp(*a) for a in args]
    bad = []

    def work(i):
        for _ in range(3):
            for a, w in zip(args[i:] + args[:i], want[i:] + want[:i]):
                if _poly_logsum_mp(*a) != w:
                    bad.append(a[1:])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not bad


def test_fallback_ignores_mpmath_precision_set_elsewhere():
    # mpmath's global context is anyone's to set: a thread that keeps setting
    # it to 15 digits must not reach the fallback sums running meanwhile
    args = _fallback_sums()
    want = [_poly_logsum_mp(*a) for a in args]
    stop = threading.Event()

    def writer():
        while not stop.is_set():
            mp.mp.dps = 15

    old_interval, old_dps = sys.getswitchinterval(), mp.mp.dps
    sys.setswitchinterval(1e-5)
    thread = threading.Thread(target=writer, daemon=True)
    try:
        thread.start()
        bad = [a[1:] for _ in range(5) for a, w in zip(args, want) if _poly_logsum_mp(*a) != w]
    finally:
        stop.set()
        thread.join(timeout=60)
        sys.setswitchinterval(old_interval)
        mp.mp.dps = old_dps
    assert not thread.is_alive()
    assert not bad


def test_solve_negative_one_returns_none_on_divergence():
    # from this seed the Newton iterates run off to the right and e^w overflows
    assert solve_value_negative_one(PairIndex(0, 3), -0.5 + 0.5j) is None


# ---- the mpmath fallback checks its own digits -------------------------------

@pytest.mark.parametrize("m,n,x", [(3, 120, 4.5), (1, 90, 4.0), (0, 600, 6.1)])
def test_mp_fallback_recovers_the_digits_it_lost(m, n, x):
    # the double sum's loss estimate saturates near 16 digits while these
    # numerator sums lose 42 to 189; the fallback has to see that for itself,
    # here and not in an earlier test whose F the memo kept
    specfun._real_gap.cache_clear()
    pair = PairIndex(m, n)
    ref = float(mp.log(abs(oracle(pair, complex(x, 0.0), dps=600))))
    got = eval_model_turns(pair, x, 0.0).real
    assert got == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("m,n,x", [(3, 120, 4.5), (1, 90, 4.0)])
def test_mp_fallback_recovers_the_digits_it_lost_off_axis(m, n, x, monkeypatch):
    # a hundredth of a turn off the axis the alternating sum of P loses 12
    # digits by its own estimate and 42 or more in fact; with the positive
    # series out of the way (it serves these points, see the series tests)
    # the fallback has to see that for itself and retry with more digits
    monkeypatch.setattr(specfun, "_gap_series", lambda *args: (0j, 0j, 0.0))
    pair, turns = PairIndex(m, n), 0.01
    ref = oracle(pair, complex(x, 2 * math.pi * turns), dps=600)
    got = eval_model_turns(pair, x, turns)
    assert got.real == pytest.approx(float(mp.log(abs(ref))), rel=1e-13)
    assert got.imag == pytest.approx(float(mp.arg(ref)), abs=1e-12)


def _poly_logsum_mp_reference(table, numer, x, yr, lost_digits):
    """The fallback sum in mpmath's global context, each coefficient converted in the loop: the reference."""
    dps = 30 + int(lost_digits)
    with mp.workdps(dps):
        w = mp.exp(mp.mpc(x, yr))
        T, D, scale, wk = mp.mpc(0), mp.mpc(0), mp.mpf(0), mp.mpc(1)
        for k, c in enumerate(table.numer if numer else table.denom):
            term = mp.mpf(c.numerator) / c.denominator * wk
            T += term
            D += k * term
            scale = max(scale, abs(term))
            wk *= w
        if T == 0:
            return complex(-math.inf, 0.0), 0j, 0.0
        loss = float(mp.log10(scale / abs(T)))
        if dps - loss >= 20:
            return complex(mp.log(T)), complex(D / (T * w)), float(abs(T) / scale)
    return _poly_logsum_mp_reference(table, numer, x, yr, loss)


def test_mp_fallback_keeps_the_bits_of_the_in_place_sum():
    # sums that reach the fallback at the digits _poly_eval asks for, and
    # through the retry at more digits, give the bits of the reference sum,
    # also when the caller has set mpmath's global precision to 7 digits.
    # The first points are where power-seams falls back, the others sum P
    # where its alternating terms cancel
    rng = np.random.default_rng(8)
    points = [(PairIndex(1, 47), numer, 3.3605105160065034, 0.009103728793501631) for numer in (True, False)]
    for _ in range(24):
        pair = PairIndex(int(rng.integers(0, 4)), int(rng.integers(20, 121)))
        points.append((pair, True, float(rng.uniform(3.0, 5.0)),
                       float(rng.choice([0.0, 1.0])) * float(rng.uniform(0.0, 0.7))))
    deep = 0
    for pair, numer, x, yr in points:
        table = build_coefficients(pair)
        logc = table.log_abs_numer if numer else table.log_abs_denom
        tiny = _poly_logsum(logc, numer, x, yr)[2]
        lost = (-math.log10(tiny) if tiny > 0 else 60.0) + 10  # as _poly_eval asks
        deep += tiny < 1e-10
        for digits in (lost, 0.0):  # 0 digits retries at loss + 30
            want = _poly_logsum_mp_reference(table, numer, x, yr, digits)
            assert _poly_logsum_mp(table, numer, x, yr, digits) == want, (pair, numer, x, yr)
            with mp.workdps(7):
                assert _poly_logsum_mp(table, numer, x, yr, digits) == want, (pair, numer, x, yr)
    assert deep >= 12


def test_mp_fallback_cap_fails_loudly():
    table = build_coefficients(PairIndex(0, 4))
    with pytest.raises(EvalDomainError):
        _poly_logsum_mp(table, True, 0.5, 0.0, 400)


# ---- P off the real axis by the positive series e^w P = Q + S ----------------

def p_oracle(pair: PairIndex, x: float, yr: float, dps: int = 900) -> tuple[complex, complex]:
    """(log P(w), P'(w)/P(w)) at w = e^(x + i yr), from the exact coefficients at dps digits."""
    t = build_coefficients(pair)
    with mp.workdps(dps):
        w = mp.exp(mp.mpc(x, yr))
        P, D, wj = mp.mpc(0), mp.mpc(0), mp.mpc(1)
        for j, c in enumerate(t.numer):
            term = mp.mpf(c.numerator) / c.denominator * wj
            P, D, wj = P + term, D + j * term, wj * w
        return complex(mp.log(P)), complex(D / (P * w))


def log_p_error(got: complex, want: complex) -> float:
    d = got - want
    return abs(complex(d.real, (d.imag + math.pi) % (2 * math.pi) - math.pi))


def no_fallback(*args):
    raise AssertionError(f"mpmath fallback at {args[1:]}")


@pytest.mark.parametrize("pair,x,yr", [
    # four of the points where power-seams fell back to mpmath
    (PairIndex(1, 47), 3.3549220599217735, 0.009103728793504481),
    (PairIndex(1, 47), 3.360510516006503, 0.293071202516923),
    (PairIndex(1, 47), 3.3605105160065034, 0.009103728793501631),
    (PairIndex(1, 47), 3.360510516006503, 0.6681515008173058),
    # a hundredth of a turn off the real-axis points of the fallback test above
    (PairIndex(3, 120), 4.5, 0.02 * math.pi),
    (PairIndex(1, 90), 4.0, 0.02 * math.pi),
    (PairIndex(0, 600), 6.1, 0.02 * math.pi),
    (PairIndex(0, 600), 6.5, 0.02 * math.pi),  # the partial sums of S pass 2^800
])
def test_series_sums_p_off_axis_without_the_fallback(pair, x, yr, monkeypatch):
    # the alternating sum of P cancels here, the series keeps every digit
    monkeypatch.setattr(specfun, "_poly_logsum_mp", no_fallback)
    want_log, want_ratio = p_oracle(pair, x, yr)
    got_log, got_ratio, singular = _poly_eval(build_coefficients(pair), True, x, yr)
    assert not singular
    assert log_p_error(got_log, want_log) <= 1e-13 * max(1.0, abs(want_log))
    assert abs(got_ratio - want_ratio) <= 1e-12 * abs(want_ratio)


@given(m=st.integers(0, 6), n=st.integers(5, 60), x=st.floats(2.0, 4.5), yr=st.floats(-0.8, 0.8))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_series_where_kept_agrees_with_the_oracle(m, n, x, yr):
    # wherever _poly_eval keeps the series it is as good as its own loss
    # allows: the error stays within a few ulps times max |term| / |Q + S|
    pair = PairIndex(m, n)
    table = build_coefficients(pair)
    alt, series = _poly_logsum(table.log_abs_numer, True, x, yr), _gap_series(table, x, yr)
    assume(alt[2] < 0.1 and series[2] > max(alt[2], CANCEL_TOL))
    assert _poly_eval(table, True, x, yr)[:2] == series[:2]
    want_log, want_ratio = p_oracle(pair, x, yr)
    loss = 1.0 / min(1.0, series[2])
    assert log_p_error(series[0], want_log) <= 1e-14 * loss * max(1.0, abs(want_log))
    assert abs(series[1] - want_ratio) <= 1e-13 * loss * max(1.0, abs(want_ratio))


@pytest.mark.parametrize("pair,x,turns", [
    (PairIndex(1, 47), 3.0, 1.0 / math.pi),  # Im z = 2: the alternating sum lost 4 digits
    (PairIndex(1, 28), 3.7526, 1e-9),         # log g is about 74 here
    (PairIndex(1, 28), 3.7526, 1e-6),
])
def test_series_keeps_log_g_exact_near_the_axis(pair, x, turns):
    # the alternating sum of P lost up to 4 digits here and was kept: log g
    # was off by 1.1e-9 at (1,47) and by 3.7e-13 and 9.8e-13 at (1,28)
    ref = mp.log(oracle(pair, complex(x, 2 * math.pi * turns), dps=80))
    got = eval_model_turns(pair, x, turns)
    assert abs(got.real - float(ref.real)) <= 5e-14
    assert abs((got.imag - float(ref.imag) + math.pi) % (2 * math.pi) - math.pi) <= 1e-13


def test_fallback_where_both_sums_cancel(monkeypatch):
    # at Im z = 1 the phases of the series' terms spread and it cancels too
    pair, x, yr = PairIndex(1, 47), 3.6, 1.0
    table = build_coefficients(pair)
    assert _gap_series(table, x, yr)[2] < CANCEL_TOL
    calls = []
    monkeypatch.setattr(specfun, "_poly_logsum_mp", lambda *a: calls.append(a) or _poly_logsum_mp(*a))
    got_log, got_ratio, _ = _poly_eval(table, True, x, yr)
    # the digits asked for are the alternating sum's loss + 10, as before the series
    assert [a[4] for a in calls] == [10 - math.log10(_poly_logsum(table.log_abs_numer, True, x, yr)[2])]
    want_log, want_ratio = p_oracle(pair, x, yr)
    assert log_p_error(got_log, want_log) <= 1e-14 * max(1.0, abs(want_log))
    assert abs(got_ratio - want_ratio) <= 1e-13 * abs(want_ratio)


# ---- the Bank-Laine property of E = g/g' -------------------------------------

BL_PAIRS = [PairIndex(m, n) for m in range(4) for n in range(3)]


def bank_laine_E(pair: PairIndex):
    return lambda z: from_log(eval_model(pair, z) - eval_model_derivative(pair, z))


@pytest.mark.parametrize("pair", BL_PAIRS)
def test_bank_laine_coefficient_is_twice_the_schwarzian(pair):
    # E'' + A E = 0 with 4A = apply_B(E) = 2 S(g): the contour functional
    # against the closed forms S(g) = -e^{2z}/2 + (m-2n) e^z - N^2/2 and A = S/2
    E = bank_laine_E(pair)
    for z in (0.3 + 0.5j, -0.4 + 2.0j, 0.9 - 1.2j, -1.5 - 0.3j):
        S, A = model_schwarzian(pair, z), bank_laine_A(pair, z)
        assert abs(apply_B(E, z) - 4 * A) <= 1e-12 * max(1.0, abs(S))


@given(m=st.integers(0, 7), n=st.integers(0, 5),
       x=st.floats(-1.5, 1.5), y=st.floats(-math.pi, math.pi))
@settings(max_examples=40, derandomize=True, deadline=None)
@example(m=0, n=0, x=0.0, y=1e-12)
def test_bank_laine_identity_over_pairs(m, n, x, y):
    # the identity above as a property over pairs and points, skipping the
    # disks around z that hold a zero or pole of E.  The example's Cauchy
    # circle samples points within 1e-12 of the axis, where an absolute snap
    # onto the seam would zero the phase of g
    pair, z = PairIndex(m, n), complex(x, y)
    try:
        B = apply_B(bank_laine_E(pair), z)
    except ValueError as exc:
        assume("zero/pole" not in str(exc))
        raise
    S = model_schwarzian(pair, z)
    assert abs(B - 2 * S) <= 1e-12 * max(1.0, abs(S))


@pytest.mark.parametrize("pair", BL_PAIRS)
def test_bank_laine_derivative_at_zeros_and_poles(pair):
    # E' = +1 at every zero of g and -1 at every pole (central differences)
    E = bank_laine_E(pair)
    h = 1e-5
    for roots, sign in ((numer_roots(pair), 1.0), (denom_roots(pair), -1.0)):
        for r in roots:
            z0 = cmath.log(r)
            d = (to_complex(E(z0 + h)) - to_complex(E(z0 - h))) / (2 * h)
            assert abs(d - sign) < 1e-8


@given(m=st.integers(0, 7), n=st.integers(0, 5), at_pole=st.booleans(),
       k=st.integers(-40, 40), data=st.data())
@settings(max_examples=80, derandomize=True, deadline=None)
def test_bank_laine_derivative_over_pairs(m, n, at_pole, k, data):
    # E' = +1 at a zero of g and -1 at a pole, as a property over pairs, a
    # drawn root and a drawn period 2 pi i k; the five-point difference
    # leaves about 1e-11 of truncation and rounding on this range
    pair = PairIndex(m, n)
    roots = denom_roots(pair) if at_pole else numer_roots(pair)
    assume(roots)
    r = roots[data.draw(st.integers(0, len(roots) - 1), label="root index")]
    z0 = cmath.log(r) + 2j * math.pi * k
    E = bank_laine_E(pair)
    h = 1e-4
    d = (to_complex(E(z0 - 2 * h)) - 8 * to_complex(E(z0 - h))
         + 8 * to_complex(E(z0 + h)) - to_complex(E(z0 + 2 * h))) / (12 * h)
    assert abs(d - (-1.0 if at_pole else 1.0)) < 1e-9


def test_apply_B_rejects_a_disk_around_a_zero_of_E():
    # E = g/g' vanishes where g does; a disk of radius 0.25 around z0 + 0.05 holds that zero
    pair = PairIndex(1, 1)
    z0 = cmath.log(numer_roots(pair)[0])
    with pytest.raises(ValueError, match=r"contains a zero/pole \(winding 1\)$"):
        apply_B(bank_laine_E(pair), z0 + 0.05)


# ---- loud failures -----------------------------------------------------------

def test_root_registry_cap_fails_loudly():
    # P of (0, 33) has degree 66, past the registry's degree-64 cap
    with pytest.raises(NotImplementedError, match="^root registry capped at degree 64$"):
        numer_roots(PairIndex(0, 33))


@pytest.mark.parametrize("m, n, name, bad", [
    (-1, 0, "m", "-1"),
    (0, specfun.PAIR_CAP + 1, "n", str(specfun.PAIR_CAP + 1)),
    (1.0, 0, "m", "1.0"),
    (0, "2", "n", "'2'"),
    (True, 1, "m", "True"),  # True == 1 would share the memo entries of PairIndex(1, 1)
    (0, False, "n", "False"),
])
def test_pair_index_rejects_out_of_range_or_non_integer(m, n, name, bad):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer in \[0, {specfun.PAIR_CAP}\], got {bad}$"):
        PairIndex(m, n)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_eval_model_rejects_a_non_finite_real_part(x):
    with pytest.raises(EvalDomainError, match=rf"^non-finite Re z: {x!r}$"):
        eval_model(PairIndex(1, 1), complex(x, 0.3))


@pytest.mark.parametrize("read", [eval_model, eval_model_derivative, log_derivative])
@pytest.mark.parametrize("y", [math.inf, -math.inf, math.nan])
def test_a_non_finite_imaginary_part_is_outside_the_domain(read, y):
    # not an OverflowError or ValueError from reducing Im z to turns
    with pytest.raises(EvalDomainError, match=rf"^non-finite Im z: {y!r}$"):
        read(PairIndex(1, 1), complex(0.3, y))


def test_unknown_variants_are_rejected():
    pair = PairIndex(1, 1)
    with pytest.raises(ValueError, match="^unknown variant 'third'$"):
        eval_model_turns(pair, 0.5, 0.1, "third")
    with pytest.raises(ValueError, match="^unknown variant 'third'$"):
        eval_model_derivative(pair, 0.5 + 0.6j, "third")
    with pytest.raises(ValueError, match="^unknown variant 'third'$"):
        log_derivative(pair, 0.5 + 0.6j, "third")


@pytest.mark.parametrize("read", [real_log_gap, real_log_gap_slope, real_log_value, real_log_value_slope])
def test_unknown_variants_are_rejected_on_the_real_axis(read):
    # no variant other than plain and half is read as the plain model
    for bad in ("halff", "bogus", None):
        with pytest.raises(ValueError, match=rf"^unknown variant {bad!r}$"):
            read(PairIndex(1, 1), 0.5, bad)


def test_tail_expansion_residual_needs_positive_y():
    with pytest.raises(ValueError, match=r"^tail residual needs y > 0$"):
        tail_expansion_residual(PairIndex(1, 1), 0.0)
