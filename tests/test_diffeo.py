"""Conjugating diffeomorphism: shifts, phi asymptotics, psi maps, fixed points."""

import dataclasses
import math
import os
import sys
import threading
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from banklaine import diffeo, specfun
from banklaine.diffeo import (
    LEFT,
    RIGHT,
    DiffeoSpec,
    _bisect_newton,
    PhiSolver,
    asymptotic_report,
    build_psi,
    closed_form_c,
    find_fixed_points,
    r0_constant,
    solve_shift,
)
from banklaine.specfun import HALF, PLAIN, PairIndex, _horner, build_coefficients, real_log_gap_slope

P00, P10, P11 = PairIndex(0, 0), PairIndex(1, 0), PairIndex(1, 1)


# ---- shifts ------------------------------------------------------------------

def test_shift_00_plain_is_loglog2():
    s = solve_shift(P00, PLAIN)
    assert s.value == pytest.approx(math.log(math.log(2.0)), abs=1e-12)
    assert s.residual < 1e-12


def test_shift_00_half_is_loglog3():
    s = solve_shift(P00, HALF)
    assert s.value == pytest.approx(math.log(math.log(3.0)), abs=1e-12)


def test_shift_large_pair_keeps_its_gap_tail():
    # c_N = 1/(binom(m+2n, m) N!) underflows a double for N = 182; the
    # scaled gap tail must still resolve g(s) = 3 against a 400-digit root
    pair = PairIndex(1, 90)
    s = solve_shift(pair, HALF)
    t = build_coefficients(pair)
    with mp.workdps(400):
        B = [mp.mpf(c.numerator) / c.denominator for c in reversed(t.numer)]
        A = [mp.mpf(c.numerator) / c.denominator for c in reversed(t.denom)]

        def g_minus_3(u):
            w = mp.exp(u)
            return mp.polyval(B, w) / mp.polyval(A, w) * mp.exp(w) - 3

        root = float(mp.findroot(g_minus_3, mp.mpf(s.value)))
    assert s.value == pytest.approx(root, abs=1e-12)
    assert s.residual < 1e-12


def test_shift_10_solves_transcendental():
    # g_{1,0}(s) = 2 means e^w = 2(1 + w) at w = e^s
    s = solve_shift(P10, PLAIN).value
    w = math.exp(s)
    assert math.exp(w) == pytest.approx(2.0 * (1.0 + w), rel=1e-12)
    assert s == pytest.approx(0.5178093745199556, abs=1e-12)


def test_shift_trend_toward_r0():
    """s-bar - log N marches monotonically toward r0 along N = 9, 17, 33, 65."""
    r0 = r0_constant()
    frozen = {9: 0.2535865800, 17: 0.1494214778, 33: 0.0850481011, 65: 0.0473337793}
    prev = None
    for n in (4, 8, 16, 32):
        N = 2 * n + 1
        d = solve_shift(PairIndex(0, n), HALF).value - math.log(N) - r0
        assert d == pytest.approx(frozen[N], abs=1e-8)
        if prev is not None:
            assert abs(d) < abs(prev)
        prev = d


def test_r0_identity():
    r0 = r0_constant()
    assert abs(math.exp(r0) + r0 + 1.0) < 1e-12
    assert abs(r0 - (-1.27846454)) < 1e-7


# ---- spec constants ----------------------------------------------------------

def test_closed_form_constants():
    spec = DiffeoSpec(P00, P11)
    assert spec.kappa == 4.0
    assert spec.c == pytest.approx(-math.log(72.0), abs=1e-14)
    assert spec.delta == 0.5
    # half-shifted target picks up -(1/N) log 2
    assert closed_form_c(P00, P00, PLAIN, HALF) == pytest.approx(-math.log(2.0), abs=1e-15)
    # and a half-shifted source cancels it
    assert closed_form_c(P00, P00, HALF, HALF) == 0.0


def test_kappa_below_one():
    spec = DiffeoSpec(P11, P00)
    assert spec.kappa == 0.25
    assert spec.delta == 0.125
    assert spec.c == pytest.approx(math.log(72.0) / 4.0, abs=1e-14)


# ---- phi ---------------------------------------------------------------------

def test_identity_spec_is_exact():
    spec = DiffeoSpec(P11, P11)
    assert spec.is_identity
    assert PhiSolver(spec).value(1.234) == 1.234


def test_phi_deep_negative_matches_affine():
    spec = DiffeoSpec(P00, P11)
    got = PhiSolver(spec).value(-30.0)
    assert abs(got - (4.0 * -30.0 - math.log(72.0))) < 1e-6


def test_phi_right_tail_collapses():
    spec = DiffeoSpec(P00, P11)
    assert abs(PhiSolver(spec).value(20.0) - 20.0) < math.exp(-10.0)


def test_conjugacy_residual_band():
    spec = DiffeoSpec(P00, P11)
    solver = PhiSolver(spec)
    worst = max(solver.conjugacy_residual(float(x)) for x in np.arange(-40, 40.5, 0.5))
    assert worst < 1e-11


def test_phi_monotone():
    solver = PhiSolver(DiffeoSpec(P00, P11))
    xs = np.arange(-40, 40.01, 0.125)
    vals = np.array([solver.value(float(x)) for x in xs])
    assert np.all(np.diff(vals) > 0)


def test_phi_derivative_limits():
    solver = PhiSolver(DiffeoSpec(P00, P11))
    assert solver.deriv(-30.0) == pytest.approx(4.0, abs=1e-9)
    assert solver.deriv(25.0) == pytest.approx(1.0, abs=1e-9)


# ---- asymptotic report -------------------------------------------------------

def test_report_fits_closed_form():
    spec = DiffeoSpec(P00, P11)
    rep = asymptotic_report(spec, np.arange(-40.0, 40.5, 0.5))
    assert rep.tag == "fitted"
    assert rep.kappa_hat == pytest.approx(4.0, abs=1e-4)
    assert rep.c_hat == pytest.approx(-math.log(72.0), abs=1e-4)
    assert rep.residual_max < 1e-11
    assert rep.deriv_left == pytest.approx(4.0, abs=1e-12)
    assert rep.deriv_right == pytest.approx(1.0, abs=1e-12)
    d = rep.to_dict()
    assert d["kappa"] == 4.0 and d["tag"] == "fitted"


def test_report_half_target_constant():
    spec = DiffeoSpec(P00, P00, PLAIN, HALF)
    rep = asymptotic_report(spec, np.arange(-40.0, 40.5, 0.5))
    assert rep.kappa_hat == pytest.approx(1.0, abs=1e-4)
    assert rep.c_hat == pytest.approx(-math.log(2.0), abs=1e-4)


def test_report_identity_tag():
    rep = asymptotic_report(DiffeoSpec(P11, P11), np.arange(-20.0, 20.0, 0.5))
    assert rep.tag == "exact"
    assert rep.residual_max == 0.0


def test_report_degenerate_grid():
    with pytest.raises(ValueError, match="degenerate"):
        asymptotic_report(DiffeoSpec(P00, P11), np.arange(-40.0, -30.0, 1.0))


# ---- psi ---------------------------------------------------------------------

def test_psi_identity_link():
    chain = [(P11, PLAIN), (P11, PLAIN)]
    psi = build_psi(chain, RIGHT, 1)[0]
    assert psi.exact_identity
    assert psi(3.7) == 3.7 and psi.deriv(3.7) == 1.0


def test_psi_right_side_anchored_and_bounded():
    chain = [(P00, PLAIN), (P10, PLAIN)]
    psi = build_psi(chain, RIGHT, 1)[0]
    assert abs(psi(0.0)) < 1e-9
    xs = np.arange(0.0, 40.0, 0.5)
    vals = np.array([psi(float(x)) for x in xs])
    assert np.all(np.diff(vals) > 0)
    dev = np.abs(vals - xs)
    # plateau value is s_dst - s_src
    plateau = solve_shift(P10).value - solve_shift(P00).value
    assert dev.max() == pytest.approx(plateau, abs=1e-9)


def test_psi_right_scaling():
    chain = [(P00, PLAIN), (P10, PLAIN)]
    psi1 = build_psi(chain, RIGHT, 1)[0]
    psi3 = build_psi(chain, RIGHT, 3)[0]
    # psi_l(x) = l * psi_1(x / l) by construction
    for x in (0.5, 2.0, 11.0):
        assert psi3(x) == pytest.approx(3.0 * psi1(x / 3.0), rel=1e-12)


def test_psi_left_side_slopes():
    chain = [(PairIndex(0, 4), HALF), (PairIndex(0, 8), HALF)]
    psi = build_psi(chain, LEFT, 1)[0]
    assert abs(psi(0.0)) < 1e-9
    xs = np.arange(-30.0, 30.0, 0.5)
    vals = np.array([psi(float(x)) for x in xs])
    assert np.all(np.diff(vals) > 0)
    # deep left: psi'(x) -> N_k * kappa / N_{k+1} = 1; the 1/N_{k+1} input
    # compression means "deep" starts around x ~ -20 * N_{k+1}
    assert psi.deriv(-600.0) == pytest.approx(1.0, rel=1e-6)


def test_psi_rejects_bad_side():
    with pytest.raises(ValueError):
        build_psi([(P00, PLAIN), (P11, PLAIN)], "upper", 1)


def test_psi_rejects_a_scale_below_one():
    with pytest.raises(ValueError, match="^l must be a positive integer$"):
        build_psi([(P00, PLAIN), (P11, PLAIN)], RIGHT, l=0)


def test_solve_shift_rejects_an_unknown_variant():
    with pytest.raises(ValueError, match="^unknown variant 'nope'$"):
        solve_shift(P11, "nope")


@pytest.mark.parametrize("variants", [{"variant_src": "x"}, {"variant_dst": "x"}])
def test_diffeo_spec_rejects_an_unknown_variant(variants):
    # checked once, at construction: a PhiSolver reads its resolved models per lookup
    with pytest.raises(ValueError, match="^unknown variant 'x'$"):
        DiffeoSpec(P00, P11, **variants)


# ---- fixed points ------------------------------------------------------------

def test_fixed_point_of_00_to_11_is_log6():
    # phi(p) = p forces P(w) = Q(w): here w^2/6 = w, i.e. w = 6
    fp = find_fixed_points(DiffeoSpec(P00, P11))
    assert fp.tag == "closed-form"
    assert len(fp.points) == 1
    assert abs(fp.points[0] - math.log(6.0)) <= math.ulp(math.log(6.0))


def test_fixed_points_of_41_to_70_are_0_and_log2():
    # plain ends: phi(p) = p where A = P_dst Q_src - P_src Q_dst vanishes, and A(1) = A(2) = 0 exactly
    src, dst = PairIndex(4, 1), PairIndex(7, 0)
    (p_src, q_src), (p_dst, q_dst) = ((build_coefficients(pr).numer, build_coefficients(pr).denom) for pr in (src, dst))
    value = lambda cs, w: sum(c * w**k for k, c in enumerate(cs))
    for w in (Fraction(1), Fraction(2)):
        assert value(p_dst, w) * value(q_src, w) == value(p_src, w) * value(q_dst, w)
    fp = find_fixed_points(DiffeoSpec(src, dst))
    assert len(fp.points) == 2
    assert fp.points[0] == pytest.approx(0.0, abs=1e-14)
    assert fp.points[1] == pytest.approx(math.log(2.0), abs=1e-14)


def test_fixed_point_of_plain_00_to_half_01():
    # mixed variants: G_dst = (g_dst + 1)/2 meets G_src = g_src where e^w A = c B with c = 1 - 2 = -1
    spec = DiffeoSpec(P00, PairIndex(0, 1), PLAIN, HALF)
    fp = find_fixed_points(spec)
    assert len(fp.points) == 1
    assert fp.points[0] == pytest.approx(0.9904725132719643, abs=1e-12)
    assert abs(PhiSolver(spec).value(fp.points[0]) - fp.points[0]) <= 1e-15


def test_fixed_point_search_reads_no_grid(monkeypatch):
    # D is read at the window ends and the cuts from the exact polynomials, not on a grid
    calls = []
    monkeypatch.setattr(diffeo, "_real_gap", lambda *a: calls.append(a) or specfun._real_gap(*a))
    fp = find_fixed_points(DiffeoSpec(PairIndex(2, 3), PairIndex(1, 5)))
    assert len(fp.points) == 1 and len(calls) <= 1000  # 39,973 on the 1e-3 grid
    assert [f.name for f in dataclasses.fields(fp)] == ["spec", "tag", "points", "cuts"]
    assert len(fp.cuts) <= 20


def test_fixed_point_cuts_sit_at_the_turns_of_h():
    # mixed variants with s = max(N, M) = 13: the cuts are solved in u = w/13, yet every turn of A and of
    # h = w + log|A/B| in the window, found from the exact signs of A' and A B + A' B - A B' in w itself, is one
    spec = DiffeoSpec(PairIndex(3, 0), PairIndex(8, 2), HALF, PLAIN)
    tables = [build_coefficients(pr) for pr in (spec.src, spec.dst)]

    def turns(w: Fraction) -> tuple[Fraction, Fraction]:
        """(A', A B + A' B - A B') at w, with A = 2 P_dst Q_src - P_src Q_dst and B = Q_dst Q_src."""
        (ps, dps), (qs, dqs), (pd, dpd), (qd, dqd) = (_horner(cs, w) for t in tables for cs in (t.numer, t.denom))
        a, da = 2 * pd * qs - ps * qd, 2 * (dpd * qs + pd * dqs) - dps * qd - ps * dqd
        b, db = qd * qs, dqd * qs + qd * dqs
        return da, a * b + da * b - a * db

    fp = find_fixed_points(spec)
    xs = np.linspace(fp.cuts[0], fp.cuts[-1], 2001)
    signs = np.array([[np.sign(v) for v in turns(Fraction(math.exp(x)))] for x in xs])
    turning = []
    for i, j in zip(*np.nonzero(signs[:-1] * signs[1:] < 0)):
        lo, hi = xs[i], xs[i + 1]
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if np.sign(turns(Fraction(math.exp(mid)))[j]) == signs[i, j] else (lo, mid)
        turning.append(lo)
    assert len(turning) == 5  # A' turns at x = 0.791, 3.071 and 6.044, h at 3.174 and 6.173
    assert all(min(abs(c - x) for c in fp.cuts) < 1e-9 for x in turning)


def test_fixed_points_reach_the_cap_and_fail_loudly_above_it():
    # at max(N, M) = 200 the coefficients of the cut polynomials keep below 1e258; they pass 1e308 near 238
    spec = DiffeoSpec(PairIndex(1, 99), PairIndex(0, 1), PLAIN, HALF)
    fp = find_fixed_points(spec)
    assert len(fp.points) == 1 and abs(PhiSolver(spec).value(fp.points[0]) - fp.points[0]) <= 1e-15
    with pytest.raises(NotImplementedError, match=r"^fixed points capped at max\(N, M\) = 200, got 201$"):
        find_fixed_points(DiffeoSpec(PairIndex(0, 100), P00))


@pytest.mark.parametrize("src, dst, count", [
    (PairIndex(2, 3), PairIndex(1, 5), 1),  # one crossing, near x = 1.655819
    (PairIndex(0, 2), PairIndex(3, 1), 0),  # D keeps one sign on the whole window
])
def test_fixed_points_are_roots_of_phi_minus_x(src, dst, count):
    spec = DiffeoSpec(src, dst)
    fp = find_fixed_points(spec)
    assert len(fp.points) == count
    solver = PhiSolver(spec)
    assert all(abs(solver.value(p) - p) <= 1e-15 for p in fp.points)
    if count:
        assert fp.points[0] == pytest.approx(1.655819, abs=1e-6)


def test_fixed_point_sandwich():
    spec = DiffeoSpec(P00, P11)
    fp = find_fixed_points(spec)
    p = fp.points[0]
    solver = PhiSolver(spec)
    below = np.arange(-10.0, p - 1.0, 0.25)
    above = np.arange(p + 1.0, 30.0, 0.25)  # beyond ~35, phi-x sinks under 1 ulp
    assert all(solver.value(float(x)) < x for x in below)
    assert all(solver.value(float(x)) > x for x in above)


def test_fixed_points_identity_tag():
    fp = find_fixed_points(DiffeoSpec(P00, P00))
    assert fp.tag == "identity" and fp.points == []


# ---- one evaluation per iterate ---------------------------------------------------

def test_root_finders_evaluate_once_per_iterate():
    # each iterate of the bisection, Newton and polish loops asks for
    # (f, f') once: no point is evaluated twice
    calls = []

    def fdf(u):
        calls.append(u)
        return u ** 3 + u - 1.0, 3.0 * u * u + 1.0

    root, res, it = _bisect_newton(fdf, -3.0, 3.0)
    assert res <= 1e-13 and abs(root ** 3 + root - 1.0) <= 1e-13
    assert len(calls) == it + 3 == len(set(calls))  # the two bracket ends, then one per iterate
    calls.clear()
    u = PhiSolver(DiffeoSpec(P00, P11))._polish(2.0, fdf)
    assert u == pytest.approx(root, abs=1e-15)
    assert 3 <= len(calls) == len(set(calls))


# ---- root-finder fallbacks ----------------------------------------------------------

@pytest.mark.parametrize("root,edges", [(10.0, [2.0, 4.0, 8.0, 16.0]), (-10.0, [-1.0, -3.0, -7.0, -15.0])])
def test_bisect_newton_expands_a_bracket_that_misses_the_root(root, edges):
    # [0, 1] misses the root of x - root: the bracket grows by its own width
    # on the side that misses, four times, then the solve lands on the root
    calls = []

    def fdf(x):
        calls.append(x)
        return x - root, 1.0

    assert _bisect_newton(fdf, 0.0, 1.0)[:2] == (root, 0.0)
    assert calls[:6] == [0.0, 1.0] + edges


def test_bisect_newton_fails_loudly_without_a_sign_change():
    calls = []
    with pytest.raises(RuntimeError, match="bracketing failure"):
        _bisect_newton(lambda x: calls.append(x) or (1.0, 0.0), 0.0, 1.0)
    assert len(calls) == 2 + 121  # the two ends, then 121 expansions of the lower one


def test_polish_fallbacks():
    polish = PhiSolver(DiffeoSpec(P00, P11))._polish
    # F' <= 0: polish stops and gives the iterate back untouched
    assert polish(1.0, lambda u: (math.cos(u), -math.sin(u))) == 1.0
    # plain Newton on atan diverges from 2 (2 -> -3.54 -> 13.9 -> ...); the
    # step that leaves the bracket [-3.54, 2] is replaced by its midpoint
    seen = []

    def atan(u):
        seen.append(u)
        return math.atan(u), 1.0 / (1.0 + u * u)

    assert abs(polish(2.0, atan)) < 1e-13
    assert seen[2] == 0.5 * (seen[0] + seen[1])
    # a derivative that underflows makes the Newton step infinite; while one
    # end of the bracket is open, the iterate moves by 2 toward the root
    for u0, path in ((5.0, [5.0, 3.0, 1.0]), (-3.0, [-3.0, -1.0, 1.0])):
        seen = []
        assert polish(u0, lambda u: seen.append(u) or (u - 1.0, 1e-320)) == 1.0
        assert seen == path


def test_phi_deriv_is_the_ratio_of_gap_slopes():
    # value(x) and deriv(x) read one solve of phi(x), which a twin solver
    # repeats to the bit, and deriv divides F_dst'(x) by F_src'(phi)
    spec = DiffeoSpec(P10, PairIndex(2, 3), PLAIN, HALF)
    solver, twin = PhiSolver(spec), PhiSolver(spec)
    for x in (-12.0, -11.8, 3.0, 0.5, 0.7, 9.0, -2.0):
        assert solver.value(x) == twin.value(x)
        want = real_log_gap_slope(spec.dst, x)[1] / real_log_gap_slope(spec.src, twin.value(x))[1]
        assert solver.deriv(x) == want
    for x in (20.0, -6.0, -5.9):  # no value(x) before
        want = real_log_gap_slope(spec.dst, x)[1] / real_log_gap_slope(spec.src, twin.value(x))[1]
        assert solver.deriv(x) == want


def test_phi_solver_memo_keeps_the_bits():
    # every real-axis caller reads F = log(g - 1) through specfun._real_gap's
    # memo: deriv(x) after value(x) repeats the solve of x and finds every F
    # it reads there.  F is pure, so a sweep over a psi table's nodes has the
    # bits of a sweep that clears the memo before every call, with fewer
    # evaluations (misses)
    from banklaine.surgery import _PsiCache

    memo = specfun._real_gap
    chain = [(P11, PLAIN), (PairIndex(1, 3), HALF), (PairIndex(2, 5), PLAIN)]
    for side, lo, hi in ((RIGHT, 0.0, _PsiCache.SPAN), (LEFT, -_PsiCache.SPAN, 0.0)):
        for pm in build_psi(chain, side, l=2):
            xs = _PsiCache.nodes(lo, hi).tolist()
            sweeps = []
            for clear in (False, True):
                psi, out, misses = dataclasses.replace(pm, solver=None), [], 0  # a fresh solver
                memo.cache_clear()
                for x in xs:
                    for f in (psi, psi.deriv):
                        if clear:
                            misses += memo.cache_info().misses
                            memo.cache_clear()
                        out.append(f(x).hex())
                sweeps.append((out, misses + memo.cache_info().misses))
            (got, n_memo), (want, n_clear) = sweeps
            assert got == want, side
            assert n_memo < 0.9 * n_clear, (side, n_memo, n_clear)


# ---- sharing one solver ----------------------------------------------------------

def test_concurrent_phi_solver_matches_serial():
    # a solve keeps no state and reads F through the process-wide memo, an
    # lru_cache, so threads sharing one solver in any order give the serial
    # bits; a torn memo read would polish on another F
    spec = DiffeoSpec(P00, P11)
    xs = [float(x) for x in np.linspace(-30.0, 20.0, 41)]
    serial = PhiSolver(spec)
    want = {x: (serial.value(x), serial.deriv(x)) for x in xs}
    shared = PhiSolver(spec)
    n_threads = (os.cpu_count() or 1) + 3
    barrier = threading.Barrier(n_threads)
    results, errors = [None] * n_threads, []

    def work(i):
        try:
            barrier.wait(timeout=60)
            order = xs[::-1] if i % 2 else xs  # half sweep downwards
            results[i] = {x: (shared.value(x), shared.deriv(x)) for x in order[i:] + order[:i]}
        except BaseException as exc:  # surfaced by the asserts below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert not errors, errors
    for got in results:
        for x in xs:
            for a, b in zip(got[x], want[x]):
                assert a.hex() == b.hex(), x
