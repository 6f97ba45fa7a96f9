"""Conjugating diffeomorphism: shifts, phi asymptotics, psi maps, fixed points."""

import dataclasses
import math
import os
import sys
import threading

import mpmath as mp
import numpy as np
import pytest

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
from banklaine.specfun import HALF, PLAIN, PairIndex, build_coefficients, real_log_gap_deriv

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
    assert rep.deriv_left == pytest.approx(4.0, abs=1e-6)
    assert rep.deriv_right == pytest.approx(1.0, abs=1e-6)
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


# ---- fixed points ------------------------------------------------------------

def test_fixed_point_of_00_to_11_is_log6():
    # phi(p) = p forces P(w) = Q(w): here w^2/6 = w, i.e. w = 6
    fp = find_fixed_points(DiffeoSpec(P00, P11))
    assert fp.tag == "scan"
    assert len(fp.points) == 1
    assert fp.points[0] == pytest.approx(math.log(6.0), abs=1e-9)


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


def test_phi_deriv_is_the_ratio_of_gap_slopes():
    # deriv(x) re-solves phi(x) from the warm start value(x) left, as
    # value(x) on a twin solver does, and divides F_dst'(x) by F_src'(phi)
    spec = DiffeoSpec(P10, PairIndex(2, 3), PLAIN, HALF)
    solver, twin = PhiSolver(spec), PhiSolver(spec)
    for x in (-12.0, -11.8, 3.0, 0.5, 0.7, 9.0, -2.0):
        assert solver.value(x) == twin.value(x)
        want = real_log_gap_deriv(spec.dst, x) / real_log_gap_deriv(spec.src, twin.value(x))
        assert solver.deriv(x) == want
    for x in (20.0, -6.0, -5.9):  # cold: no value(x) before
        want = real_log_gap_deriv(spec.dst, x) / real_log_gap_deriv(spec.src, twin.value(x))
        assert solver.deriv(x) == want


def test_phi_solver_memo_keeps_the_bits(monkeypatch):
    # deriv(x) after value(x) re-solves x from the warm start value(x) left;
    # the solver's last (F, F') of each model spares F_dst(x) and F_src at
    # the phi that value(x) checked.  F is pure, so a psi table swept as
    # _PsiCache sweeps it has the bits of a twin whose memo is reset before
    # every call
    from banklaine import diffeo
    from banklaine.surgery import _PsiCache

    calls = [0]
    gap_slope = diffeo.real_log_gap_slope

    def counted(*args):
        calls[0] += 1
        return gap_slope(*args)

    monkeypatch.setattr(diffeo, "real_log_gap_slope", counted)
    chain = [(P11, PLAIN), (PairIndex(1, 3), HALF), (PairIndex(2, 5), PLAIN)]
    for side, lo, hi in ((RIGHT, 0.0, _PsiCache.SPAN), (LEFT, -_PsiCache.SPAN, 0.0)):
        for pm in build_psi(chain, side, l=2):
            xs = _PsiCache(pm, pm.deriv, lo, hi).xs.tolist()
            sweeps = []
            for reset in (False, True):
                psi, out = dataclasses.replace(pm, solver=None), []  # a fresh solver
                calls[0] = 0
                for x in xs:
                    for f in (psi, psi.deriv):
                        if reset:
                            psi.solver._last = dict.fromkeys(psi.solver._last, (math.nan, None))
                        out.append(f(x).hex())
                sweeps.append((out, calls[0]))
            (got, n_memo), (want, n_reset) = sweeps
            assert got == want, side
            assert n_memo < 0.9 * n_reset, (side, n_memo, n_reset)


# ---- sharing one solver ----------------------------------------------------------

def test_concurrent_phi_solver_matches_serial():
    # every value reads and rewrites the shared warm start, which the
    # solver's own lock guards; a torn read would polish from another x
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
                assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12), x
