"""Gluing surgery: spiral charts, strip homeomorphism, assembled maps, dilatation."""

import cmath
import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from banklaine.diffeo import LEFT, RIGHT, DiffeoSpec, PsiMap, closed_form_c, solve_shift
from banklaine.sequences import ProfileBundle
from banklaine.specfun import PLAIN, PairIndex
from banklaine.surgery import (
    GluedMap,
    PairCapError,
    ResolutionError,
    UninterpolatedRegion,
    affine_beltrami,
    assemble,
    beltrami_at,
    dilatation_integral,
    spiral_charts,
)
from banklaine.scaledcx import from_log, to_complex, wrap_phase
from banklaine import sequences, specfun, surgery
from banklaine.surgery import (SpiralCharts, StripHomeo, _affine_mu_abs, _c_quot, _cell_range, _compose_affine,
                               _SpiralEngine)

P00, P11 = PairIndex(0, 0), PairIndex(1, 1)
TWO_PI = 2.0 * math.pi
# report figures and cell-state labels recorded from the scalar per-cell quadrature,
# except the power and sectors cell counts, which come from straddle tests that read _locate
PINS = json.loads((Path(__file__).parent / "dilatation_pins.json").read_text())


@pytest.fixture(scope="module")
def strips_map():
    return assemble("strips", lam1=0.5, lam2=0.5)


@pytest.fixture(scope="module")
def spiral_map():
    return assemble("spiral", lower=(0, 0), upper=(1, 1))


@pytest.fixture(scope="module")
def power_map():
    return assemble("power", rho=0.75, delta=0.5)


@pytest.fixture(scope="module")
def sectors_map():
    return assemble("strips", lam1=0.5, lam2=0.5, sectors=3)


def _cell_labels(eng, zs) -> tuple[list, np.ndarray, np.ndarray]:
    """``cell_states`` at zs with each code read as its name: (labels, conformal, uninterpolated)."""
    codes, names, conformal, uninterpolated = eng.cell_states(np.asarray(zs, complex))
    return [names[c] for c in codes.tolist()], conformal, uninterpolated


@pytest.fixture(scope="module")
def strips_report(strips_map):
    return dilatation_integral(strips_map, 1.0, 450.0)


@pytest.fixture(scope="module")
def power_report(power_map):
    return dilatation_integral(power_map, 0.5, 8.0)


# ---- spiral charts -------------------------------------------------------------

@pytest.mark.parametrize("kappa", [1 / 8, 1 / 3, 1.0, 2.0, 4.0, 8.0])
def test_chart_exponent_reciprocal_and_order(kappa):
    ch = spiral_charts(kappa)
    beta0 = math.log(kappa) / TWO_PI
    assert abs(1.0 / ch.mu - complex(1.0, beta0)) < 1e-14
    # order of growth 1/Re(mu) = 1 + log^2(kappa)/(4 pi^2)
    assert abs(1.0 / ch.mu.real - (1.0 + beta0 * beta0)) < 1e-12
    assert ch.order == pytest.approx(1.0 + beta0 * beta0, abs=1e-14)


def test_chart_kappa_one_is_identity():
    ch = spiral_charts(1.0)
    assert ch.mu == 1.0
    for z in (0.7 + 0.4j, -2.0 + 1.5j, 3.0 - 0.1j):
        assert ch.p(z) == pytest.approx(z, rel=1e-15)
        assert ch.h(z) == pytest.approx(z, rel=1e-15)


def test_cut_edges_are_identified():
    # p(x + i0) and p(kappa x - i0) meet along the spiral; the gap closes
    # linearly with the offset eps, so at eps = 1e-8 it sits far below 1e-6.
    ch = spiral_charts(4.0)
    for x in -np.geomspace(0.1, 30.0, 20):
        assert ch.boundary_gap(float(x)) < 1e-6


@pytest.mark.parametrize("kappa", [0.0, -2.0, math.inf, math.nan])
def test_charts_reject_a_stretch_that_is_not_positive_and_finite(kappa):
    with pytest.raises(ValueError, match=f"^kappa must be positive and finite, got {kappa}$"):
        spiral_charts(kappa)


def test_boundary_gap_lives_on_the_negative_reals():
    with pytest.raises(ValueError, match="^the edge identification lives on x < 0$"):
        spiral_charts(4.0).boundary_gap(0.0)


@pytest.mark.parametrize("kappa", [1 / 3, 4.0])
def test_h_inverts_p_off_the_cut(kappa):
    ch = spiral_charts(kappa)
    for r in (0.3, 2.0, 17.0):
        for th in (-1.2, -0.3, 0.4, 1.5):
            z = r * cmath.exp(1j * th)
            assert abs(ch.h(ch.p(z)) - z) < 1e-12 * abs(z)


def test_h_prime_matches_finite_differences():
    ch = spiral_charts(4.0)
    d = 1e-6
    for w in (1.3 + 0.4j, -2.0 + 1.1j, 0.2 - 3.0j):
        fd = ((ch.h(w + d) - ch.h(w - d)) / (2 * d)
              + (ch.h(w + 1j * d) - ch.h(w - 1j * d)) / (2j * d)) / 2.0
        assert abs(fd - ch.h_prime(w)) < 1e-7 * abs(ch.h_prime(w))


def test_modulus_band_contains_circle_image_and_is_sharp():
    ch = spiral_charts(4.0)
    r = 50.0
    lo, hi = ch.modulus_band(r)
    assert lo == pytest.approx(r**ch.order / 2.0, rel=1e-14)  # sqrt(kappa) = 2
    assert hi == pytest.approx(r**ch.order * 2.0, rel=1e-14)
    logr = math.log(r)
    # sweep the circle; steer two extra points to xi -> +-pi where the
    # endpoints of the band are approached
    thetas = list(np.linspace(-math.pi + 1e-6, math.pi - 1e-6, 32))
    for xi_target in (math.pi - 1e-9, -math.pi + 1e-9):
        thetas.append(math.remainder(xi_target - ch.beta0 * logr, TWO_PI))
    mods = [abs(ch.h(r * cmath.exp(1j * th))) for th in thetas]
    assert min(mods) >= lo * (1.0 - 1e-12)
    assert max(mods) <= hi * (1.0 + 1e-12)
    assert min(mods) <= lo * (1.0 + 1e-6)
    assert max(mods) >= hi * (1.0 - 1e-6)


# ---- strip homeomorphism -------------------------------------------------------

def test_homeo_is_identity_for_equal_models():
    h = StripHomeo(DiffeoSpec(P00, P00))
    for x in (-11.0, -0.7, 0.0, 2.4, 30.0):
        for y in (-0.8, -0.2, 0.1, 0.9):
            assert h(complex(x, y)) == complex(x, y)


def test_homeo_fixes_band_complement():
    h = StripHomeo(DiffeoSpec(P00, P11))
    for z in (2.0 + 1.0j, -5.0 - 3.7j, 0.3 + 12.0j):
        assert h(z) == z


def test_homeo_positive_tail_flattens():
    h = StripHomeo(DiffeoSpec(P00, P11))
    assert h.kappa == 4.0
    z = 30.0 + 0.5j
    assert abs(h(z) - z) < 1e-5


def test_homeo_negative_end_shear():
    # as x -> -inf the interpolation u = base + |y| (x - base) has
    # du/dy -> -(c) above the axis and +c below, c the conjugacy constant
    h = StripHomeo(DiffeoSpec(P00, P11))
    c = closed_form_c(P00, P11)
    _, uy_top, _, _ = h.jacobian(complex(-40.0, 0.25))
    _, uy_bot, _, _ = h.jacobian(complex(-40.0, -0.25))
    assert uy_top == pytest.approx(-c, abs=1e-4)
    assert uy_bot == pytest.approx(c, abs=1e-4)


def test_homeo_jacobian_matches_finite_differences():
    h = StripHomeo(DiffeoSpec(P00, P11))
    d = 1e-6
    for z in (1.5 + 0.3j, -3.0 - 0.6j, -17.0 + 0.8j):
        ux, uy, vx, vy = h.jacobian(z)
        assert (vx, vy) == (0.0, 1.0)
        fd_x = (h(z + d).real - h(z - d).real) / (2 * d)
        fd_y = (h(z + 1j * d).real - h(z - 1j * d).real) / (2 * d)
        assert ux == pytest.approx(fd_x, rel=1e-5, abs=1e-7)
        assert uy == pytest.approx(fd_y, rel=1e-5, abs=1e-7)


# ---- assembled values ----------------------------------------------------------

def test_strips_center_value_is_two(strips_map):
    v = strips_map(0j)
    assert v.real == pytest.approx(math.log(2.0), abs=5e-15)
    assert v.imag == 0.0


def test_strips_positive_axis_law(strips_map):
    # on the positive reals the assembly reduces to the base model:
    # log G(x) = exp(x/l + s00), and case I has l = 1
    s00 = solve_shift(P00, PLAIN).value
    for x in (0.4, 1.3, 2.9, 5.5):
        v = strips_map(complex(x, 0.0))
        assert v.imag == 0.0
        assert math.isclose(v.real, math.exp(x + s00), rel_tol=1e-14)


def test_spiral_center_value(spiral_map):
    # at the puncture the glued map takes the model's value 3e/8
    v = to_complex(spiral_map(0j))
    assert v == pytest.approx(3.0 * math.e / 8.0, rel=1e-13)


def test_power_exponents_are_exact_rationals():
    gm = assemble("power", rho=0.75, delta=0.5)
    assert gm.params_dict["gamma"] == 2.0
    assert gm.params_dict["sigma"] == 1.5
    gm = assemble("power", rho=Fraction(7, 10), delta=0.5)
    assert gm.params_dict["gamma"] == 2.5
    assert gm.params_dict["sigma"] == 1.75


# ---- seams ---------------------------------------------------------------------

def test_spiral_seam_residuals(spiral_map):
    checks = spiral_map.seam_residuals(samples=64)
    names = {c.name for c in checks}
    assert {"positive-ray", "spiral-cut"} <= names
    for c in checks:
        assert c.max_gap < 1e-9, c


def test_strips_seam_residuals(strips_map):
    checks = strips_map.seam_residuals(samples=64)
    assert len(checks) >= 10
    for c in checks:
        assert c.max_gap < 1e-9, c


def test_mixed_seam_residuals():
    gm = assemble("mixed", lam1=0.5, lam2=1.0)
    checks = gm.seam_residuals(samples=48)
    # both hemispheres carry seams here, plus the real-axis matching line
    assert len(checks) > 20
    for c in checks:
        assert c.max_gap < 1e-9, c


@pytest.mark.parametrize("lam2", [1.0, 0.9])
def test_mixed_map_is_the_strips_map_below_the_axis(lam2):
    # the mixed flavor runs half-model pieces above the real axis only: below
    # it each side reads its plain ``below`` system, which is what the strips
    # map reads there, in the scalar and the array hooks alike
    mixed, strips = (assemble(flavor, lam1=0.5, lam2=lam2) for flavor in ("mixed", "strips"))
    rng = random.Random(29)
    zs = [cmath.rect(rng.uniform(1.0, 60.0), rng.uniform(-math.pi, 0.0)) for _ in range(300)]
    zs = [z for z in zs if z.imag < 0]
    for z in zs:
        assert mixed(z) == strips(z), z
        assert mixed.classify(z) == strips.classify(z), z
        assert mixed._impl.mu_quad(z) == strips._impl.mu_quad(z), z
    (labels, *flags), (want, *flags_want) = (_cell_labels(gm._impl, zs) for gm in (mixed, strips))
    assert labels == want
    assert [a.tolist() for a in flags] == [b.tolist() for b in flags_want]
    assert mixed._impl.mu_abs_quad(np.array(zs)).tolist() == strips._impl.mu_abs_quad(np.array(zs)).tolist()
    # above the axis the two maps differ
    assert sum(mixed(z.conjugate()) != strips(z.conjugate()) for z in zs) > len(zs) // 2


def test_power_seam_residuals(power_map):
    checks = power_map.seam_residuals(samples=16, strips=2)
    names = {c.name for c in checks}
    assert {"axis-identity", "ray+", "ray-"} <= names
    for c in checks:
        assert c.max_gap < 1e-9, c


def test_power_seams_need_no_mp_fallback(monkeypatch):
    # the numerator sums of (1,47) near x = 3.36 that lose 12-13 digits in
    # their alternating form (38 of them) are summed by the positive series
    calls = []
    fallback = specfun._poly_logsum_mp
    monkeypatch.setattr(specfun, "_poly_logsum_mp", lambda *a: calls.append(a[1:]) or fallback(*a))
    specfun._real_gap.cache_clear()  # F memoized by an earlier test would skip its sums here
    checks = assemble("power", rho=0.75, delta=0.5).seam_residuals(4, strips=1)
    assert max(c.max_gap for c in checks) < 1e-9
    assert calls == []


def test_power_seams_load_no_mpmath():
    # mpmath loads at the first sum that falls back, and power seams have none.
    # The test modules import mpmath themselves, so this runs in a fresh interpreter
    code = ("import sys, banklaine; from banklaine.surgery import assemble; "
            "assemble('power', rho=0.75, delta=0.5).seam_residuals(4, strips=1); "
            "assert 'mpmath' not in sys.modules, sorted(m for m in sys.modules if 'mpmath' in m)")
    path = [str(Path(surgery.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_power_map_reaches_large_n_strips():
    # locating U strip 14 needs solve_shift(PairIndex(1, 90), HALF), whose
    # gap tail c_N = 1/(binom(m+2n, m) N!) underflows a double unless scaled
    gm = assemble("power", rho=0.75, delta=0.5)
    assert gm.classify(600 * cmath.exp(1j)).k == 14


def test_power_axis_map_inverts_the_height_profile():
    """g read from the V strips agrees with the vectorised inverse H(g(y)) = y^gamma."""
    eng = assemble("power", rho=0.75, delta=0.5)._impl
    bundle = ProfileBundle(eng.m_seq, eng.n_seq, target_exponent=eng.gamma)
    ys = np.linspace(0.0, 60.0, 601)
    h = 1e-6
    for y, want, lo, hi in zip(ys, bundle.g(ys), bundle.g(np.maximum(ys - h, 0.0)), bundle.g(ys + h)):
        gv, gp = eng._g(float(y))
        assert gv == pytest.approx(want, rel=1e-14, abs=1e-12)
        if y > 0 and lo // TWO_PI == hi // TWO_PI:  # both sides in one strip
            assert gp == pytest.approx((hi - lo) / (2 * h), rel=1e-6)


# ---- Beltrami coefficients -----------------------------------------------------

def test_affine_beltrami_values():
    assert affine_beltrami(1.0, 4.0) == 0.6
    assert affine_beltrami(3.0, 3.0) == 0.0
    # anisotropic rescale x/a + i y/b has mu = (b - a)/(b + a)
    for a, b in ((2.0, 5.0), (7.0, 1.0)):
        want = (1.0 / a - 1.0 / b) / (1.0 / a + 1.0 / b)
        assert affine_beltrami(a, b) == pytest.approx(want, abs=1e-15)


def test_plain_interior_is_conformal(strips_map):
    s = beltrami_at(strips_map, 2.0 + 2.0j)
    assert s.mu == 0j
    assert s.K - 1.0 < 1e-12
    assert not s.indeterminate


@pytest.mark.parametrize("lams,mu_abs,K", [((0.5, 1.0), 0.5, 3.0), ((1.0, 1.0), 0.6, 4.0)])
def test_prefix_strip_distortion(lams, mu_abs, K):
    # the slope-l prefix strips are sheared copies of unit boxes, so the
    # distortion is the pure affine value (l - 1)/(l + 1)
    gm = assemble("strips", lam1=lams[0], lam2=lams[1])
    s = beltrami_at(gm, 0.8 + 3.0j)
    assert abs(s.mu) == pytest.approx(mu_abs, abs=1e-12)
    assert s.K == pytest.approx(K, abs=1e-12)


def test_power_q_is_continuous_and_its_wirtinger_derivatives_match_differences(power_map):
    eng = power_map._impl
    # Q changes its formula across Re w = 1 (|Im w| >= 1), |Im w| = 1
    # (Re w < 1) and the arc |w| = 1, but not its value: step across each
    # edge along its normal n
    eps = 1e-9
    for w0, n, pieces in ((complex(1.0, 3.0), 1.0, ("q-band", "q-identity")),
                          (complex(1.0, -2.5), 1.0, ("q-band", "q-identity")),
                          (complex(0.5, 1.0), 1j, ("q-square", "q-band")),
                          (complex(0.3, -1.0), -1j, ("q-square", "q-band")),
                          (cmath.exp(0.6j), cmath.exp(0.6j), ("q-disk", "q-square")),
                          (cmath.exp(-1.2j), cmath.exp(-1.2j), ("q-disk", "q-square"))):
        (p0, q0), (p1, q1) = eng._q(w0 - eps * n), eng._q(w0 + eps * n)
        assert (p0, p1) == pieces
        assert abs(q1 - q0) < 20 * eps, w0
    # inside the band and the disk, d/dw = (d/dx - i d/dy)/2 and
    # d/dw-bar = (d/dx + i d/dy)/2 of Q by central differences; the band
    # points keep g(|Im w| +- h) inside one V strip, where g is smooth
    h = 1e-6
    for w in (complex(0.4, 2.5), complex(0.7, -1.8), complex(0.1, 6.3), complex(0.5, 0.3), complex(0.2, -0.6)):
        piece, _ = eng._q(w)
        assert piece in ("q-band", "q-disk")
        ay = abs(w.imag)
        assert eng._g(ay - h)[0] // TWO_PI == eng._g(ay + h)[0] // TWO_PI
        qx = (eng._q(w + h)[1] - eng._q(w - h)[1]) / (2 * h)
        qy = (eng._q(w + 1j * h)[1] - eng._q(w - 1j * h)[1]) / (2 * h)
        qw, qwb = eng._dq(w, piece)
        assert abs(qw - (qx - 1j * qy) / 2) < 1e-7 * abs(qw), w
        assert abs(qwb - (qx + 1j * qy) / 2) < 1e-7 * max(abs(qw), 1.0), w


def test_power_eval_and_classify_do_not_differentiate_q():
    # Q's Wirtinger derivatives stay off the eval, classify and array-hook
    # path: only mu_parts reads them
    gm = assemble("power", rho=0.95, delta=0.5)
    z = complex(1e-180, 0.0)
    assert math.isfinite(gm(z).real)
    assert gm.classify(z).label == "U1|q-disk"
    assert _cell_labels(gm._impl, [z])[0] == ["q-disk"]


def test_power_disk_mu_near_the_origin_is_the_closed_form():
    # at rho = 0.95 the disk piece's dQ/dw-bar, (gamma - 1)/2 r^(gamma - 1) (w/r)^2,
    # would carry r^(gamma - 3) = r^-1.89 if formed as r^(gamma - 3) w^2, which
    # overflows a double at w = z^rho for z = 1e-180 and 1e-300.  There the
    # strip system reads q ~ 0, where it is conformal, so |mu| is the disk's
    # (gamma - 1)/(gamma + 1)
    eng = assemble("power", rho=0.95, delta=0.5)._impl
    want = (eng.gamma - 1.0) / (eng.gamma + 1.0)
    for z in (1e-180, 1e-300):
        assert eng.classify(complex(z)).label == "U1|q-disk"
        assert math.isclose(abs(eng.mu(complex(z))), want, rel_tol=1e-15), z


def test_disk_interpolation_beltrami_closed_form(power_map):
    # inside the unit disk the radial chart is w |w|^(gamma-1); its Beltrami
    # coefficient is (gamma-1)/(gamma+1) e^{2 i arg w}, conjugated here by
    # the holomorphic wedge twist rho z^(rho-1)
    rho, gamma = 0.75, 2.0
    for z in (0.5 * cmath.exp(0.3j), 0.62 * cmath.exp(-0.45j)):
        w = cmath.exp(rho * cmath.log(z))
        dp = rho * cmath.exp((rho - 1.0) * cmath.log(z))
        want = (gamma - 1.0) / (gamma + 1.0) * cmath.exp(2j * cmath.phase(w))
        want *= dp.conjugate() / dp
        s = beltrami_at(power_map, z)
        assert abs(s.mu - want) < 1e-13
        assert s.K == pytest.approx((gamma + 1.0) / (gamma - 1.0) * 0.5 + 0.5, rel=1e-12)


def test_band_distortion_bound(strips_map):
    # pointwise bound K - 1 <= 4 (1 + r) r / min(1, psi') with
    # r = |psi' - 1| + |psi - x| inside the displacement band
    rng = random.Random(7)
    y7 = 12.0 * math.pi
    kept = 0
    for _ in range(150):
        z = complex(rng.uniform(0.5, 8.0), y7 + rng.uniform(-3.0, 3.0))
        if not strips_map.classify(z).band:
            continue
        s = beltrami_at(strips_map, z)
        if s.indeterminate or s.psi_prime is None:
            continue
        kept += 1
        r = abs(s.psi_prime - 1.0) + abs(s.psi_gap)
        bound = 4.0 * (1.0 + r) * r / min(1.0, s.psi_prime)
        assert s.K_band - 1.0 <= bound + 1e-12
    assert kept >= 50


def test_distortion_stays_quasiconformal():
    rng = random.Random(21)
    maps = [
        assemble("strips", lam1=0.5, lam2=0.5),
        assemble("mixed", lam1=0.5, lam2=1.0),
        assemble("spiral", lower=(0, 0), upper=(1, 1)),
    ]
    for gm in maps:
        for _ in range(40):
            z = cmath.rect(rng.uniform(0.5, 60.0), rng.uniform(-math.pi, math.pi))
            s = beltrami_at(gm, z)
            if s.indeterminate:
                continue
            assert abs(s.mu) < 1.0
            assert 1.0 <= s.K < 20.0


def test_on_seam_sample_is_flagged(strips_map):
    s = beltrami_at(strips_map, complex(1.0, 12.0 * math.pi))
    assert s.indeterminate


def test_seam_distance_is_a_z_plane_distance(sectors_map, spiral_map, power_map):
    # step a distance delta off a seam along its normal; the seam lies in
    # the chart f (z^n on the sectors, h on the spiral, z^rho on power), where
    # it is the level set Im f = const, so the normal step is i conj(f')/|f'|
    # (the level set Re f = const has the normal conj(f')/|f'|)
    delta = 1e-4

    def step_off(z0, fprime, normal=1j):
        return z0 + delta * normal * fprime.conjugate() / abs(fprime)

    # sectors: pull back the first base strip seam above 2 pi (the top of a
    # band strip) by z^3, in sector 3 (a base sheet, arg z in [2 pi/3, pi))
    base = sectors_map._impl.base
    y = 2.0 * TWO_PI
    while True:
        info = base.classify(complex(3.0, y))
        top = y + (1.0 - info.t) * TWO_PI * info.y_div
        if info.band:
            break
        y = top + 0.1
    w0 = complex(3.0, top)
    z0 = abs(w0) ** (1.0 / 3.0) * cmath.exp(1j * (cmath.phase(w0) + TWO_PI) / 3.0)
    z = step_off(z0, 3.0 * z0 * z0)
    info = sectors_map.classify(z)
    assert info.region == "sector3" and info.label.startswith("sector3:base")
    assert info.seam_distance == pytest.approx(delta, rel=1e-3)
    # spiral: the positive ray of the h-chart, pushed into the w-plane by p
    charts = spiral_map._impl.charts
    w0 = charts.p(30.0)
    info = spiral_map.classify(step_off(w0, charts.h_prime(w0)))
    assert info.seam_distance == pytest.approx(delta, rel=1e-3)
    # power: the edges Re w = 1 and Im w = 1 of Q's band piece, w = z^rho, stepped into the band
    rho = power_map._impl.rho
    for w0, normal in ((complex(1.0, 3.0), -1.0), (complex(0.5, 1.0), 1j)):
        z0 = w0 ** (1.0 / rho)
        info = power_map.classify(step_off(z0, rho * z0 ** (rho - 1.0), normal))
        assert info.label == "U1|q-band"
        assert info.seam_distance == pytest.approx(delta, rel=1e-3)
    assert beltrami_at(power_map, complex(1.0 - 1e-12, 3.0) ** (1.0 / rho)).indeterminate
    # power: the U seam Im Q(z^rho) = 4 pi inside the band, where Q stretches Im w about 13-fold;
    # its normal in w is the gradient of Im Q, taken by central differences
    eng = power_map._impl

    def im_q(w):
        return eng._q(w)[1].imag

    lo, hi = 5.5, 6.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if im_q(complex(0.5, mid)) < 2 * TWO_PI else (lo, mid)
    w0, h = complex(0.5, lo), 1e-6
    grad = complex(im_q(w0 + h) - im_q(w0 - h), im_q(w0 + 1j * h) - im_q(w0 - 1j * h)) / (2 * h)
    z0 = w0 ** (1.0 / rho)
    fprime = grad.conjugate() * rho * z0 ** (rho - 1.0)  # conj(fprime) is the z-plane gradient of Im Q(z^rho)
    for step in (delta, 1e-10):
        z = step_off(z0, fprime, step / delta)
        info = power_map.classify(z)
        assert info.label == "U3|q-band"
        assert info.seam_distance == pytest.approx(step, rel=0.1)
    assert beltrami_at(power_map, z).indeterminate


# ---- dilatation integrals ------------------------------------------------------

def test_identity_gluing_has_no_dilatation():
    gm = assemble("spiral", lower=(0, 0), upper=(0, 0))
    rep = dilatation_integral(gm, 1.0, 40.0)
    assert rep.total < 1e-12
    # the cut is still declared as a seam, so a thin ring of cells
    # straddles it; none of them carry any distortion
    assert rep.straddle_fraction < 0.01


def test_spiral_dilatation_tail(spiral_map):
    rep = dilatation_integral(spiral_map, 1.0, 200.0)
    assert 0.0 < rep.total < 15.0
    assert rep.tail_increment(100.0) < 1e-3
    assert rep.tail_ok


def test_strips_mark_sums_decay(strips_report):
    sums = strips_report.strip_sums

    def mark(k):
        return sums.get(f"R{k}", 0.0) + sums.get(f"L{k}", 0.0)

    s7, s26, s57 = mark(7), mark(26), mark(57)
    assert s7 > s26 > s57 > 0.0
    assert s26 / s7 < 0.5
    assert s57 / s26 < 0.5
    assert sums["R7"] == pytest.approx(4.4616, rel=0.02)


def test_power_dilatation_small_annulus(power_report):
    rep = power_report
    assert rep.total == pytest.approx(38.3283525, rel=1e-6)
    assert rep.strip_sums["q-band"] > rep.strip_sums["q-disk"] > 0.0
    assert rep.straddle_fraction < 0.20
    assert rep.cumulative[-1] == pytest.approx(rep.total, rel=1e-9)


def test_coarse_grid_is_rejected(strips_map):
    # 20-unit cells straddle seams over about half of the annulus
    with pytest.raises(ResolutionError):
        dilatation_integral(strips_map, 1.0, 60.0, resolution=20.0)


@pytest.mark.parametrize("r_min, r_max, resolution, message", [
    (0.0, 60.0, None, "need 0 < r_min < r_max"),
    (-1.0, 60.0, None, "need 0 < r_min < r_max"),
    (60.0, 60.0, None, "need 0 < r_min < r_max"),
    (61.0, 60.0, None, "need 0 < r_min < r_max"),
    (1.0, math.inf, None, "need 0 < r_min < r_max"),
    (1.0, 60.0, 0.0, "cell size must be positive"),
    (1.0, 60.0, -0.5, "cell size must be positive"),
])
def test_dilatation_integral_rejects_a_bad_annulus_or_cell(r_min, r_max, resolution, message, strips_map):
    with pytest.raises(ValueError, match=f"^{message}$"):
        dilatation_integral(strips_map, r_min, r_max, resolution)


def test_strip_systems_cover_the_upper_half_only(strips_map):
    # below the axis read() mirrors; locate itself takes y >= 0 only
    with pytest.raises(ValueError, match="^strip systems cover y >= 0$"):
        strips_map._impl.sides[RIGHT].locate(-1.0)


def test_halving_the_cell_size_barely_moves_the_total(strips_map):
    fine = strips_map._impl.fine_size(60.0)
    coarse = dilatation_integral(strips_map, 1.0, 60.0)
    halved = dilatation_integral(strips_map, 1.0, 60.0, resolution=fine / 2)
    assert halved.total == pytest.approx(coarse.total, rel=0.01)


def test_report_groupings_add_up(power_report):
    rep = power_report
    assert math.fsum(rep.strip_sums.values()) == pytest.approx(rep.total, rel=1e-12)
    per_shell = [0.0] * len(rep.shell_sums)
    for (i, _), s in rep.shell_strip_sums.items():
        per_shell[i] += s
    assert per_shell == pytest.approx(rep.shell_sums.tolist(), rel=1e-12)


def test_report_csv_and_json_round_trip(power_report):
    rows = power_report.csv_text().strip().splitlines()
    assert rows[0] == "r,strip,sum"
    total = 0.0
    for row in rows[1:]:
        r, strip, val = row.split(",")
        float(r)
        total += float(val)
    assert total == pytest.approx(power_report.total, rel=1e-12)
    blob = json.loads(power_report.to_json())
    assert blob["flavor"] == "power"
    assert blob["total"] == pytest.approx(power_report.total, rel=1e-15)
    assert blob["r_min"] == 0.5 and blob["r_max"] == 8.0


# ---- sector extension ----------------------------------------------------------

def test_sector_parameter_validation():
    with pytest.raises(ValueError, match="strips flavor only"):
        assemble("mixed", lam1=0.5, lam2=0.5, sectors=2)
    with pytest.raises(ValueError, match="positive integer"):
        assemble("strips", lam1=0.5, lam2=0.5, sectors=0)
    # sectors=1 means no extension at all
    plain = assemble("strips", lam1=0.5, lam2=0.5, sectors=1)
    assert "sectors" not in plain.params_dict


def test_sector_uninterpolated_core(sectors_map):
    z = 0.3 + 0.2j
    with pytest.raises(UninterpolatedRegion):
        sectors_map(z)
    info = sectors_map.classify(z)
    assert info.uninterpolated
    assert not info.conformal or info.uninterpolated
    # |Im z^3| <= 2 pi: no value, no Beltrami coefficient
    for z in (1.5, 1.2 + 0.3j, cmath.rect(2.0, math.pi / 3)):
        assert abs((z ** 3).imag) <= TWO_PI
        for hook in (sectors_map, sectors_map._impl.mu_parts, lambda z: beltrami_at(sectors_map, z)):
            with pytest.raises(UninterpolatedRegion):
                hook(z)


def test_sector_map_reads_the_base_map_at_z_cubed(sectors_map):
    # sectors=3 reads the strips map at z^3; sectors 1 and 6 read its flipped
    # sheet, the base map half a turn, i pi, nearer the real axis
    base = assemble("strips", lam1=0.5, lam2=0.5)
    z = 3j
    assert sectors_map(z) == base(z ** 3)
    assert sectors_map.classify(z).label == f"sector2:base:{base.classify(z ** 3).label}"
    z = cmath.rect(3.0, math.pi / 6)
    assert sectors_map(z) == base(z ** 3 - 1j * math.pi)
    assert sectors_map.classify(z).label == f"sector1:flipped:{base.classify(z ** 3 - 1j * math.pi).label}"


def test_sector_dilatation_skips_the_core(sectors_map):
    rep = dilatation_integral(sectors_map, 2.0, 5.0)
    assert rep.skipped_cells > 0
    assert rep.evaluated_cells > 0
    assert rep.total > 0.0


def test_sector_sheets_are_reciprocal(sectors_map):
    eng = sectors_map._impl
    # the flipped sheet is the base map half a turn away, which is 1/base on
    # the (0,0) strip pi < Im w < 2 pi; rounding enters through the two reads
    for w in (2.0 + 4.0j, 3.0 + 6.0j):
        prod = from_log(eng.base.eval(w) + eng.base.eval(w - 1j * math.pi))
        assert abs(prod.real) < 1e-14
        assert abs(prod.imag) < 1e-14


def test_sector_mu_abs_quad_is_the_base_maps(sectors_map):
    # z^n is conformal, so |mu| at z is the base map's at the point it reads:
    # the hook gives abs(base.mu_quad(w)) to the last bit on both sheets, and
    # abs(mu_quad(z)), which twists mu by the unit conj(n z^(n-1))/(n z^(n-1)),
    # within 4 ulps; on the core there is no mu to read
    eng = sectors_map._impl
    rng = np.random.default_rng(23)
    zs = rng.uniform(2.0, 5.0, 3000) * np.exp(1j * rng.uniform(-math.pi, math.pi, 3000))
    locs = [eng._locate(z) for z in zs.tolist()]
    zc = np.array([z for z, (_, _, core) in zip(zs.tolist(), locs) if not core])
    sheets = [j in (1, 2 * eng.n) for j, _, core in locs if not core]
    assert len(zc) >= 2000 and 200 <= sum(sheets) <= len(zc) - 200
    got = eng.mu_abs_quad(zc).tolist()
    want = [abs(eng.base.mu_quad(w)) for _, w, core in locs if not core]
    assert [g.hex() for g in got] == [w.hex() for w in want]
    assert all(abs(g - abs(eng.mu_quad(z))) <= 4 * math.ulp(g) for z, g in zip(zc.tolist(), got))
    assert sum(g > 0.0 for g in got) >= 500
    with pytest.raises(UninterpolatedRegion):
        eng.mu_abs_quad(np.array([zc[0], 1.5 + 0j]))


def test_sector_seam_residuals(sectors_map):
    checks = sectors_map.seam_residuals(samples=48)
    for c in checks:
        assert c.max_gap < 1e-9, c


# ---- assembly API --------------------------------------------------------------

def test_glued_map_is_frozen(strips_map):
    with pytest.raises(dataclasses.FrozenInstanceError):
        strips_map.flavor = "other"


def test_assemble_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown flavor"):
        assemble("bagel", lam1=0.5, lam2=0.5)
    with pytest.raises(ValueError, match="unexpected parameters"):
        assemble("strips", lam1=0.5, lam2=0.5, kappa=3.0)
    with pytest.raises(ValueError, match="requires parameter 'lam2'"):
        assemble("strips", lam1=0.5)
    with pytest.raises(ValueError, match="rho must lie in"):
        assemble("power", rho=0.5, delta=0.5)
    with pytest.raises(ValueError, match="rho must lie in"):
        assemble("power", rho=1.0, delta=0.5)
    # gamma and sigma follow from rho and are not parameters
    with pytest.raises(ValueError, match=r"unexpected parameters for 'power': \['gamma'\]"):
        assemble("power", rho=0.75, delta=0.5, gamma=2.5)
    with pytest.raises(ValueError, match=r"unexpected parameters for 'power': \['sigma'\]"):
        assemble("power", rho=0.75, delta=0.5, sigma=1.5)


def test_assemble_rejects_non_whole_numbers():
    with pytest.raises(ValueError, match="whole number"):
        assemble("strips", lam1=0.5, lam2=0.5, sectors=2.7)
    with pytest.raises(ValueError, match="whole number"):
        assemble("spiral", lower=(0, 0), upper=(1.5, 1))
    # ints, numpy ints and whole floats stand for the same integer
    for sectors in (3, np.int64(3), 3.0):
        assert assemble("strips", lam1=0.5, lam2=0.5, sectors=sectors).params_dict["sectors"] == 3
    for upper in ((1, 1), (np.int64(1), 1.0)):
        assert assemble("spiral", lower=(0, 0), upper=upper).params_dict["upper"] == (1, 1)
    # a bool is no count, though Python's bool is an int
    with pytest.raises(ValueError, match=r"^sectors must be a whole number, got True$"):
        assemble("strips", lam1=0.5, lam2=0.5, sectors=True)
    with pytest.raises(ValueError, match=r"^m must be a whole number, got True$"):
        assemble("spiral", lower=(True, 1), upper=(1, 1))


@pytest.mark.parametrize("z", [complex(math.nan, 1.0), complex(1.0, math.nan), complex(1.0, math.inf),
                               complex(-3.0, -math.inf)], ids=["nan+1j", "1+nanj", "1+infj", "-3-infj"])
@pytest.mark.parametrize("flavor", ["strips_map", "spiral_map", "power_map", "sectors_map"])
def test_non_finite_points_fail_loudly(flavor, z, request):
    gm = request.getfixturevalue(flavor)
    for read in (gm, gm.classify, lambda p: beltrami_at(gm, p)):
        with pytest.raises(specfun.EvalDomainError, match=r"^z = .* is not a finite point$"):
            read(z)


def test_power_map_far_left_is_finite(power_map):
    # strip V4 reads its model past Re = -709.78, where g is 1 to double precision;
    # only points past the double-exponential horizon raise EvalDomainError
    v = power_map(-5000.0 + 3.0j)
    assert abs(v) < 1e-300


def test_power_radial_map_is_defined_on_the_half_line(power_map):
    with pytest.raises(ValueError, match=r"^g is defined on \[0, infinity\)$"):
        power_map._impl._g(-1.0)


def test_pair_cap_fails_loudly_where_a_strip_system_stops():
    # the graded slopes for rho = 0.6 jump from 0 to m_4 = 157,607, past
    # PAIR_CAP: the map assembles and evaluates below that strip, and a
    # point whose left-wedge system reaches it names the cap and the height
    gm = assemble("power", rho=0.6, delta=1.0)
    assert math.isfinite(gm(1.0).real) and math.isfinite(gm(2.0 * cmath.exp(2.8j)).real)
    for _ in range(2):  # the system stays where it stopped
        with pytest.raises(PairCapError) as err:
            gm(3.34 * cmath.exp(2.8j))
        assert str(err.value) == ("strip system V stops at local height 12.566370614359172: "
                                  "strip V4 needs the pair (157607, 719169), past PAIR_CAP = 10000")


@pytest.mark.parametrize("params, z, tag", [({}, complex(1.0, 1.3e8), "R"),
                                           ({"sectors": 3}, complex(-5000.0, 3.0), "L")], ids=["strips", "sectors"])
def test_the_slope_cap_fails_as_a_domain_error_where_a_strip_system_stops(monkeypatch, params, z, tag):
    # a strip past sequences.MAX_ENTRIES is outside the domain: the error names
    # the system, the strip and the cap, where the slope sequence alone says
    # "k = 2000001 outside [0, 2000000]".  The cap is lowered here, as at the
    # real one the map first grows two million strip records
    monkeypatch.setattr(sequences, "MAX_ENTRIES", 40)
    gm = assemble("strips", lam1=0.5, lam2=0.5, **params)
    for _ in range(2):  # the system stays where it stopped
        with pytest.raises(specfun.EvalDomainError) as err:
            gm(z)
        assert str(err.value) == (f"strip system {tag} stops at local height 282.74333882308144: "
                                  f"strip {tag}41 is past the slope sequences' MAX_ENTRIES = 40")


def test_concurrent_evaluation_matches_serial(strips_map):
    pts = [complex(x, y)
           for x in np.linspace(0.3, 5.7, 6)
           for y in (0.4, 3.9, 12.9, 40.2)]
    serial = [strips_map(z) for z in pts]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(strips_map, pts))
    for a, b in zip(serial, threaded):
        assert (a.real.hex(), a.imag.hex()) == (b.real.hex(), b.imag.hex())


def test_concurrent_strip_growth_matches_serial():
    # fresh maps start with empty strip tables, so threads append strip
    # records while others bisect them; a lost or doubled append would
    # shift the strip index of every point above it
    cases = (
        ({"flavor": "strips", "lam1": 0.5, "lam2": 0.5},
         [complex(x, y) for y in np.linspace(0.2, 300.0, 25) for x in (-3.1, 0.8)]),
        ({"flavor": "power", "rho": 0.75, "delta": 0.5},
         [cmath.rect(r, th) for r in np.geomspace(0.7, 250.0, 7) for th in (-2.9, -1.9, 1.0, 2.5)]),
    )
    n_threads = (os.cpu_count() or 1) + 3

    def sample(gm, zs):
        out = {}
        for z in zs:
            info = gm.classify(z)
            out[z] = (info.k, info.t, info.pair, gm(z))
        return out

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for params, zs in cases:
            serial = sample(assemble(**params), zs)
            gm = assemble(**params)
            barrier = threading.Barrier(n_threads)
            results, errors = [None] * n_threads, []

            def work(i):
                try:
                    barrier.wait(timeout=60)
                    order = zs[::-1] if i % 2 else zs  # half start at the top
                    results[i] = sample(gm, order[i:] + order[:i])
                except BaseException as exc:  # surfaced by the asserts below
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(i,), daemon=True)
                       for i in range(n_threads)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
            assert not any(th.is_alive() for th in threads), params
            assert not errors, errors
            for got in results:
                for z in zs:
                    k, t, pair, v = got[z]
                    k0, t0, pair0, v0 = serial[z]
                    assert (k, t, pair) == (k0, t0, pair0), (params, z)
                    assert (v.real.hex(), v.imag.hex()) == (v0.real.hex(), v0.imag.hex()), (params, z)
    finally:
        sys.setswitchinterval(old)


def test_quadrature_mu_tracks_exact_mu(strips_map, spiral_map, power_map):
    rng = random.Random(5)
    # the power tolerance is looser: right-side seams pin psi(0) = 0 and the
    # tabulated derivative carries ~1e-5 error just past the exact window,
    # still three orders below the midpoint-rule floor.  The power samples
    # (r <= 10) pass only while none lands at |Re q| > 24 in the left wedge,
    # where the frozen tails start too early (the next test)
    for gm, r_lo, r_hi, tol in ((strips_map, 1.0, 30.0, 1e-6),
                                (spiral_map, 1.0, 30.0, 1e-6),
                                (power_map, 0.6, 10.0, 1e-4)):
        eng = gm._impl
        worst = 0.0
        for _ in range(40):
            z = cmath.rect(rng.uniform(r_lo, r_hi), rng.uniform(-math.pi, math.pi))
            m_exact, m_quad = eng.mu(z), eng.mu_quad(z)
            if m_exact != m_exact or m_quad != m_quad:  # nan: on a seam
                continue
            worst = max(worst, abs(m_exact - m_quad))
        assert worst < tol, gm.flavor


@pytest.mark.xfail(strict=True, reason="_PsiCache freezes psi to x + c at |x| >= SPAN in the strip's own x, "
                   "but psi is affine only past about SPAN * N_{k+1} on the left and SPAN * l on the right")
@pytest.mark.parametrize("flavor, params, z, tol", [
    ("strips", {"lam1": 0.5, "lam2": 0.5}, complex(-200.0, 32.98672286269283), 1e-6),  # strip L6, t = 1/4
    ("power", {"rho": 0.75, "delta": 0.5}, 15.0 * cmath.exp(2.992j), 1e-4),  # Re q = -56.6 in V3, N_4 = 96
    ("spiral", {"lower": (0, 0), "upper": (1, 1)}, spiral_charts(4.0).p(complex(-40.0, -0.5)), 1e-6),  # |z| = 17.45
], ids=["strips", "power", "spiral"])
def test_frozen_psi_tails_track_the_exact_map(flavor, params, z, tol):
    # a left table reads phi at x/N_{k+1}, a right one at x/l and the spiral's
    # at x/kappa (x < 0), so past |x| = 24 psi still bends; the tolerances
    # are the previous test's
    eng = assemble(flavor, **params)._impl
    assert abs(eng.mu(z) - eng.mu_quad(z)) < tol


def test_quadrature_tables_do_not_depend_on_reading_order():
    # the strips heights sit in the transition strips 6 and 7 of both sides,
    # and x crosses the exact band 0 <= x <= 2 of the right tables; the
    # spiral's points are p(h) for h in its band -1 < Im h < 0, across its
    # table's grid and tails.  The tables are rebuilt before each map, so
    # each reads its own solves
    grid = np.arange(-25.8, 26.0, 0.45)
    charts = spiral_charts(DiffeoSpec(P00, P11).kappa)
    for params, pts in (({"flavor": "strips", "lam1": 0.5, "lam2": 0.5},
                         [complex(x, y) for x in grid for y in (33.0, 45.0, 60.0)]),
                        ({"flavor": "spiral", "lower": (0, 0), "upper": (1, 1)},
                         [charts.p(complex(x, y)) for x in grid for y in (-0.2, -0.5, -0.8)])):
        shuffled = pts[:]
        random.Random(7).shuffle(shuffled)
        surgery._psi_table.cache_clear()
        surgery._spiral_table.cache_clear()
        in_order = assemble(**params)._impl
        want = {z: in_order.mu_quad(z) for z in sorted(pts, key=lambda z: (z.real, z.imag))}
        surgery._psi_table.cache_clear()
        surgery._spiral_table.cache_clear()
        mixed_up = assemble(**params)._impl
        got = {z: mixed_up.mu_quad(z) for z in shuffled}
        assert all(want[z] != 0 for z in pts)
        assert [z for z in pts if got[z] != want[z]] == [], params["flavor"]
    assert sum(0.0 <= x <= 2.0 for x in grid) == 4  # 12 strips points on the exact band


def test_exact_band_is_solved_once_per_transition_and_x(monkeypatch):
    # strips 1..60 solve each (transition, x) of the exact band once: past
    # one solve per node and tail, a table's psi solves once per memo entry,
    # and every entry has the bits of a solve on a freshly built psi
    solves, solve = [], PsiMap.solve

    def counted(pm, x):
        solves.append(pm)
        return solve(pm, x)

    monkeypatch.setattr(PsiMap, "solve", counted)
    surgery._psi_table.cache_clear()
    gm = assemble("strips", lam1=0.5, lam2=0.5)
    dilatation_integral(gm, 1.0, 60.0)
    keys = {s.transition for sys_ in gm._impl._systems() for s in sys_._strips if s.psi is not None}
    assert surgery._psi_table.cache_info().currsize == len(keys)  # the integral read every transition's table
    tables = [surgery._psi_table(*key) for key in keys]
    memo = [(t.fdf.__self__, x, v) for t in tables for x, v in t._band.items()]
    owners, builds = {id(t.fdf.__self__) for t in tables}, sum(len(t.xs) + 2 for t in tables)
    assert sum(id(pm) in owners for pm in solves) - builds == len(memo) > 20
    for pm, x, (p, d) in memo:
        fresh = dataclasses.replace(pm, solver=None).solve(x)
        assert (p.hex(), d.hex()) == (fresh[0].hex(), fresh[1].hex()), x


@pytest.mark.parametrize("flavor, params", [
    ("strips", {"lam1": 0.5, "lam2": 0.5}),
    ("mixed", {"lam1": 0.5, "lam2": 1.0}),
    ("power", {"rho": 0.75, "delta": 0.5}),
    ("spiral", {"lower": (0, 0), "upper": (1, 1)}),
])
def test_exact_values_are_bit_identical_in_any_order(flavor, params):
    # every phi solve is a function of x alone, so on two fresh maps the value
    # and the exact mu at 1,500 points keep their bits whichever points were
    # read before them; a solve seeded by the previous x would move the last
    # bits of some.  Strips and mixed read a box over their first transition
    # strips, power its annulus 0.5 < |z| < 8 and the spiral p(h), h in its band
    rng = random.Random(23)
    if flavor == "power":
        pts = [cmath.rect(rng.uniform(0.5, 8.0), rng.uniform(-math.pi, math.pi)) for _ in range(1500)]
    elif flavor == "spiral":
        charts = spiral_charts(DiffeoSpec(P00, P11).kappa)
        pts = [charts.p(complex(rng.uniform(-30.0, 30.0), -rng.uniform(0.01, 0.99))) for _ in range(1500)]
    else:
        pts = [complex(rng.uniform(-8.0, 8.0), rng.uniform(-160.0, 160.0)) for _ in range(1500)]

    def read(order):
        gm = assemble(flavor, **params)
        return {c: (_hex_value(lambda: gm(pts[c])), _hex_value(lambda: gm._impl.mu(pts[c]))) for c in order}

    serial = list(range(len(pts)))
    want, got = read(serial), read(rng.sample(serial, len(serial)))
    assert [c for c in serial if got[c] != want[c]] == [], flavor


def _reads_exact_band(eng, z) -> bool:
    """Whether mu_quad(z) on a strips or power engine reads a right table's exact band, 0 <= x <= 2."""
    loc = eng._locate(z)
    x = loc[2].real if eng.flavor == "power" else z.real  # power reads its strip system at q
    return loc[-3].side == RIGHT and loc[-2].psi is not None and 0.0 <= x <= 2.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mu_quad_is_bit_identical_in_any_order_and_thread(seed):
    # the exact band of right tables is solved once per (transition, x), by
    # a solve that is a function of x alone, so mu_quad does not depend on
    # the points read before it: 6 threads reading a shuffled copy of 3,600
    # points on a fresh map (tables rebuilt) give the bits of one serial
    # pass.  Power reads its band in 0.5 < |z| < 8; strips reads none there,
    # so its points fill a box over its first transition strips.  The spiral
    # has no exact band: its points p(h), h in its band, check that threads
    # which miss the empty table cache at once read the bits of one build
    rng = random.Random(seed)
    annulus = [cmath.rect(rng.uniform(0.5, 8.0), rng.uniform(-math.pi, math.pi)) for _ in range(3600)]
    box = [complex(rng.uniform(-8.0, 8.0), rng.uniform(-160.0, 160.0)) for _ in range(3600)]
    charts, h = spiral_charts(DiffeoSpec(P00, P11).kappa), np.random.default_rng(seed).uniform(0.01, 0.99, (2, 3600))
    band = [charts.p(complex(60.0 * u - 30.0, -v)) for u, v in zip(*h.tolist())]
    n_threads = 6

    def bits(m):
        return m.real.hex(), m.imag.hex()

    for params, pts in (({"flavor": "power", "rho": 0.75, "delta": 0.5}, annulus),
                        ({"flavor": "strips", "lam1": 0.5, "lam2": 0.5}, box),
                        ({"flavor": "spiral", "lower": (0, 0), "upper": (1, 1)}, band)):
        order = rng.sample(range(len(pts)), len(pts))
        surgery._psi_table.cache_clear()
        surgery._spiral_table.cache_clear()
        eng = assemble(**params)._impl
        want = [bits(eng.mu_quad(z)) for z in pts]
        surgery._psi_table.cache_clear()
        surgery._spiral_table.cache_clear()
        eng = assemble(**params)._impl
        got, errors, barrier = [None] * len(pts), [], threading.Barrier(n_threads)

        def work(i):
            try:
                barrier.wait(timeout=60)
                for c in order[i::n_threads]:
                    got[c] = bits(eng.mu_quad(pts[c]))
            except BaseException as exc:  # surfaced by the asserts below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(n_threads)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads) and not errors, errors
        if params["flavor"] == "spiral":
            assert all(eng._locate(z)[1] for z in pts) and surgery._spiral_table.cache_info().currsize == 1
        else:
            assert sum(_reads_exact_band(eng, z) for z in pts) > 50, params["flavor"]
        assert [c for c in range(len(pts)) if got[c] != want[c]] == [], params["flavor"]


def test_spiral_table_ignores_the_exact_reads_made_before_it():
    # the spiral's exact reads (eval, mu, seam residuals) solve on its homeo
    # and its quadrature table on a StripHomeo of its own; every solve is a
    # function of x alone, so however many exact reads come first, the table
    # has the bits of a table built on a fresh spec
    surgery._spiral_table.cache_clear()
    eng = assemble("spiral", lower=(0, 0), upper=(1, 1))._impl
    for x in np.linspace(-30.0, 30.0, 41).tolist():
        w = eng.charts.p(complex(x, -0.5))
        eng.eval(w)
        eng.mu(w)
    eng.seam_residuals(16)
    assert surgery._spiral_table.cache_info().currsize == 0
    eng.mu_quad(eng.charts.p(complex(1.0, -0.5)))
    got, want = surgery._spiral_table(eng.spec), surgery._spiral_table.__wrapped__(DiffeoSpec(eng.lower, eng.upper))
    assert surgery._spiral_table.cache_info().currsize == 1 and got is not want

    def bits(table):
        c_lo, vs, ds, c_hi = table.table
        return [v.hex() for v in [c_lo, *vs.tolist(), *ds.tolist(), c_hi]]

    assert bits(got) == bits(want)


def test_cell_state_agrees_with_classify_and_mu(strips_map, spiral_map, power_map, sectors_map):
    # the quadrature's cheap cell states must place a point where classify
    # and mu do: a cell marked conformal carries no dilatation.  The sector
    # points sit in sectors 1 and 2n, where the flipped sheet reads the base
    # strips half a turn away from z^n.  The labels must be the ones the
    # scalar cell state gave (PINS holds a sha256 prefix of each sequence).
    rng = random.Random(13)
    mixed_map = assemble("mixed", lam1=0.5, lam2=1.0)
    for name, gm, r_lo, r_hi, th_max, count in (("strips", strips_map, 1.0, 60.0, math.pi, 200),
                                                ("mixed", mixed_map, 1.0, 60.0, math.pi, 200),
                                                ("spiral", spiral_map, 1.0, 60.0, math.pi, 200),
                                                ("power", power_map, 0.5, 8.0, math.pi, 200),
                                                ("sectors", sectors_map, 2.0, 5.0, math.pi / 3, 800)):
        eng = gm._impl
        zs = [cmath.rect(rng.uniform(r_lo, r_hi), rng.uniform(-th_max, th_max)) for _ in range(count)]
        labels, conformal, uninterpolated = _cell_labels(eng, zs)
        digest = hashlib.sha256("\n".join(labels).encode()).hexdigest()[:16]
        assert digest == PINS["cell_state_labels"][name], name
        for z, conf, uninterp in zip(zs, conformal.tolist(), uninterpolated.tolist()):
            info = gm.classify(z)
            assert info.conformal == conf, (name, z)
            assert info.uninterpolated == uninterp, (name, z)
            if conf:
                assert eng.mu(z) == eng.mu_quad(z) == 0, (name, z)


def test_cell_state_codes_follow_labels_not_systems(strips_map, spiral_map, power_map, sectors_map):
    # cell_states gives one integer code per label and the list of names
    # they index, with no name twice.  A side's upper half and its mirror
    # image (two systems on the mixed map) hold the same labels R1, R2, ...,
    # so they share codes: a code per (system, half) would name R1 twice.
    # On strips and mixed the names are classify's labels, in all four
    # quadrants and on both axes
    rng = random.Random(31)
    mixed_map = assemble("mixed", lam1=0.5, lam2=1.0)
    for name, gm, r_lo, r_hi in (("strips", strips_map, 1.0, 60.0), ("mixed", mixed_map, 1.0, 60.0),
                                 ("spiral", spiral_map, 1.0, 60.0), ("power", power_map, 0.5, 8.0),
                                 ("sectors", sectors_map, 2.0, 5.0)):
        zs = [cmath.rect(rng.uniform(r_lo, r_hi), (q + rng.random()) * math.pi / 2) for q in range(-2, 2)
              for _ in range(100)]
        zs += [complex(x, y) * r_hi / 2 for x, y in ((1, 0), (-1, 0), (0, 1), (0, -1))]
        codes, names, *_ = gm._impl.cell_states(np.array(zs))
        assert len(set(names)) == len(names), name
        assert codes.dtype.kind == "i" and ((0 <= codes) & (codes < len(names))).all(), name
        if name in ("strips", "mixed"):
            labels = [names[c] for c in codes.tolist()]
            assert labels == [gm.classify(z).label for z in zs], name
            assert {lab[0] for lab in labels} == {"R", "L"}, name


@pytest.mark.parametrize("name", sorted(PINS["reports"]))
def test_dilatation_reports_are_bit_identical(name):
    # the grid puts nodes exactly on seams (the spiral's xi = 0 among them),
    # so a last-bit change in a corner or midpoint can flip a straddle flag
    case = PINS["reports"][name]
    rep = dilatation_integral(assemble(case["flavor"], **case["params"]), case["r_min"], case["r_max"])
    assert rep.total.hex() == case["total"]
    assert rep.straddle_fraction.hex() == case["straddle_fraction"]
    assert {key: getattr(rep, key) for key in case["cells"]} == case["cells"]
    assert {key: v.hex() for key, v in rep.strip_sums.items()} == case["strip_sums"]


def test_power_seam_gaps_are_bit_identical():
    # every seam gap of the power map comes from real-axis phi solves and
    # model sums, so a changed last bit of F = log(g - 1) shows here
    case = PINS["power_seam_gaps"]
    checks = assemble("power", **case["params"]).seam_residuals(case["samples"], strips=case["strips"])
    assert [(c.name, float(c.max_gap).hex()) for c in checks] == list(case["max_gap"].items())


def _strip_systems(gm) -> list:
    """The right and left strip systems of a strips, mixed or power map (U and V on power)."""
    impl = gm._impl
    return [impl.U, impl.V] if gm.flavor == "power" else [impl.sides[RIGHT], impl.sides[LEFT]]


@pytest.mark.parametrize("flavor, params", [
    ("strips", {"lam1": 0.5, "lam2": 0.5}),
    ("mixed", {"lam1": 0.5, "lam2": 0.9}),
    ("power", {"rho": 0.75, "delta": 0.5}),
])
def test_bottom_edge_reads_no_psi(flavor, params, monkeypatch):
    # at t = 0, the bottom edge of a strip and the upper side of the seam
    # below it, x + t (psi(x) - x) is x, so value reads the model at x itself
    # and solves no psi.  At x = -0.0 a solve would have given x_t = +0.0
    # wherever psi(-0.0) >= 0, but every strip here that has a psi has
    # shift != 0, so x_t / x_div + shift keeps its bits either way
    gm = assemble(flavor, **params)
    strips = [(sys_, s) for sys_ in _strip_systems(gm) for s in map(sys_.strip, range(1, 7)) if s.psi is not None]
    assert strips

    def values() -> list:
        return [(sys_.value(s, x, 0.0), specfun.eval_model_turns(s.pair, x / s.x_div + s.shift, 0.0, s.variant))
                for sys_, s in strips for x in (-3.7, -0.0, 0.0, 0.5, 6.0)]

    def hexes(v: complex) -> tuple:
        return v.real.hex(), v.imag.hex()

    assert all(hexes(got) == hexes(want) for got, want in values())

    def refuse(pm, x):
        raise AssertionError(f"psi solved at x = {x!r} on a bottom edge")

    monkeypatch.setattr(PsiMap, "solve", refuse)
    assert all(hexes(got) == hexes(want) for got, want in values())


def test_seam_sweep_solves_psi_on_the_lower_side_only(monkeypatch):
    # the upper side of each seam is the bottom edge (t = 0) of the strip
    # above, where value solves no psi; 128 more solves would mean it does.
    # F evaluations are not counted: solve_shift's process-wide memo makes
    # them depend on test order
    solves, solve = [], PsiMap.solve

    def counted(pm, x):
        solves.append(x)
        return solve(pm, x)

    gm = assemble("power", rho=0.75, delta=0.5)
    monkeypatch.setattr(PsiMap, "solve", counted)
    gm.seam_residuals(16, strips=2)
    assert len(solves) == 206


def _hex_value(read) -> str:
    """'Re Im' of read() as hex floats, or the name of the domain error it raises."""
    try:
        v = complex(read())
    except (specfun.EvalDomainError, UninterpolatedRegion) as exc:
        return type(exc).__name__
    return f"{v.real.hex()} {v.imag.hex()}"


def _hex_point(key: str) -> complex:
    re, im = key.split()
    return complex(float.fromhex(re), float.fromhex(im))


@pytest.mark.parametrize("name", sorted(PINS["values"]["maps"]))
def test_map_values_are_bit_identical(name):
    # log|f| + i arg f of each flavour on a fixed grid (seam points among them), as
    # the maps' log-polar values gave them; the grid leaves out the two points whose
    # last bits followed numpy's SIMD exp (a spiral and a sectors value near log f = 0)
    case = PINS["values"]["maps"][name]
    gm = assemble(case["flavor"], **case["params"])
    assert {z: _hex_value(lambda: gm(_hex_point(z))) for z in case["values"]} == case["values"]


@pytest.mark.parametrize("key", sorted(PINS["values"]["models"]))
def test_model_values_at_zeros_and_poles_are_bit_identical(key):
    # log g, log g' and g'/g (plain) or their half-variant forms at each registry
    # zero and pole of g, 1e-11 beside it and a period above it; left out: the two
    # points beside the (1,1) zeros, whose last bits followed numpy's SIMD exp
    m, n, variant = key.split(",")
    pair = PairIndex(int(m), int(n))
    reads = (specfun.eval_model, specfun.eval_model_derivative, specfun.log_derivative)
    got = {z: [_hex_value(lambda: read(pair, _hex_point(z), variant)) for read in reads]
           for z in PINS["values"]["models"][key]}
    assert got == PINS["values"]["models"][key]


@pytest.mark.parametrize("name", sorted(PINS["reports"]))
def test_dilatation_blocks_do_not_change_the_report(name, monkeypatch):
    # consecutive shells share one engine call per block of BLOCK_CELLS
    # nodes; one shell per block, and the whole annulus as one block, give
    # every figure of the report to the last bit, with or without the coarse
    # arcs that quiet_arc certifies (the spiral's)
    case = PINS["reports"][name]

    def report(block_cells, certify=True):
        monkeypatch.setattr(surgery, "BLOCK_CELLS", block_cells)
        gm, calls = assemble(case["flavor"], **case["params"]), [0]
        cell_states = gm._impl.cell_states

        def counted(zc):
            calls[0] += 1
            return cell_states(zc)

        monkeypatch.setattr(gm._impl, "cell_states", counted)
        if not certify:  # sectors and power have no coarse arcs, so never ask
            monkeypatch.setattr(gm._impl, "quiet_arc", lambda *arc: False, raising=False)
        return _report_bits(dilatation_integral(gm, case["r_min"], case["r_max"])), calls[0]

    want, blocks = report(surgery.BLOCK_CELLS)
    shells = len(want["shell_sums"])
    assert want["total"] == case["total"]
    assert want["certified_cells"] > 0 if name == "spiral" else want["certified_cells"] == 0
    for block_cells in (1, 10 ** 9):
        for certify in (True, False):
            got, calls = report(block_cells, certify)
            assert got == (want if certify else dict(want, certified_cells=0)), (block_cells, certify)
            assert calls == (shells if block_cells == 1 else 1)
    if name == "strips":
        assert 2 <= blocks < shells  # blocks meet inside the annulus, and a block joins several shells


def _report_bits(rep) -> dict:
    """Every figure of a report, floats as hex: its dict, the shell and shell-strip sums, the cumulative run."""
    out = dict(rep.to_dict(), total=rep.total.hex(), straddle_fraction=rep.straddle_fraction.hex(),
               strip_sums={k: v.hex() for k, v in rep.strip_sums.items()},
               shell_strip_sums={k: v.hex() for k, v in rep.shell_strip_sums.items()})
    out.update({key: [v.hex() for v in getattr(rep, key).tolist()] for key in ("shell_sums", "cumulative")})
    return out


# spiral (lower, upper) pairs and their edge stretch kappa: kappa < 1 makes beta0 < 0
SPIRAL_KAPPAS = pytest.mark.parametrize("lower, upper, kappa",
                                        [((0, 0), (1, 1), 4.0), ((0, 0), (2, 3), 9.0), ((3, 1), (0, 0), 1 / 6)],
                                        ids=["kappa4", "kappa9", "kappa1/6"])


@SPIRAL_KAPPAS
def test_quiet_arcs_are_conformal_and_unstraddled(lower, upper, kappa, monkeypatch):
    # the spiral certifies a coarse arc only where it proves every cell
    # conformal and unstraddled, so the driver may skip its nodes: each cell
    # of each certified arc, built as the driver builds it, must pass
    # straddle_mask and cell_states, and certifying nothing must give every
    # figure of the report to the last bit
    gm = assemble("spiral", lower=lower, upper=upper)
    eng = gm._impl
    assert eng.charts.kappa == pytest.approx(kappa, rel=1e-15)
    quiet = eng.quiet_arc
    for r_min, r_max, resolution in ((1.0, 200.0, None), (0.3, 40.0, None), (0.3, 40.0, 0.05)):
        arcs = []

        def recorded(r0, r1, a, b):
            if quiet(r0, r1, a, b):
                arcs.append((r0, r1, a, b))
                return True
            return False

        monkeypatch.setattr(eng, "quiet_arc", recorded)
        rep = dilatation_integral(gm, r_min, r_max, resolution)
        fine = resolution or eng.fine_size(r_max)
        coarse = max(8.0 * fine, (r_max - r_min) / 48.0)  # the driver's coarse cell size
        z0, z1, zc, last = [], [], [], []
        for r0, r1, a, b in arcs:
            rc = 0.5 * (r0 + r1)
            m = max(1, math.ceil((b - a) * rc / coarse))
            th = a + np.arange(m + 1) * ((b - a) / m)
            tc = 0.5 * (th[:-1] + th[1:])
            z0.append(r0 * np.cos(th) + 1j * (r0 * np.sin(th)))
            z1.append(r1 * np.cos(th) + 1j * (r1 * np.sin(th)))
            zc.append(rc * np.cos(tc) + 1j * (rc * np.sin(tc)))
            last.append(m + 1)
        join = np.cumsum(last)[:-1] - 1  # node pairs that join two arcs are no cells
        straddles = np.delete(eng.straddle_mask(r_max)(np.concatenate(z0), np.concatenate(z1)), join)
        _, _, conformal, uninterpolated = eng.cell_states(np.concatenate(zc))
        case = (lower, upper, r_min, r_max, resolution)
        assert len(conformal) == len(straddles) == rep.certified_cells > 0, case
        assert conformal.all() and not uninterpolated.any() and not straddles.any(), case
        assert rep.certified_cells < rep.conformal_cells, case
        if (lower, upper, r_min, r_max) == ((0, 0), (1, 1), 1.0, 200.0):  # the spiral-quad inputs
            assert (rep.certified_cells, rep.conformal_cells) == (238_612, 428_816)
            assert (rep.straddled_cells, rep.evaluated_cells) == (3_898, 17_420)

        monkeypatch.setattr(eng, "quiet_arc", lambda *arc: False)
        none = _report_bits(dilatation_integral(gm, r_min, r_max, resolution))
        assert none == dict(_report_bits(rep), certified_cells=0), case


@SPIRAL_KAPPAS
def test_quiet_arc_refuses_arcs_near_the_cut_and_the_band(lower, upper, kappa):
    # the quadrature's coarse arcs keep well away from the cut and the band,
    # so arcs drawn here also end just short of or past xi = 0, +-pi and
    # |Im h| = 1: wherever quiet_arc certifies one, its node cells on both
    # circles straddle nothing and a 65 x 5 (theta, r) grid over it, corners
    # included, is conformal
    eng = assemble("spiral", lower=lower, upper=upper)._impl
    ch, rng = eng.charts, random.Random(11)
    assert ch.kappa == pytest.approx(kappa, rel=1e-15)
    arcs = []
    for n in range(1500):
        r0 = math.exp(rng.uniform(math.log(0.3), math.log(200.0)))
        r1 = r0 * (1.0 + rng.uniform(0.0, 0.3))
        if n % 3 == 0:  # anywhere
            a = rng.uniform(-math.pi, math.pi)
            b = a + rng.uniform(0.01, 2.0)
        elif n % 3 == 1:  # one end within 0.05 of xi = 0 or pi
            b = wrap_phase(rng.choice((0.0, math.pi)) - ch.beta0 * math.log(r0)) + rng.uniform(-0.05, 0.05)
            a = b - rng.uniform(0.05, 1.0)
        else:  # about the circle through |Im h| = 1 at xi0 < 0
            xi0 = rng.uniform(-math.pi + 0.1, -0.1)
            r0 = math.exp((ch.beta0 * xi0 - math.log(-math.sin(xi0))) / ch.order + rng.uniform(-0.1, 0.1))
            r1 = r0 * (1.0 + rng.uniform(0.0, 0.1))
            a = wrap_phase(xi0 - ch.beta0 * math.log(r0)) - rng.uniform(0.0, 0.3)
            b = a + rng.uniform(0.01, 0.6)
        a, b = max(a, -math.pi), min(b, math.pi)
        if b > a:
            arcs.append((r0, r1, a, b))
    quiet = [arc for arc in arcs if eng.quiet_arc(*arc)]
    assert 0.2 * len(arcs) < len(quiet) < 0.8 * len(arcs)
    th = np.array([np.linspace(a, b, 65) for _, _, a, b in quiet])
    r0, r1 = np.array([arc[:2] for arc in quiet]).T
    corners = [(r[:, None] * np.cos(th) + 1j * (r[:, None] * np.sin(th))).ravel() for r in (r0, r1)]
    straddles = np.append(eng.straddle_mask(200.0)(*corners), False).reshape(th.shape)[:, :-1]  # rows join
    assert not straddles.any()
    r = r0[:, None] + np.linspace(0.0, 1.0, 5) * (r1 - r0)[:, None]
    pts = (r[:, :, None] * np.exp(1j * th[:, None, :])).ravel()
    assert eng.cell_states(pts)[2].all()


def test_dilatation_rejects_cell_states_that_repeat_a_label(spiral_map, monkeypatch):
    # each (shell, label) group of contributions is filed once; a label named
    # twice would let one group overwrite another, and its cells drop out of every sum
    eng = spiral_map._impl
    cell_states = eng.cell_states

    def repeated(zc):
        codes, names, conformal, uninterpolated = cell_states(zc)
        return codes, [names[0]] * len(names), conformal, uninterpolated

    monkeypatch.setattr(eng, "cell_states", repeated)
    with pytest.raises(RuntimeError, match=r"^cell_states repeats the labels \['regular'\]$"):
        dilatation_integral(spiral_map, 1.0, 5.0)


def _spiral_decision_points(eng):
    """Nodes where the spiral's seam decisions are closest to their thresholds."""
    ch = eng.charts
    rng = np.random.default_rng(5)
    pts = [rng.uniform(1.0, 200.0, 2000) * np.exp(1j * rng.uniform(-math.pi, math.pi, 2000))]
    for r0 in (1.0, 7.25, 60.0, 199.875):  # the quadrature's window nodes, some on xi = 0
        for lo, hi in eng.theta_windows(r0, r0 + 0.125):
            th = lo + np.arange(41) * ((hi - lo) / 40)
            pts.append(r0 * np.cos(th) + 1j * (r0 * np.sin(th)))
    r = np.geomspace(1.0, 200.0, 300)
    for turn in (0.0, math.pi):  # xi = 0 and xi = pi in exact arithmetic
        th = np.array([wrap_phase(turn - ch.beta0 * math.log(x)) for x in r.tolist()])
        pts.append(r * np.cos(th) + 1j * (r * np.sin(th)))
    edge = []  # Im h within a few ulp of -1: p(x - i), nudged one ulp at a time
    for x in np.linspace(-40.0, 40.0, 41).tolist():
        w = ch.p(complex(x, -1.0))
        for k in range(-12, 13):
            for j in range(-12, 13):
                z = complex(w.real + k * math.ulp(w.real), w.imag + j * math.ulp(w.imag))
                if abs(eng._locate(z)[0].imag + 1.0) <= 4 * math.ulp(1.0):
                    edge.append(z)
    return np.concatenate(pts + [np.array(edge)]), np.array(edge)


@pytest.mark.parametrize("ulps", [0, -4, 4])
def test_spiral_seam_decisions_match_the_scalar_path(ulps, spiral_map, monkeypatch):
    # xi_logr and cell_states compute xi and Im h with numpy, whose log,
    # arctan2 and exp may round differently from libm; every decision must
    # still be the one _xi and _locate take.  ulps != 0 moves each numpy
    # result that many ulp, as another libm or SIMD build might
    eng = spiral_map._impl
    pts, edge = _spiral_decision_points(eng)
    xi_want = np.array([eng.charts._xi(z) for z in pts.tolist()])
    band_want = np.array([eng._locate(z)[1] for z in pts.tolist()])
    edge_im = np.array([eng._locate(z)[0].imag for z in edge.tolist()])
    assert (edge_im > -1.0).sum() >= 50 and (edge_im <= -1.0).sum() >= 50  # both sides of -1
    assert (xi_want == 0.0).sum() >= 100 and (np.abs(xi_want) > math.pi - 1e-14).sum() >= 100

    def nudged(fn):
        def moved(*args):
            out = fn(*args)
            for _ in range(abs(ulps)):
                out = np.nextafter(out, math.copysign(math.inf, ulps))
            return out
        return moved

    for name in ("log", "arctan2", "exp"):
        monkeypatch.setattr(np, name, nudged(getattr(np, name)))
    scalar = {"xi": 0, "locate": 0}

    def counted(key, fn):
        def wrapper(*args):
            scalar[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(SpiralCharts, "_xi", counted("xi", SpiralCharts._xi))
    monkeypatch.setattr(_SpiralEngine, "_locate", counted("locate", _SpiralEngine._locate))
    got = eng.straddle_mask(200.0)(pts, np.roll(pts, 1))
    lo, hi = _cell_range(xi_want, np.roll(xi_want, 1))
    assert got.tolist() == ((lo < 0.0) & (0.0 < hi)).tolist()
    assert np.sign(eng.charts.xi_logr(pts)[0]).tolist() == np.sign(xi_want).tolist()
    labels, conformal, uninterp = _cell_labels(eng, pts)
    assert conformal.tolist() == (~band_want).tolist() and not uninterp.any()
    assert labels == np.where(band_want, "cut-band", "regular").tolist()
    assert scalar["xi"] > 0 and scalar["locate"] > 0  # the scalar branches ran


def test_affine_mu_abs_divides_as_python_does():
    # Smith's division picks its formula by the larger part of the
    # denominator; on these inputs the other formula differs in the last bit
    # on about half the cells where |f b| > alpha, and complex numpy division
    # on about half of all of them.  a is 0 exactly on a quarter of the cells.
    # x_div = 1 makes f = alpha + beta = 1, so den = (alpha + a, -b) exactly:
    # there b = +-(alpha + a) ties the two parts of den, and a = -alpha, b = 0
    # makes den == 0, where both sides give NaN
    rng = np.random.default_rng(3)
    n = 20000
    x_div, y_div = (rng.integers(1, 40, n).astype(float) for _ in range(2))
    b = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 2.0, n)
    a = np.where(rng.random(n) < 0.25, 0.0, rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 1.0, n))
    tie, zero = rng.random(n) < 0.1, rng.random(n) < 0.02
    x_div[tie | zero] = 1.0
    alpha = 0.5 * (1.0 / x_div + 1.0 / y_div)
    b[tie] = rng.choice([-1.0, 1.0], int(tie.sum())) * (alpha + a)[tie]
    a[zero], b[zero] = -alpha[zero], 0.0
    assert (np.abs(alpha + a) == np.abs(b))[tie].all() and ((alpha + a) == 0.0)[zero].all()
    want = [abs(_compose_affine(xd, yd, av, bv))
            for xd, yd, av, bv in zip(x_div.tolist(), y_div.tolist(), a.tolist(), b.tolist())]
    got = _affine_mu_abs(x_div, y_div, a, b).tolist()
    assert [g.hex() for g in got] == [w.hex() for w in want]
    assert all(math.isnan(g) for g in np.array(got)[zero]) and (a == 0.0).sum() > 4000


def test_c_quot_divides_as_python_does():
    # random operands over 16 decades, ties |Re b| = |Im b| (Python scales by
    # Re b there, and the two branches agree) and zero parts; on more than half of these quotients the
    # branch of Smith's method that Python does not take differs in the last
    # bit.  Where Python raises on b == 0, _c_quot gives NaN
    rng = np.random.default_rng(23)
    n = 20000
    ar, ai, br, bi = (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 8.0, n) for _ in range(4))
    tie, zero, flat = (rng.random(n) < p for p in (0.1, 0.02, 0.1))
    bi[tie] = rng.choice([-1.0, 1.0], int(tie.sum())) * br[tie]
    br[zero], bi[zero] = rng.choice([0.0, -0.0], int(zero.sum())), rng.choice([0.0, -0.0], int(zero.sum()))
    ai[flat], bi[flat & ~zero & ~tie] = 0.0, 0.0
    want = []
    for a, b in zip(map(complex, ar.tolist(), ai.tolist()), map(complex, br.tolist(), bi.tolist())):
        try:
            q = a / b
        except ZeroDivisionError:
            q = complex(math.nan, math.nan)
        want.append((q.real.hex(), q.imag.hex()))
    assert [w for w, z in zip(want, zero.tolist()) if z] == [("nan", "nan")] * int(zero.sum())
    got = _c_quot(ar, ai, br, bi)
    assert list(zip(*([v.hex() for v in part.tolist()] for part in got))) == want
    with np.errstate(divide="ignore", invalid="ignore"):  # Smith's two branches, scaled by Re b and by Im b
        r1, r2 = bi / br, br / bi
        d1, d2 = br + bi * r1, br * r2 + bi
        by_re = np.abs(br) >= np.abs(bi)
        other = (np.where(by_re, (ar * r2 + ai) / d2, (ar + ai * r1) / d1),
                 np.where(by_re, (ai * r2 - ar) / d2, (ai - ar * r1) / d1))
    other = list(zip(*([v.hex() for v in part.tolist()] for part in other)))
    assert sum(o != w for o, w in zip(other, want)) > n // 2


def _hermite_test_points(xs, rng) -> np.ndarray:
    """Every node of xs, both neighbours of its ends, of 2 and of -24, and points where pow(1 - s, 2) != (1 - s)^2."""
    ends = np.array([xs[0], xs[-1], 2.0, -24.0])
    x = rng.uniform(xs[0], xs[-1], 1_500_000)
    i = np.searchsorted(xs, x, side="right") - 1
    u = 1 - (x - xs[i]) / (xs[i + 1] - xs[i])  # as the Hermite read forms it
    pow_differs = np.array([math.pow(v, 2) for v in u.tolist()]) != u * u
    assert pow_differs.sum() >= 1000
    return np.concatenate([xs, ends, np.nextafter(ends, -math.inf), np.nextafter(ends, math.inf), x[pow_differs]])


def _transition(sys_, s):
    """The key of strip s's psi table: the (pair, variant) of s and of the strip above, the side and l."""
    above = sys_.strip(s.k + 1)
    return (s.pair, s.variant), (above.pair, above.variant), sys_.side, sys_.l


def _hex_reads(px, dp) -> list:
    return [(p.hex(), d.hex()) for p, d in zip(px.tolist(), dp.tolist())]


def _one_by_one(read, x) -> list:
    """``read`` of a one-element array at each x, as the scalar mu_parts(quad=True) reads, in hex."""
    return [_hex_reads(*read(np.array([v])))[0] for v in x.tolist()]


def test_psi_cache_hermite_array_reads_match_eval():
    # _StripSystem.psi_read (and _PsiCache.read on the spiral's table, last)
    # gives at each x the bits of a one-element read, as mu_parts(quad=True)
    # makes it, and of a twin table built afresh, and is never NaN: on the
    # tails, the Hermite cells and the exact band of right tables
    # (-24 < x <= 2), whose memo the twin solves in reverse order, and x + 0
    # and 1 in strips without psi.  Reading one strip builds its transition's
    # table, which a later strip repeating the transition shares, and builds
    # no other (tables are shared process-wide, hence the cleared caches).
    # Rows read stacked in any order give what each row read alone gives
    rng = np.random.default_rng(17)
    surgery._psi_table.cache_clear()
    eng = assemble("strips", lam1=0.5, lam2=0.5)._impl
    for side in (RIGHT, LEFT):
        sys_ = eng.sides[side]
        with_psi = [sys_.strip(k) for k in range(1, 9) if sys_.strip(k).psi is not None]
        free = next(sys_.strip(k) for k in range(1, 9) if sys_.strip(k).psi is None)
        repeat = next(sys_.strip(k) for k in range(9, 60) if sys_.strip(k).psi is not None
                      and _transition(sys_, sys_.strip(k)) == _transition(sys_, with_psi[0]))
        assert [s.transition for s in with_psi + [repeat]] == [_transition(sys_, s) for s in with_psi + [repeat]]
        assert repeat.transition == with_psi[0].transition != with_psi[1].transition and free.transition is None
        xs = sys_._xs
        x = _hermite_test_points(xs, rng)
        exact = (x < xs[-1]) & (x > -24.0) & (x <= xs[0])
        assert exact.any() == (xs[0] == 2.0)
        built = surgery._psi_table.cache_info().currsize
        px, dp = sys_.psi_read(x, np.full(len(x), with_psi[0].k - 1))
        assert surgery._psi_table.cache_info().currsize == built + 1
        assert not np.isnan(px).any() and not np.isnan(dp).any()
        want = _hex_reads(px, dp)
        assert _hex_reads(*sys_.psi_read(x, np.full(len(x), repeat.k - 1))) == want
        assert surgery._psi_table.cache_info().currsize == built + 1
        assert _one_by_one(lambda v: sys_.psi_read(v, np.full(1, with_psi[0].k - 1)), x) == want
        twin = surgery._psi_table.__wrapped__(*with_psi[0].transition)
        assert twin is not surgery._psi_table(*with_psi[0].transition)
        assert _hex_reads(*twin.read(x[exact][::-1])) == [w for w, e in zip(want, exact) if e][::-1]
        assert _hex_reads(*twin.read(x)) == want
        fx, fd = sys_.psi_read(x, np.full(len(x), free.k - 1))
        assert [v.hex() for v in fx.tolist()] == [(v + 0.0).hex() for v in x.tolist()] and (fd == 1.0).all()
        rows = [s.k - 1 for s in with_psi + [free]]
        alone = [np.concatenate(r) for r in zip(*(sys_.psi_read(x, np.full(len(x), k)) for k in rows))]
        order = rng.permutation(len(rows) * len(x))
        stacked = sys_.psi_read(np.tile(x, len(rows))[order], np.repeat(rows, len(x))[order])
        assert [[v.hex() for v in got.tolist()] for got in stacked] == \
            [[v.hex() for v in got[order].tolist()] for got in alone]
    # the spiral's table spans -24..24 and has no exact band: _PsiCache.read
    # gives the bits of one-element reads and of a twin everywhere, never NaN
    spec = assemble("spiral", lower=(0, 0), upper=(1, 1))._impl.spec
    surgery._spiral_table.cache_clear()
    table = surgery._spiral_table(spec)
    x = _hermite_test_points(table.xs, rng)
    px, dp = table.read(x)
    assert not np.isnan(px).any() and not np.isnan(dp).any()
    assert _one_by_one(table.read, x) == _hex_reads(px, dp)
    assert _hex_reads(*surgery._spiral_table.__wrapped__(spec).read(x[::-1]))[::-1] == _hex_reads(px, dp)


def test_psi_tables_are_shared_per_transition(monkeypatch):
    # a psi table depends only on its transition, so strips 1..450 build one
    # table per distinct transition read (4), not one per strip read (12),
    # and every strip that repeats a transition holds its key
    read, psi_read = [], surgery._StripSystem.psi_read

    def recorded(sys_, x, j):
        read.extend((sys_, sys_.strip(k + 1)) for k in set(j.tolist()))
        return psi_read(sys_, x, j)

    monkeypatch.setattr(surgery._StripSystem, "psi_read", recorded)
    surgery._psi_table.cache_clear()
    gm = assemble("strips", lam1=0.5, lam2=0.5)
    dilatation_integral(gm, 1.0, 450.0)
    read = {(id(sys_), s.k): s for sys_, s in read if s.psi is not None}.values()
    assert len(read) == 12 and len({s.transition for s in read}) == 4
    assert surgery._psi_table.cache_info().currsize == surgery._psi_table.cache_info().misses == 4
    assert all(s.transition == _transition(sys_, s) for sys_ in gm._impl._systems() for s in sys_._strips
               if s.psi is not None)
    # a mixed map's upper (half-model) and lower (plain) systems share the
    # entries whose keys agree: (0,0) -> (1,0), plain in both, first at strip 100
    monkeypatch.undo()
    eng = assemble("mixed", lam1=0.5, lam2=0.9)._impl
    for side in (RIGHT, LEFT):
        systems = eng.sides[side], eng.sides[side].below
        up, lo = ({_transition(sys_, s): s for s in map(sys_.strip, range(1, 120)) if s.psi is not None}
                  for sys_ in systems)
        (shared,) = up.keys() & lo.keys()
        assert all(s.transition == key for strips in (up, lo) for key, s in strips.items())
        surgery._psi_table.cache_clear()
        for sys_, strips in zip(systems, (up, lo)):
            sys_.psi_read(np.array([3.0 if side == RIGHT else -3.0]), np.array([strips[shared].k - 1]))
        assert surgery._psi_table.cache_info().currsize == 1


@pytest.mark.parametrize("flavor, lams", [("strips", (0.5, 0.5)), ("mixed", (0.5, 0.9))])
def test_mu_abs_quad_matches_mu_quad_cell_by_cell(flavor, lams):
    # the array hook must give abs(mu_quad(z)) to the last bit on every path:
    # frozen psi tails on both sides, strips without psi, Hermite cells and
    # the exact band of right tables (0 <= x <= 2), which each table solves
    # once per x from a fixed seed.  The tables are rebuilt before every map,
    # so the array pass solves the band in its own order, in one call or
    # split over two, and the scalar twin in cell order
    rng = np.random.default_rng(11)
    zc = rng.uniform(1.0, 450.0, 4000) * np.exp(1j * rng.uniform(-math.pi, math.pi, 4000))
    surgery._psi_table.cache_clear()
    twin = assemble(flavor, lam1=lams[0], lam2=lams[1])._impl
    want = [abs(twin.mu_quad(z)) for z in zc.tolist()]
    paths = []
    for z in zc.tolist():
        sys_, s, _ = twin._locate(z)
        if s.psi is None:
            paths.append("psi-free")
        elif z.real >= sys_._xs[-1] or z.real <= -surgery._PsiCache.SPAN:
            paths.append("tail-high" if z.real > 0 else "tail-low")
        else:
            paths.append("exact" if 0.0 <= z.real <= 2.0 else "hermite")
    assert set(paths) == {"psi-free", "tail-high", "tail-low", "exact", "hermite"}
    for cuts in ([], [1700]):
        surgery._psi_table.cache_clear()
        eng = assemble(flavor, lam1=lams[0], lam2=lams[1])._impl
        got = np.concatenate([eng.mu_abs_quad(part) for part in np.split(zc, cuts)])
        differ = [(p, z) for p, z, g, w in zip(paths, zc.tolist(), got.tolist(), want) if g.hex() != w.hex()]
        assert differ == [], cuts


def test_spiral_mu_abs_quad_matches_mu_quad_cell_by_cell():
    # the spiral's array hook gives |mu_band| = abs(mu_parts(w, quad=True)[1])
    # of a fresh twin map to the last bit, and abs(mu_quad(w)), which twists
    # mu_band by the unit conj(h')/h', within 4 ulps: band cells on the
    # Hermite table and its two frozen tails, Im h within a few ulp of -1
    # and of 0 (xi = 0 and +-pi), exact 0.0 off the band and at w = 0.  The
    # table is built afresh for the array pass, and a call with no band cell
    # leaves it unbuilt, as mu_parts does
    eng, twin = (assemble("spiral", lower=(0, 0), upper=(1, 1))._impl for _ in range(2))
    pts, edge = _spiral_decision_points(eng)
    # and band points where np.log rounds log|w| otherwise than libm (rare, and
    # none on numpy's baseline kernels), so h_array's libm log is exercised
    rng = np.random.default_rng(19)
    z = rng.uniform(-60.0, 60.0, 200_000) - 1j * rng.uniform(0.0, 1.0, 200_000)
    w = np.exp(eng.charts.mu * np.log(z))
    r = np.hypot(w.real, w.imag)
    zc = np.concatenate([pts, w[np.log(r) != np.array(list(map(math.log, r.tolist())))], [0j]])
    parts = [twin.mu_parts(z, quad=True) for z in zc.tolist()]
    want = [abs(mu_band) for _, mu_band, *_ in parts]
    paths = []
    for z in zc.tolist():
        h, band = twin._locate(z)
        paths.append("origin" if z == 0 else "off-band" if not band else
                     "tail-low" if h.real <= -24.0 else "tail-high" if h.real >= 24.0 else "hermite")
    im = np.array([twin._locate(z)[0].imag for z in zc.tolist()])
    band = np.array([p not in ("origin", "off-band") for p in paths])
    assert {p: paths.count(p) >= 50 for p in set(paths) - {"origin"}} == \
        {"off-band": True, "tail-low": True, "tail-high": True, "hermite": True}
    assert (band & (im > -4 * math.ulp(1.0))).sum() >= 20 and (im[~band] == 0.0).sum() >= 100
    assert (band & (im < -1.0 + 4 * math.ulp(1.0))).sum() >= 50 and len(edge) > 100
    off = zc[~band]
    surgery._spiral_table.cache_clear()
    assert eng.mu_abs_quad(off).tolist() == [0.0] * len(off) and surgery._spiral_table.cache_info().currsize == 0
    got = eng.mu_abs_quad(zc).tolist()
    differ = [(p, z) for p, z, g, w in zip(paths, zc.tolist(), got, want) if g.hex() != w.hex()]
    assert differ == []
    assert [g for g, b in zip(got, band.tolist()) if not b] == [0.0] * int((~band).sum())
    assert all(abs(g - abs(mu)) <= 4 * math.ulp(g) for (mu, *_), g in zip(parts, got))


SECTOR_SEAM = 12.0 * math.pi  # the first seam height of the sectors map's base strips


@pytest.mark.parametrize("name, z, flagged", [
    # sectors 1 and 2n read the base map half a turn away from z^3
    ("sectors", complex(3.0, SECTOR_SEAM + math.pi) ** (1 / 3), True),
    ("sectors", complex(3.0, SECTOR_SEAM) ** (1 / 3), False),
    # in the q-band the U strips read q = Q(z^rho): Im Q(0.5 + 6.09284i) = 4 pi, the first U seam
    ("power", complex(0.5, 6.09284) ** (1 / 0.75), True),
    ("power", complex(0.5, 4.0 * math.pi) ** (1 / 0.75), False),
    # mu jumps across the edges Re w = 1 and |Im w| = 1 of Q's band piece
    *(pytest.param("power", w ** (1 / 0.75), True, marks=pytest.mark.xfail(
        strict=True, reason="straddle_mask does not flag the edges of Q's pieces (ROADMAP item 6)"))
      for w in (complex(1.0, 3.0), complex(0.5, 1.0))),
], ids=["sectors-seam", "sectors-off-seam", "power-seam", "power-off-seam", "power-q-edge-re", "power-q-edge-im"])
def test_straddle_mask_tests_the_point_the_map_reads(name, z, flagged, sectors_map, power_map):
    # one tiny polar cell around z: a seam crosses it exactly when it is flagged
    eng = {"sectors": sectors_map, "power": power_map}[name]._impl
    r, h = abs(z), 1e-4
    th = cmath.phase(z) + np.array([-h, h])
    z0, z1 = ((r + d) * np.cos(th) + 1j * ((r + d) * np.sin(th)) for d in (-h, h))
    assert eng.straddle_mask(2.0 * r)(z0, z1).tolist() == [flagged]


POWER_SHOWN = {"rho": 0.75, "gamma": 2.0, "sigma": 1.5, "delta": 0.5}


@pytest.mark.parametrize("flavor,params,want", [
    ("strips", {"lam1": 0.5, "lam2": 0.5}, {"params": {"lam1": 0.5, "lam2": 0.5}, "case": "I", "l": 1}),
    ("mixed", {"lam1": 0.5, "lam2": 1.0}, {"params": {"lam1": 0.5, "lam2": 1.0}, "case": "II", "l": 3}),
    ("strips", {"lam1": 0.5, "lam2": 0.5, "sectors": 3},
     {"params": {"lam1": 0.5, "lam2": 0.5, "sectors": 3}, "case": "I", "l": 1, "sectors": 3}),
    ("power", {"rho": 0.75, "delta": 0.5}, {"params": POWER_SHOWN, **POWER_SHOWN}),
], ids=["strips", "mixed", "sectors", "power"])
def test_every_flavor_serializes(flavor, params, want):
    gm = assemble(flavor, **params)
    assert gm.to_dict() == dict(want, flavor=flavor)
    assert json.loads(gm.to_json()) == dict(want, flavor=flavor)


def test_origin_is_its_own_piece(power_map, spiral_map):
    # the power map reads U at q = 0 there: strip 1's plain model at its
    # shift, where g = 2, the limit of the map from either wedge
    v = power_map(0)
    assert v.imag == 0.0 and v.real == pytest.approx(math.log(2.0), abs=1e-14)
    for z in (1e-6, 1e-6j, -1e-6j, -1e-6, cmath.rect(1e-6, 2.5)):
        u = power_map(z)
        assert abs(u.real - v.real) < 1e-8 and abs(u.imag) < 1e-8, z
    assert power_map._impl.mu_parts(0) == (0j, 0j, 0.0, 0.0, None, None)
    assert beltrami_at(power_map, 0).indeterminate
    for gm in (power_map, spiral_map):
        info = gm.classify(0)
        assert (info.label, info.seam_distance) == ("origin", 0.0)


def test_map_serialization(spiral_map):
    d = spiral_map.to_dict()
    assert d["flavor"] == "spiral"
    assert d["params"]["kappa"] == 4.0
    blob = json.loads(spiral_map.to_json())
    assert blob["params"]["upper"] == [1, 1]
