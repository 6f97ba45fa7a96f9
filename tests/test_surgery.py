"""Gluing surgery: spiral charts, strip homeomorphism, assembled maps, dilatation."""

import cmath
import dataclasses
import hashlib
import json
import math
import os
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from banklaine.diffeo import LEFT, RIGHT, DiffeoSpec, closed_form_c, solve_shift
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
from banklaine.scaledcx import wrap_phase
from banklaine import surgery
from banklaine.surgery import SpiralCharts, StripHomeo, _affine_mu_abs, _cell_range, _compose_affine, _SpiralEngine

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
    assert v.log_modulus == pytest.approx(math.log(2.0), abs=5e-15)
    assert v.phase == 0.0


def test_strips_positive_axis_law(strips_map):
    # on the positive reals the assembly reduces to the base model:
    # log G(x) = exp(x/l + s00), and case I has l = 1
    s00 = solve_shift(P00, PLAIN).value
    for x in (0.4, 1.3, 2.9, 5.5):
        v = strips_map(complex(x, 0.0))
        assert v.phase == 0.0
        assert math.isclose(v.log_modulus, math.exp(x + s00), rel_tol=1e-14)


def test_spiral_center_value(spiral_map):
    # at the puncture the glued map takes the model's value 3e/8
    v = spiral_map(0j).to_complex()
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


def test_power_seam_residuals(power_map):
    checks = power_map.seam_residuals(samples=16, strips=2)
    names = {c.name for c in checks}
    assert {"axis-identity", "ray+", "ray-"} <= names
    for c in checks:
        assert c.max_gap < 1e-9, c


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


def test_seam_distance_is_a_z_plane_distance(sectors_map, spiral_map):
    # step a distance delta off a seam along its normal; the seam lies in
    # the chart f (z^n on the sectors, h on the spiral), where it is the
    # level set Im f = const, so the normal step is i conj(f')/|f'|
    delta = 1e-4

    def step_off(z0, fprime):
        return z0 + delta * 1j * fprime.conjugate() / abs(fprime)

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


def test_sector_dilatation_skips_the_core(sectors_map):
    rep = dilatation_integral(sectors_map, 2.0, 5.0)
    assert rep.skipped_cells > 0
    assert rep.evaluated_cells > 0
    assert rep.total > 0.0


def test_sector_sheets_are_reciprocal(sectors_map):
    eng = sectors_map._impl
    # below |Im w| = pi the flipped sheet is assembled from the exact
    # exponential-reciprocal formula: the product is bit-for-bit 1
    for w in (2.0 + 1.5j, 0.7 + 0.4j):
        prod = eng.base.eval(w).mul(eng.flipped_value(w))
        assert prod.log_modulus == 0.0
        assert prod.phase == 0.0
    # above, the half-turn translate takes over and rounding enters
    for w in (2.0 + 4.0j, 3.0 + 6.0j):
        prod = eng.base.eval(w).mul(eng.flipped_value(w))
        assert abs(prod.log_modulus) < 1e-14
        assert abs(prod.phase) < 1e-14


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
    with pytest.raises(ValueError, match="inconsistent"):
        assemble("power", rho=0.75, delta=0.5, gamma=2.5)


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


def test_pair_cap_fails_loudly_where_a_strip_system_stops():
    # the graded slopes for rho = 0.6 jump from 0 to m_4 = 157,607, past
    # PAIR_CAP: the map assembles and evaluates below that strip, and a
    # point whose left-wedge system reaches it names the cap and the height
    gm = assemble("power", rho=0.6, delta=1.0)
    assert gm(1.0).kind == gm(2.0 * cmath.exp(2.8j)).kind == "finite"
    for _ in range(2):  # the system stays where it stopped
        with pytest.raises(PairCapError) as err:
            gm(3.34 * cmath.exp(2.8j))
        assert str(err.value) == ("strip system V stops at local height 12.566370614359172: "
                                  "strip V4 needs the pair (157607, 719169), past PAIR_CAP = 10000")


def test_concurrent_evaluation_matches_serial(strips_map):
    pts = [complex(x, y)
           for x in np.linspace(0.3, 5.7, 6)
           for y in (0.4, 3.9, 12.9, 40.2)]
    serial = [strips_map(z) for z in pts]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(strips_map, pts))
    for a, b in zip(serial, threaded):
        assert math.isclose(a.log_modulus, b.log_modulus, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(a.phase, b.phase, rel_tol=1e-12, abs_tol=1e-12)


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
                    assert math.isclose(v.log_modulus, v0.log_modulus, rel_tol=1e-12, abs_tol=1e-12)
                    assert math.isclose(v.phase, v0.phase, rel_tol=1e-12, abs_tol=1e-12)
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
], ids=["strips", "power"])
def test_frozen_psi_tails_track_the_exact_map(flavor, params, z, tol):
    # a left table reads phi at x/N_{k+1} and a right one at x/l, so past
    # |x| = 24 psi still bends; the tolerances are the previous test's
    eng = assemble(flavor, **params)._impl
    assert abs(eng.mu(z) - eng.mu_quad(z)) < tol


def test_quadrature_tables_do_not_depend_on_reading_order():
    # the heights sit in the transition strips 6 and 7 of both sides; right
    # tables solve exactly on 0 < x <= 2, where the warm start still
    # carries over from the previous call, so that band is left out
    pts = [complex(x, y) for x in np.arange(-25.8, 26.0, 0.45) for y in (33.0, 45.0, 60.0)
           if not 0.0 < x <= 2.0]
    shuffled = pts[:]
    random.Random(7).shuffle(shuffled)
    in_order = assemble("strips", lam1=0.5, lam2=0.5)._impl
    mixed_up = assemble("strips", lam1=0.5, lam2=0.5)._impl
    want = {z: in_order.mu_quad(z) for z in sorted(pts, key=lambda z: (z.real, z.imag))}
    got = {z: mixed_up.mu_quad(z) for z in shuffled}
    assert all(want[z] != 0 for z in pts)
    assert [z for z in pts if got[z] != want[z]] == []


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
        labels, conformal, uninterpolated = eng.cell_states(np.array(zs))
        digest = hashlib.sha256("\n".join(labels.tolist()).encode()).hexdigest()[:16]
        assert digest == PINS["cell_state_labels"][name], name
        for z, conf, uninterp in zip(zs, conformal.tolist(), uninterpolated.tolist()):
            info = gm.classify(z)
            assert info.conformal == conf, (name, z)
            assert info.uninterpolated == uninterp, (name, z)
            if conf:
                assert eng.mu(z) == eng.mu_quad(z) == 0, (name, z)


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


@pytest.mark.parametrize("name", sorted(PINS["reports"]))
def test_dilatation_blocks_do_not_change_the_report(name, monkeypatch):
    # consecutive shells share one engine call per block of BLOCK_CELLS
    # nodes; one shell per block, and the whole annulus as one block, give
    # every figure of the report to the last bit
    case = PINS["reports"][name]

    def report(block_cells):
        monkeypatch.setattr(surgery, "BLOCK_CELLS", block_cells)
        gm, calls = assemble(case["flavor"], **case["params"]), [0]
        cell_states = gm._impl.cell_states

        def counted(zc):
            calls[0] += 1
            return cell_states(zc)

        monkeypatch.setattr(gm._impl, "cell_states", counted)
        rep = dilatation_integral(gm, case["r_min"], case["r_max"])
        sums = {key: [v.hex() for v in getattr(rep, key).tolist()] for key in ("shell_sums", "cumulative")}
        sums.update(strip_sums={k: v.hex() for k, v in rep.strip_sums.items()},
                    shell_strip_sums={k: v.hex() for k, v in rep.shell_strip_sums.items()})
        return (rep.total.hex(), rep.straddle_fraction.hex(),
                {key: getattr(rep, key) for key in case["cells"]}, sums), calls[0], len(rep.shell_sums)

    want, blocks, shells = report(surgery.BLOCK_CELLS)
    assert want[0] == case["total"]
    for block_cells in (1, 10 ** 9):
        got, calls, _ = report(block_cells)
        assert got == want, block_cells
        assert calls == (shells if block_cells == 1 else 1)
    if name == "strips":
        assert 2 <= blocks < shells  # blocks meet inside the annulus, and a block joins several shells


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
    labels, conformal, uninterp = eng.cell_states(pts)
    assert conformal.tolist() == (~band_want).tolist() and not uninterp.any()
    assert labels.tolist() == np.where(band_want, "cut-band", "regular").tolist()
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


def _hermite_test_points(table, rng) -> np.ndarray:
    """Every node, both neighbours of the grid ends, of 2 and of -24, and points where pow(1 - s, 2) != (1 - s)^2."""
    xs = table.xs
    ends = np.array([xs[0], xs[-1], 2.0, -24.0])
    x = rng.uniform(xs[0], xs[-1], 1_500_000)
    i = np.searchsorted(xs, x, side="right") - 1
    u = 1 - (x - xs[i]) / (xs[i + 1] - xs[i])  # as the Hermite read forms it
    pow_differs = np.array([math.pow(v, 2) for v in u.tolist()]) != u * u
    assert pow_differs.sum() >= 1000
    return np.concatenate([xs, ends, np.nextafter(ends, -math.inf), np.nextafter(ends, math.inf), x[pow_differs]])


def test_psi_cache_hermite_array_reads_match_eval():
    # _StripSystem.psi_read gives _PsiCache.eval's bits wherever eval does not
    # solve exactly, NaN where it does (right tables at -24 < x <= 2), and
    # x + 0 and 1 in strips without psi.  It builds every table it reads, and
    # reads rows stacked in any order as it reads each one alone
    rng = np.random.default_rng(17)
    eng = assemble("strips", lam1=0.5, lam2=0.5)._impl
    for side in (RIGHT, LEFT):
        sys_ = eng.up[side]
        with_psi = [sys_.strip(k) for k in range(1, 9) if sys_.strip(k).psi is not None]
        free = next(sys_.strip(k) for k in range(1, 9) if sys_.strip(k).psi is None)
        table = with_psi[0].psi_table
        x = _hermite_test_points(table, rng)
        exact = (x < table.xs[-1]) & (x > -24.0) & (x <= table.xs[0])
        assert exact.any() == (table.xs[0] == 2.0)
        assert [s.psi_table._table for s in with_psi] == [None, None]
        px, dp = sys_.psi_read(x, np.full(len(x), with_psi[0].k - 1))
        assert table._table is not None and with_psi[1].psi_table._table is None
        want = [table.eval(v) for v in x[~exact].tolist()]
        assert np.isnan(px[exact]).all() and np.isnan(dp[exact]).all()
        assert [(p.hex(), d.hex()) for p, d in zip(px[~exact].tolist(), dp[~exact].tolist())] == \
            [(p.hex(), d.hex()) for p, d in want]
        fx, fd = sys_.psi_read(x, np.full(len(x), free.k - 1))
        assert [v.hex() for v in fx.tolist()] == [(v + 0.0).hex() for v in x.tolist()] and (fd == 1.0).all()
        rows = [s.k - 1 for s in with_psi + [free]]
        alone = [np.concatenate(r) for r in zip(*(sys_.psi_read(x, np.full(len(x), k)) for k in rows))]
        order = rng.permutation(len(rows) * len(x))
        stacked = sys_.psi_read(np.tile(x, len(rows))[order], np.repeat(rows, len(x))[order])
        assert [[v.hex() for v in got.tolist()] for got in stacked] == \
            [[v.hex() for v in got[order].tolist()] for got in alone]


@pytest.mark.parametrize("flavor, lams", [("strips", (0.5, 0.5)), ("mixed", (0.5, 0.9))])
def test_mu_abs_quad_matches_mu_quad_cell_by_cell(flavor, lams, monkeypatch):
    # the array hook must give abs(mu_quad(z)) to the last bit on every path:
    # frozen psi tails on both sides, strips without psi and Hermite cells as
    # arrays, and only exact cells, in cell order, through the scalar
    # _Engine.mu_abs_quad.  Right-side tables solve exactly on 0 <= x <= 2
    # from the warm start the previous solve of the same strip left: built
    # before any exact solve, the tables leave each solver the sequence of
    # solves a scalar pass over the cells gives it on a fresh twin map, in one
    # call or split over two
    rng = np.random.default_rng(11)
    zc = rng.uniform(1.0, 450.0, 4000) * np.exp(1j * rng.uniform(-math.pi, math.pi, 4000))
    twin = assemble(flavor, lam1=lams[0], lam2=lams[1])._impl
    want = [abs(twin.mu_quad(z)) for z in zc.tolist()]
    paths, exact = [], []
    for z in zc.tolist():
        _, s, _ = twin._locate(z)
        if s.psi is None:
            paths.append("psi-free")
        elif z.real >= s.psi_table.xs[-1] or z.real <= -s.psi_table.SPAN:
            paths.append("tail-high" if z.real > 0 else "tail-low")
        else:
            paths.append("exact" if 0.0 <= z.real <= 2.0 else "hermite")
        if paths[-1] == "exact":
            exact.append(z)
    assert set(paths) == {"psi-free", "tail-high", "tail-low", "exact", "hermite"}
    scalar, reached = surgery._Engine.mu_abs_quad, []

    def counted(self, zs):
        reached.extend(zs.tolist())
        return scalar(self, zs)

    monkeypatch.setattr(surgery._Engine, "mu_abs_quad", counted)
    for cuts in ([], [1700]):
        eng, reached[:] = assemble(flavor, lam1=lams[0], lam2=lams[1])._impl, []
        got = np.concatenate([eng.mu_abs_quad(part) for part in np.split(zc, cuts)])
        differ = [(p, z) for p, z, g, w in zip(paths, zc.tolist(), got.tolist(), want) if g.hex() != w.hex()]
        assert differ == [] and reached == exact, cuts


SECTOR_SEAM = 12.0 * math.pi  # the first seam height of the sectors map's base strips


@pytest.mark.parametrize("name, z, flagged", [
    # sectors 1 and 2n read the base map half a turn away from z^3
    ("sectors", complex(3.0, SECTOR_SEAM + math.pi) ** (1 / 3), True),
    ("sectors", complex(3.0, SECTOR_SEAM) ** (1 / 3), False),
    # in the q-band the U strips read q = Q(z^rho): Im Q(0.5 + 6.09284i) = 4 pi, the first U seam
    ("power", complex(0.5, 6.09284) ** (1 / 0.75), True),
    ("power", complex(0.5, 4.0 * math.pi) ** (1 / 0.75), False),
], ids=["sectors-seam", "sectors-off-seam", "power-seam", "power-off-seam"])
def test_straddle_mask_tests_the_point_the_map_reads(name, z, flagged, sectors_map, power_map):
    # one tiny polar cell around z: a seam crosses it exactly when it is flagged
    eng = {"sectors": sectors_map, "power": power_map}[name]._impl
    r, h = abs(z), 1e-4
    th = cmath.phase(z) + np.array([-h, h])
    z0, z1 = ((r + d) * np.cos(th) + 1j * ((r + d) * np.sin(th)) for d in (-h, h))
    assert eng.straddle_mask(2.0 * r)(z0, z1).tolist() == [flagged]


def test_map_serialization(spiral_map):
    d = spiral_map.to_dict()
    assert d["flavor"] == "spiral"
    assert d["params"]["kappa"] == 4.0
    blob = json.loads(spiral_map.to_json())
    assert blob["params"]["upper"] == [1, 1]
