"""Slope-sequence builders and the piecewise-linear profile family."""
import hashlib
import io
import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from banklaine import sequences
from banklaine.sequences import (
    MAX_ENTRIES,
    TWO_PI,
    ProfileBundle,
    SlopeSequence,
    alpha_weight,
    build_binary_profile,
    build_graded_slopes,
    build_paired_slopes,
    export_csv,
    select_case,
)


# ---------------------------------------------------------------------------
# binary (0/1) profiles
# ---------------------------------------------------------------------------

def test_log_profile_first_marks():
    # hand check: [log(2pi k)]^2 >= 2pi i  <=>  k >= e^sqrt(2pi i)/2pi
    #   i=1: k >= 1.95 -> 2, delayed to 4;  i=2: k >= 5.51 -> 6
    #   i=3: 12.2 -> 13;  i=4: 23.9 -> 24;  i=5: 43.2 -> 44;  i=6: 73.8 -> 74
    seq = build_binary_profile(0.0)
    assert seq.marked(100) == [4, 6, 13, 24, 44, 74]


def test_log_profile_mark_ratio():
    """2 pi k_i should approach e^sqrt(2 pi i) with O(1/k_i) error."""
    seq = build_binary_profile(0.0)
    marks = seq.marked(200_000)
    for i in (10, 20, 30):
        ratio = TWO_PI * marks[i - 1] / math.exp(math.sqrt(TWO_PI * i))
        assert abs(ratio - 1.0) < 0.01, (i, ratio)


def test_sqrt_profile_marks():
    # (2 pi k)^(1/2) >= 2 pi i  <=>  k >= 2 pi i^2: 6.29->7, 25.2->26, 56.6->57
    seq = build_binary_profile(0.5)
    assert seq.marked(200) == [7, 26, 57, 101, 158]


def test_power_profile_deviation():
    """The 0.9-power profile hugs x^0.9 within 2pi+1 past the delayed prefix.

    Below x ~ 44 the mandatory zero prefix makes the deviation spike to
    ~14 (h(6pi) = 0 against (6pi)^0.9), so the sweep starts at 50.
    """
    seq = build_binary_profile(0.9)
    bundle = ProfileBundle(seq, build_binary_profile(0.0))
    xs = np.linspace(50.0, 1e6, 300_001)
    dev = np.abs(bundle.h1(xs) - xs**0.9)
    assert dev.max() <= TWO_PI + 1.0


def test_binary_rejects_bad_exponent():
    with pytest.raises(ValueError):
        build_binary_profile(1.0)
    with pytest.raises(ValueError):
        build_binary_profile(-0.1)


@given(st.floats(min_value=0.0, max_value=0.95))
@settings(max_examples=25, deadline=None)
def test_binary_entries_are_bits_and_marks_increase(lam):
    seq = build_binary_profile(lam)
    e = seq.prefix(400)
    assert set(np.unique(e)).issubset({0, 1})
    assert list(e[:3]) == [0, 0, 0]
    marks = seq.marked(400)
    assert all(b > a for a, b in zip(marks, marks[1:]))
    if marks:  # tiny lam pushes k_1 = ceil((2pi)^(1/lam-1)) out of range
        assert marks[0] >= 4


# ---------------------------------------------------------------------------
# graded (odd-increment) sequences
# ---------------------------------------------------------------------------

def test_graded_degenerate_branches():
    z = build_graded_slopes(2.0, 0.0)
    assert not np.any(z.prefix(500))
    ones = build_graded_slopes(2.0, 0.5)  # delta*gamma = 1
    e = ones.prefix(500)
    assert list(e[:3]) == [0, 0, 0] and np.all(e[3:] == 1)


def test_graded_sub_one_reduces_to_binary():
    # delta*gamma = 0.5 marks at k >= 2 pi i^2, same as the sqrt profile
    seq = build_graded_slopes(2.0, 0.25)
    assert seq.marked(200)[:3] == [7, 26, 57]
    for i, k in enumerate(seq.marked(50_000), start=1):
        assert k >= 6 * i * i  # k_i >= c i^(1/(delta gamma)) with c ~ 2 pi


def test_graded_increments_odd_and_nondecreasing():
    seq = build_graded_slopes(2.0, 1.0)
    m = seq.prefix(5000)
    inc = np.diff(m)
    assert np.all(inc >= 0)
    assert np.all(inc[inc > 0] % 2 == 1)
    assert list(m[:3]) == [0, 0, 0]


def test_graded_slope_tracks_damped_power():
    """m_k ~ delta*gamma*alpha(k)(2pi k)^(dg-1); ratio within 15% at k=1e4."""
    seq = build_graded_slopes(2.0, 1.0)
    k = 10_000
    ratio = seq.entry(k) / (2.0 * alpha_weight(float(k)) * TWO_PI * k)
    assert abs(ratio - 1.0) < 0.15, ratio


def test_graded_rejects_bad_params():
    with pytest.raises(ValueError):
        build_graded_slopes(1.0, 0.5)
    with pytest.raises(ValueError):
        build_graded_slopes(2.0, 1.5)


# ---------------------------------------------------------------------------
# paired sequences (N_k = m_k + 2 n_k + 1)
# ---------------------------------------------------------------------------

def test_paired_prefix_and_parity():
    m = build_graded_slopes(1.5, 1.0)
    n = build_paired_slopes(1.5, m)
    mk = m.prefix(2000)
    nk = n.prefix(2000)
    N = mk + 2 * nk + 1
    assert np.all(nk >= 0)
    assert np.all((N - mk) % 2 == 1)
    assert list(N[:3]) == [1, 1, 1]


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_paired_rejects_gamma_at_most_one(gamma):
    with pytest.raises(ValueError, match=f"^gamma must exceed 1, got {gamma}$"):
        build_paired_slopes(gamma, build_graded_slopes(1.5, 1.0))


def test_paired_slope_ratio_gamma_two():
    m = build_graded_slopes(2.0, 1.0)
    n = build_paired_slopes(2.0, m)
    k = 10_000
    N = m.entry(k) + 2 * n.entry(k) + 1
    assert abs(N / (2.0 * TWO_PI * k) - 1.0) < 0.05


def test_paired_inverse_tracks_identity():
    """Fitted C in |g-x| <= C(1/x + 1/sqrt(x)) stays below 10 on [10, 1e4].

    Least-squares fit: the mandatory N=1 prefix pins H(x)=x below 6pi, which
    costs ~9 near x=10 no matter the rounding, so a sup-ratio would sit
    around 21 while the tail behaves like 8/sqrt(x).
    """
    m = build_graded_slopes(1.5, 0.0)
    n = build_paired_slopes(1.5, m)
    bundle = ProfileBundle(m, n, target_exponent=1.5)
    xs = np.linspace(10.0, 1e4, 20_000)
    dev = np.abs(bundle.g(xs) - xs)
    shape = 1.0 / xs + xs**-0.5
    c_fit = float(np.dot(dev, shape) / np.dot(shape, shape))
    assert c_fit < 10.0, c_fit
    # and the deviation does die out along the sweep
    assert dev[-1] < 0.1 < dev[0]


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def _random_bundle():
    m = build_binary_profile(0.0)
    n = build_binary_profile(0.5)
    return ProfileBundle(m, n)


def test_profile_slopes_match_entries():
    b = _random_bundle()
    for k in (1, 2, 5, 17, 400):
        mid = TWO_PI * (k - 0.5)
        for prof, entry in (
            (b.h1, b.m_seq.entry(k)),
            (b.h2, 2 * b.n_seq.entry(k)),
            (b.H, b.m_seq.entry(k) + 2 * b.n_seq.entry(k) + 1),
        ):
            slope = (prof(mid + 0.25) - prof(mid - 0.25)) / 0.5
            assert round(slope) == entry
            assert abs(slope - entry) < 1e-9


def test_profile_identity_inverse():
    b = _random_bundle()
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.0, 1e5, size=10_000)
    err = np.abs(b.H(b.g(xs)) - xs)
    assert err.max() <= 1e-12 * max(1.0, 1e5)
    # exact at breakpoints of the image grid
    ks = np.arange(1, 50)
    bp = TWO_PI * np.array([b.script_N(int(k)) for k in ks], dtype=float)
    assert np.allclose(b.g(bp), TWO_PI * ks, rtol=0, atol=1e-9)
    g = b.g(np.sort(xs))
    assert np.all(np.diff(g) >= 0)


def test_profile_omega_nonnegative_and_additive():
    b = _random_bundle()
    xs = np.linspace(0.0, 2e4, 5000)
    om = b.omega(xs)
    assert np.all(om >= 0)
    assert np.allclose(om, b.h1(xs) + b.h2(xs), atol=1e-8)
    assert np.allclose(b.H(xs), xs + om, atol=1e-8)


@pytest.mark.parametrize("x", [14.5 * TWO_PI, np.array([1.0, 14.5 * TWO_PI])], ids=["scalar", "array"])
def test_profile_inverse_fails_loudly_at_the_entry_cap(monkeypatch, x):
    # case III: H grows like 8 pi k, so x^3 = 7.5e5 needs about 30,000 strips,
    # past a cap of 1024; g must raise there, not extend the last slope
    monkeypatch.setattr(sequences, "MAX_ENTRIES", 1024)
    cs = select_case(1.0, 1.0)
    with pytest.raises(ValueError, match=r"^H\(2 pi k\) = 25679\.4 at the cap k = 1024 stays below x\^gamma = 756212$"):
        ProfileBundle(cs.m_seq, cs.n_seq, 3.0).g(x)


def test_profile_inverse_reaches_targets_up_to_the_entry_cap(monkeypatch):
    # x^2 = 22,620 needs about 900 strips and H(2 pi 1000) = 25,076 covers it, though doubling k from 25 jumps to 1600
    monkeypatch.setattr(sequences, "MAX_ENTRIES", 1000)
    cs = select_case(1.0, 1.0)
    b = ProfileBundle(cs.m_seq, cs.n_seq, 2.0)
    assert b.H(b.g(150.4)) == pytest.approx(150.4**2, rel=1e-12)


def test_profile_rejects_negative_argument():
    b = _random_bundle()
    with pytest.raises(ValueError):
        b.h1(-1.0)
    with pytest.raises(ValueError):
        b.g(np.array([3.0, -2.0]))


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.array([1.0, math.nan]), np.array([math.inf, 1.0])],
                         ids=["nan", "inf", "-inf", "array-nan", "array-inf"])
def test_profiles_reject_non_finite_arguments(x):
    # NaN and inf fail at the domain check, which shows the argument, before
    # any floor division by 2 pi (a RuntimeWarning at inf, a failed int() at NaN)
    b = select_case(1.0, 1.0).bundle
    for name, fn in (("g is", b.g), ("profiles are", b.H), ("profiles are", b.h1), ("profiles are", b.omega)):
        with pytest.raises(ValueError) as err:
            fn(x)
        assert str(err.value) == f"{name} defined on [0, infinity), got x = {x!r}"


def test_omega_growth_double_log_case():
    # both sequences on the squared-log law: omega ~ 3 (log x)^2
    cs = select_case(0.0, 0.0)
    x = 1e5
    ratio = cs.bundle.omega(x) / (3.0 * math.log(x) ** 2)
    assert 0.7 < ratio < 1.3, ratio


# ---------------------------------------------------------------------------
# case selection
# ---------------------------------------------------------------------------

def test_select_case_enumeration():
    a = select_case(0.0, 0.5)
    assert (a.case, a.l) == ("I", 1)
    b = select_case(0.5, 1.0)
    assert (b.case, b.l) == ("II", 3)
    assert np.all(b.n_seq.prefix(200)[3:] == 1)
    c = select_case(1.0, 1.0)
    assert (c.case, c.l) == ("III", 4)
    N = c.m_seq.prefix(200) + 2 * c.n_seq.prefix(200) + 1
    assert np.all(N[3:] == 4) and np.all(N[:3] == 1)


def test_select_case_rejects_misordered():
    with pytest.raises(ValueError):
        select_case(1.0, 0.5)


@pytest.mark.parametrize("pair", [(0.0, 0.0), (0.5, 1.0), (1.0, 1.0)])
def test_slope_budget_and_linear_growth(pair):
    """N_k never exceeds 4 and the seam count grows like l*k."""
    cs = select_case(*pair)
    N = cs.m_seq.prefix(5000) + 2 * cs.n_seq.prefix(5000) + 1
    assert N.max() <= 4
    sN = np.cumsum(N)
    for k in (1000, 2000, 5000):
        assert 0.8 <= sN[k - 1] / (cs.l * k) <= 1.2


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_entry_indexing_and_cap():
    seq = build_binary_profile(0.5)
    with pytest.raises(IndexError):
        seq.entry(0)
    with pytest.raises(ValueError):
        seq.ensure(3_000_000)


def test_partial_sums_memoized():
    seq = build_graded_slopes(2.0, 1.0)
    assert seq.partial(0) == 0
    assert seq.partial(50) == int(seq.prefix(50).sum())
    assert seq.partial(10) == int(seq.prefix(10).sum())  # shrinking view


def test_concurrent_materialization():
    # a read past the published run draws a run of its own from the start and
    # publishes it whole, so threads that race read the entries of a serial
    # draw, by prefix and by entry; the paired sequence's source reads its m
    # sequence while other threads extend that sequence.  The threads start
    # together, and a 1e-6 s switch interval interleaves them finely
    n_threads = (os.cpu_count() or 1) + 3
    kmax = 3300 + 137 * n_threads
    serial = dict(zip(("binary", "graded", "paired"), (build_binary_profile(0.0).prefix(kmax),
                                                       *(seq.prefix(kmax) for seq in _graded_pair(2.0, 1.0)))))
    seqs = dict(zip(("binary", "graded", "paired"), (build_binary_profile(0.0), *_graded_pair(2.0, 1.0))))
    barrier, out, errors = threading.Barrier(n_threads), {}, []

    def grab(i):
        try:
            barrier.wait(timeout=60)
            for name in ("paired", "graded", "binary") if i % 2 else ("graded", "binary", "paired"):
                for k in (1 + 97 * i, 2000 + 137 * i, 3300 - 13 * i):
                    out[i, name, k] = seqs[name].prefix(k).copy(), seqs[name].entry(k)
        except BaseException as exc:  # surfaced by the asserts below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grab, args=(i,), daemon=True) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and not errors, errors
    assert len(out) == 3 * 3 * n_threads
    for (_, name, k), (arr, last) in out.items():
        assert np.array_equal(arr, serial[name][:k]) and last == serial[name][k - 1], (name, k)


def test_csv_export_roundtrip():
    m = build_graded_slopes(2.0, 1.0)
    n = build_paired_slopes(2.0, m)
    buf = io.StringIO()
    export_csv(buf, m, n, 40)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "k,m_k,n_k,N_k,script_N_k"
    assert len(lines) == 41
    rows = [list(map(int, ln.split(","))) for ln in lines[1:]]
    run = 0
    for k, mk, nk, Nk, sNk in rows:
        assert Nk == mk + 2 * nk + 1
        run += Nk
        assert sNk == run
    assert rows[0][:4] == [1, 0, 0, 1]


@given(
    gamma=st.floats(min_value=1.2, max_value=2.5),
    delta=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=20, deadline=None)
def test_paired_parity_property(gamma, delta):
    m = build_graded_slopes(gamma, delta)
    n = build_paired_slopes(gamma, m)
    mk = m.prefix(300)
    N = mk + 2 * n.prefix(300) + 1
    assert np.all((N - mk) % 2 == 1)
    assert np.all(N >= 1)
    assert list(N[:3]) == [1, 1, 1]


# ---------------------------------------------------------------------------
# recorded entries
# ---------------------------------------------------------------------------

def _digest(entries) -> str:
    return hashlib.sha256(np.asarray(entries, dtype="<i8").tobytes()).hexdigest()[:16]


def _graded_pair(gamma, delta):
    m = build_graded_slopes(gamma, delta)
    return m, build_paired_slopes(gamma, m)


# (builder, sha256 prefix of entries 1..2000 as little-endian int64, their
# sum, entry 2000), recorded from the builders before they became generators
RECORDED = [
    ("binary 0.0", lambda: build_binary_profile(0.0), "72f4576bd2a650d8", 14, 0),
    ("binary 0.5", lambda: build_binary_profile(0.5), "0e3f3d0cd604abf5", 17, 0),
    ("binary 0.9", lambda: build_binary_profile(0.9), "9593fe0efdacd3bb", 778, 1),
    ("graded 1.5 1.0", lambda: _graded_pair(1.5, 1.0)[0], "72230c68d8a461c9", 1996, 1),
    ("graded 2.0 1.0", lambda: _graded_pair(2.0, 1.0)[0], "ef26c4e38703020b", 73116, 58),
    ("graded 3.0 0.7", lambda: _graded_pair(3.0, 0.7)[0], "fd2782150acf9f2e", 185019, 152),
    ("paired 1.5 1.0", lambda: _graded_pair(1.5, 1.0)[1], "bffc013ad7f2ce7d", 110101, 83),
    ("paired 2.0 1.0", lambda: _graded_pair(2.0, 1.0)[1], "02993dde18d6e2cd", 12528812, 12534),
    ("paired 3.0 0.7", lambda: _graded_pair(3.0, 0.7)[1], "ac7fb5c0ff962e9f", 157913576907, 236752013),
    ("paired 1.5 0.0", lambda: _graded_pair(1.5, 0.0)[1], "3e606b7609e3a516", 111099, 83),
    ("paired 2.0 0.5", lambda: _graded_pair(2.0, 0.5)[1], "36247095abf03402", 12564372, 12563),
]


@pytest.mark.parametrize("name, build, digest, total, last", RECORDED, ids=[r[0] for r in RECORDED])
def test_first_entries_match_the_record(name, build, digest, total, last):
    bulk = build().prefix(2000)
    assert (_digest(bulk), int(bulk.sum()), int(bulk[-1])) == (digest, total, last)
    step = build()
    assert [step.entry(k) for k in range(1, 2001)] == bulk.tolist()


@pytest.mark.parametrize("make, value", [(lambda: build_graded_slopes(2.0, 0.0), 0),
                                         (lambda: build_graded_slopes(2.0, 0.5), 1),
                                         (lambda: select_case(1.0, 1.0).m_seq, 1)],
                         ids=["zeros", "ones", "case III"])
def test_constant_tails_match_the_record(make, value):
    assert make().prefix(2000).tolist() == [0, 0, 0] + [value] * 1997
    step = make()
    assert [step.entry(k) for k in range(1, 2001)] == [0, 0, 0] + [value] * 1997


def test_failed_source_keeps_failing():
    """(2 pi k)^499 overflows at k = 4; later reads must not return short data."""
    m, n = _graded_pair(500.0, 1.0)
    for seq in (m, n):
        for _ in range(3):
            with pytest.raises((OverflowError, RuntimeError)):
                seq.entry(5)
            with pytest.raises((OverflowError, RuntimeError)):
                seq.prefix(10)


@pytest.mark.parametrize("call", ["ensure", "prefix", "cumulative", "partial", "marked"])
@pytest.mark.parametrize("k", [-1, -3, MAX_ENTRIES + 1])
def test_lengths_outside_the_range_are_rejected(call, k):
    seq = build_binary_profile(0.5)
    with pytest.raises(ValueError):
        getattr(seq, call)(k)
