"""Slope sequences and piecewise-linear height profiles.

All bookkeeping lives on the 2*pi grid: a sequence assigns an integer slope
to each interval [2pi(k-1), 2pi k], and profiles are the running integrals.
Each sequence draws its entries on demand from a generator, because a
profile queried at x needs about x / 2pi of them.
"""
from __future__ import annotations

import csv
import math
import threading
from dataclasses import dataclass
from itertools import chain, count, islice, repeat
from typing import Callable, Iterable, Iterator, Union

import numpy as np

TWO_PI = 2.0 * math.pi

# hard ceiling on materialized entries; profiles above x ~ 1.2e7 are out of
# desk range anyway
MAX_ENTRIES = 2_000_000


def alpha_weight(x: float) -> float:
    """The damping weight [log(x + 2pi)]^-3 used by graded sequences."""
    return math.log(x + TWO_PI) ** -3


def _power_mark(i: int, lam: float) -> int:
    """Smallest k with v(2 pi k) >= 2 pi i, v(x) = x^lam or, at lam = 0, (log x)^2, by formula plus float-safe nudge."""
    v = (lambda x: math.log(x) ** 2) if lam == 0.0 else (lambda x: x ** lam)
    log_v = (math.sqrt(TWO_PI * i) if lam == 0.0 else math.log(TWO_PI * i) / lam) - math.log(TWO_PI)
    if log_v > math.log(MAX_ENTRIES + 1):
        return MAX_ENTRIES + 1  # beyond any materializable range
    k = max(1, math.floor(math.exp(log_v)))
    if k > MAX_ENTRIES:
        return MAX_ENTRIES + 1
    # the formula is exact up to rounding, so these nudges take O(1) steps
    while v(TWO_PI * k) < TWO_PI * i:
        k += 1
    while k > 1 and v(TWO_PI * (k - 1)) >= TWO_PI * i:
        k -= 1
    return k


class SlopeSequence:
    """Integer slopes m_k (k >= 1) drawn on demand from a generator.

    ``entries_list`` holds the entries drawn so far; ``ensure`` extends it
    from the source under ``_lock``.  A source that raised is finished, so
    every later request past the entries it gave raises too.
    """

    def __init__(self, source: Iterable[int]):
        self._source: Iterator[int] = iter(source)
        self.entries_list: list = []
        self._lock = threading.Lock()

    def ensure(self, kmax: int) -> None:
        if not 0 <= kmax <= MAX_ENTRIES:
            raise ValueError(f"k = {kmax} outside [0, {MAX_ENTRIES}]")
        if len(self.entries_list) < kmax:
            with self._lock:
                have = len(self.entries_list)
                if have < kmax:
                    self.entries_list.extend(islice(self._source, kmax - have))
                    if len(self.entries_list) < kmax:
                        raise RuntimeError(
                            f"the source of this sequence stopped after {len(self.entries_list)} entries")

    def entry(self, k: int) -> int:
        if k < 1:
            raise IndexError("sequence indices start at 1")
        self.ensure(k)
        return self.entries_list[k - 1]

    def prefix(self, kmax: int) -> np.ndarray:
        self.ensure(kmax)
        return np.asarray(self.entries_list[:kmax], dtype=np.int64)

    def cumulative(self, kmax: int) -> np.ndarray:
        """Partial sums S_1..S_kmax; of a binary profile, the marks up to strip k, ~ (2 pi k)^lam / (2 pi)."""
        return np.cumsum(self.prefix(kmax))

    def partial(self, k: int) -> int:
        """S_k, with S_0 = 0: the count of marked strips (zeros or poles) among the first k."""
        if k == 0:
            return 0
        return int(self.cumulative(k)[-1])

    def marked(self, kmax: int) -> list:
        """Indices k <= kmax with a nonzero entry (unit-slope kinds)."""
        e = self.prefix(kmax)
        return [int(k) for k in np.nonzero(e)[0] + 1]


def _binary_slopes(lam: float) -> Iterator[int]:
    yield from (0, 0, 0)
    k = 3
    for i in count(1):
        mark = max(_power_mark(i, lam), k + 1)
        yield from repeat(0, mark - k - 1)
        yield 1
        k = mark


def build_binary_profile(lam: float) -> SlopeSequence:
    """0/1 slopes whose profile follows (log x)^2 (lam = 0) or x^lam.

    The mark for level 2 pi i is the unique k whose interval absorbs the
    crossing; early marks are delayed past the three-entry zero prefix and
    forced strictly increasing, which costs O(1) in the profile.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"profile exponent must lie in [0, 1), got {lam}")
    return SlopeSequence(_binary_slopes(lam))


def _constant_tail(value: int) -> SlopeSequence:
    return SlopeSequence(chain((0, 0, 0), repeat(value)))


def _graded_slopes(dg: float) -> Iterator[int]:
    yield from (0, 0, 0)
    sum_target, sum_actual, prev = 0.0, 0, 0
    for k in count(4):
        sum_target += dg * alpha_weight(float(k)) * (TWO_PI * k) ** (dg - 1.0)
        cand = math.floor(sum_target - (sum_actual - prev))
        if cand > prev and (cand - prev) % 2 == 0:
            cand -= 1  # largest admissible value: increments must be odd
        prev = max(prev, cand)
        sum_actual += prev
        yield prev


def build_graded_slopes(gamma: float, delta: float) -> SlopeSequence:
    """Nondecreasing slopes tracking delta*gamma*alpha(k)(2 pi k)^(dg-1).

    For delta*gamma <= 1 the sequence degenerates to 0/1 marks (all zero at
    dg = 0, all ones past the prefix at dg = 1, power-law marks between).
    Above 1, values are rounded down to the parity admissible under the
    odd-increment constraint, with the remainder carried forward so the
    cumulative deviation stays bounded.
    """
    if gamma <= 1.0:
        raise ValueError(f"gamma must exceed 1, got {gamma}")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    dg = delta * gamma
    if dg == 0.0:
        return _constant_tail(0)
    if dg == 1.0:
        return _constant_tail(1)
    if dg < 1.0:
        return build_binary_profile(dg)
    return SlopeSequence(_graded_slopes(dg))


def _paired_slopes(gamma: float, m_seq: SlopeSequence) -> Iterator[int]:
    sum_actual = 0
    for k in count(1):
        mk = m_seq.entry(k)
        Nk = mk + 1  # N_k = m_k + 2 n_k + 1 with n_k >= 0
        if k > 3:
            # cumulative target (2 pi k)^gamma for 2 pi * sum N_j
            want = math.floor((TWO_PI * k) ** gamma / TWO_PI - sum_actual)
            if want > Nk:
                Nk = want if (want - mk) % 2 else want - 1
        sum_actual += Nk
        yield (Nk - mk - 1) // 2


def build_paired_slopes(gamma: float, m_seq: SlopeSequence) -> SlopeSequence:
    """The (n_k) completing m_k to N_k = m_k + 2 n_k + 1 ~ gamma (2 pi k)^(gamma-1).

    N_k is the largest value of admissible parity keeping the cumulative
    profile under (2 pi k)^gamma, never below m_k + 1; the first three
    entries stay zero so N_k = 1 there.
    """
    if gamma <= 1.0:
        raise ValueError(f"gamma must exceed 1, got {gamma}")
    return SlopeSequence(_paired_slopes(gamma, m_seq))


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

ArrayLike = Union[float, np.ndarray]


class _PLProfile:
    """Piecewise-linear height with integer slope s_k on [2pi(k-1), 2pi k]."""

    def __init__(self, slopes_of: Callable[[int], np.ndarray]):
        self._slopes_of = slopes_of

    def __call__(self, x: ArrayLike) -> ArrayLike:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(xs < 0):
            raise ValueError("profiles are defined on [0, infinity)")
        kmax = int(np.max(xs) // TWO_PI) + 1
        slopes = self._slopes_of(kmax)
        cum = np.concatenate([[0.0], TWO_PI * np.cumsum(slopes)])
        k = np.minimum((xs // TWO_PI).astype(np.int64), kmax - 1)
        out = cum[k] + slopes[k] * (xs - TWO_PI * k)
        return out if isinstance(x, np.ndarray) else float(out[0])


@dataclass
class ProfileBundle:
    """The profile family of one (m_k, n_k) pair of sequences.

    h1 integrates m_k, h2 integrates 2 n_k, H integrates N_k = m_k+2n_k+1,
    omega = H - id, and g inverts H against the target x^gamma:
    H(g(x)) = x^gamma exactly (gamma = 1 for the bounded-slope assemblies,
    where the target is the identity).
    """

    m_seq: SlopeSequence
    n_seq: SlopeSequence
    target_exponent: float = 1.0

    def slopes_N(self, kmax: int) -> np.ndarray:
        return self.m_seq.prefix(kmax) + 2 * self.n_seq.prefix(kmax) + 1

    def script_N(self, k: int) -> int:
        """Partial sum of N_j up to k: H(2 pi k) = 2 pi script_N(k), the height of strip k's top seam."""
        if k == 0:
            return 0
        return int(np.sum(self.slopes_N(k)))

    @property
    def h1(self) -> _PLProfile:
        return _PLProfile(lambda kmax: self.m_seq.prefix(kmax).astype(float))

    @property
    def h2(self) -> _PLProfile:
        return _PLProfile(lambda kmax: 2.0 * self.n_seq.prefix(kmax).astype(float))

    @property
    def H(self) -> _PLProfile:
        return _PLProfile(lambda kmax: self.slopes_N(kmax).astype(float))

    def omega(self, x: ArrayLike) -> ArrayLike:
        return self.H(x) - x

    def g(self, x: ArrayLike) -> ArrayLike:
        """The exact piecewise-linear inverse: H(g(x)) = x^target_exponent."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(xs < 0):
            raise ValueError("g is defined on [0, infinity)")
        t = xs**self.target_exponent
        # grow the materialized range until H's range covers every target
        kmax = max(8, int(np.max(xs) // TWO_PI) + 2)
        while True:
            slopes = self.slopes_N(kmax).astype(float)
            cum = np.concatenate([[0.0], TWO_PI * np.cumsum(slopes)])
            if cum[-1] >= np.max(t) or kmax >= MAX_ENTRIES:
                break
            kmax *= 2
        idx = np.searchsorted(cum, t, side="right") - 1
        idx = np.clip(idx, 0, len(slopes) - 1)
        out = TWO_PI * idx + (t - cum[idx]) / slopes[idx]
        return out if isinstance(x, np.ndarray) else float(out[0])


# ---------------------------------------------------------------------------
# case selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaseSelection:
    case: str   # "I", "II", "III"
    l: int      # 1, 3, 4
    m_seq: SlopeSequence
    n_seq: SlopeSequence

    @property
    def bundle(self) -> ProfileBundle:
        return ProfileBundle(self.m_seq, self.n_seq, 1.0)


def select_case(lam1: float, lam2: float) -> CaseSelection:
    """Pick the sequence pair and the horizontal stretch l for two exponents.

    (I) lam2 < 1: two binary profiles, l = 1.  (II) lam1 < lam2 = 1: the
    zero sequence stays binary, n_k = 1 from the fourth entry, l = 3.
    (III) lam1 = lam2 = 1: both all-ones, l = 4 (every N_k = 4 past the
    prefix).
    """
    if not (0.0 <= lam1 <= lam2 <= 1.0):
        raise ValueError(f"need 0 <= lam1 <= lam2 <= 1, got ({lam1}, {lam2})")
    if lam2 < 1.0:
        return CaseSelection("I", 1, build_binary_profile(lam1), build_binary_profile(lam2))
    ones = _constant_tail(1)
    if lam1 < 1.0:
        return CaseSelection("II", 3, build_binary_profile(lam1), ones)
    return CaseSelection("III", 4, _constant_tail(1), ones)


def export_csv(
    dest, m_seq: SlopeSequence, n_seq: SlopeSequence, kmax: int
) -> None:
    """Write (k, m_k, n_k, N_k, script_N_k) rows for audit: strip k is 2 pi N_k high, its top seam 2 pi script_N_k."""
    m = m_seq.prefix(kmax)
    n = n_seq.prefix(kmax)
    N = m + 2 * n + 1
    sN = np.cumsum(N)
    own = isinstance(dest, (str, bytes))
    fh = open(dest, "w", newline="") if own else dest
    try:
        w = csv.writer(fh)
        w.writerow(["k", "m_k", "n_k", "N_k", "script_N_k"])
        for k in range(kmax):
            w.writerow([k + 1, int(m[k]), int(n[k]), int(N[k]), int(sN[k])])
    finally:
        if own:
            fh.close()
