"""Slope sequences and piecewise-linear height profiles.

All bookkeeping lives on the 2*pi grid: a sequence assigns an integer slope
to each interval [2pi(k-1), 2pi k], and profiles are the running integrals.
Entries are materialized lazily because a profile queried at x needs about
x / 2pi of them.
"""
from __future__ import annotations

import csv
import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

TWO_PI = 2.0 * math.pi

# hard ceiling on materialized entries; profiles above x ~ 1.2e7 are out of
# desk range anyway
MAX_ENTRIES = 2_000_000

BINARY = "binary"          # 0/1 marks following a power (or squared-log) law
GRADED = "graded"          # nondecreasing slopes with odd positive increments
PAIRED = "paired"          # n_k completing m_k to a parity-matched N_k
ONES = "ones"              # 0,0,0,1,1,1,...
ZEROS = "zeros"


def alpha_weight(x: float) -> float:
    """The damping weight [log(x + 2pi)]^-3 used by graded sequences."""
    return math.log(x + TWO_PI) ** -3


def _power_mark(i: int, lam: float) -> int:
    """Smallest k with (2 pi k)^lam >= 2 pi i, by formula plus float-safe nudge."""
    log_v = math.log(TWO_PI * i) / lam - math.log(TWO_PI)
    if log_v > math.log(MAX_ENTRIES + 1):
        return MAX_ENTRIES + 1  # beyond any materializable range
    k = max(1, math.floor(math.exp(log_v)))
    if k > MAX_ENTRIES:
        return MAX_ENTRIES + 1
    # the formula is exact up to rounding, so these nudges take O(1) steps
    while (TWO_PI * k) ** lam < TWO_PI * i:
        k += 1
    while k > 1 and (TWO_PI * (k - 1)) ** lam >= TWO_PI * i:
        k -= 1
    return k


def _log_mark(i: int) -> int:
    """Smallest k with [log(2 pi k)]^2 >= 2 pi i."""
    log_v = math.sqrt(TWO_PI * i) - math.log(TWO_PI)
    if log_v > math.log(MAX_ENTRIES + 1):
        return MAX_ENTRIES + 1
    k = max(1, math.floor(math.exp(log_v)))
    if k > MAX_ENTRIES:
        return MAX_ENTRIES + 1
    while math.log(TWO_PI * k) ** 2 < TWO_PI * i:
        k += 1
    while k > 1 and math.log(TWO_PI * (k - 1)) ** 2 >= TWO_PI * i:
        k -= 1
    return k


@dataclass
class SlopeSequence:
    """Integer slopes m_k (k >= 1), lazily extended, with memoized sums.

    ``note`` carries construction caveats (tie-break rule, delayed marks)
    into exported reports.
    """

    kind: str
    params: dict
    _extend: Callable[["SlopeSequence", int], None] = field(repr=False)
    entries_list: list = field(default_factory=list, repr=False)
    note: str = ""
    _cum: Optional[np.ndarray] = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def ensure(self, kmax: int) -> None:
        if kmax > MAX_ENTRIES:
            raise ValueError(f"k = {kmax} beyond the {MAX_ENTRIES} entry ceiling")
        if len(self.entries_list) < kmax:
            with self._lock:
                if len(self.entries_list) < kmax:
                    # geometric headroom so k-by-k access stays amortized O(1)
                    target = min(MAX_ENTRIES, max(kmax, 2 * len(self.entries_list), 64))
                    self._extend(self, target)
                    self._cum = None

    def entry(self, k: int) -> int:
        if k < 1:
            raise IndexError("sequence indices start at 1")
        self.ensure(k)
        return self.entries_list[k - 1]

    def prefix(self, kmax: int) -> np.ndarray:
        self.ensure(kmax)
        return np.asarray(self.entries_list[:kmax], dtype=np.int64)

    def cumulative(self, kmax: int) -> np.ndarray:
        """Partial sums S_1..S_kmax."""
        self.ensure(kmax)
        if self._cum is None or len(self._cum) < kmax:
            self._cum = np.cumsum(np.asarray(self.entries_list, dtype=np.int64))
        return self._cum[:kmax]

    def partial(self, k: int) -> int:
        if k == 0:
            return 0
        return int(self.cumulative(k)[-1])

    def marked(self, kmax: int) -> list:
        """Indices k <= kmax with a nonzero entry (unit-slope kinds)."""
        e = self.prefix(kmax)
        return [int(k) for k in np.nonzero(e)[0] + 1]


def _binary_extend_factory(lam: float) -> Callable[[SlopeSequence, int], None]:
    marker = _log_mark if lam == 0.0 else (lambda i: _power_mark(i, lam))

    def extend(seq: SlopeSequence, kmax: int) -> None:
        marks: list = seq.params.setdefault("_marks", [])
        i = len(marks)
        prev = marks[-1] if marks else 3
        while not marks or marks[-1] <= kmax:
            i += 1
            k = max(marker(i), prev + 1, 4)
            marks.append(k)
            prev = k
        arr = [0] * max(kmax, len(seq.entries_list))
        for k in marks:
            if k <= len(arr):
                arr[k - 1] = 1
        seq.entries_list = arr

    return extend


def build_binary_profile(lam: float) -> SlopeSequence:
    """0/1 slopes whose profile follows (log x)^2 (lam = 0) or x^lam.

    The mark for level 2 pi i is the unique k whose interval absorbs the
    crossing; early marks are delayed past the three-entry zero prefix and
    forced strictly increasing, which costs O(1) in the profile.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"profile exponent must lie in [0, 1), got {lam}")
    return SlopeSequence(
        BINARY,
        {"lambda": lam},
        _binary_extend_factory(lam),
        note="marks delayed past the zero prefix and deduplicated",
    )


def _constant_tail(value: int, kind: str, params: dict) -> SlopeSequence:
    def extend(seq: SlopeSequence, kmax: int) -> None:
        seq.entries_list = [0, 0, 0] + [value] * max(0, kmax - 3)

    return SlopeSequence(kind, params, extend)


def _graded_extend_factory(gamma: float, delta: float) -> Callable[[SlopeSequence, int], None]:
    dg = delta * gamma

    def extend(seq: SlopeSequence, kmax: int) -> None:
        arr = list(seq.entries_list)
        k = len(arr)
        run = seq.params.setdefault("_carry", {"sum_target": 0.0, "sum_actual": 0})
        while k < kmax:
            k += 1
            if k <= 3:
                arr.append(0)
                continue
            target = dg * alpha_weight(float(k)) * (TWO_PI * k) ** (dg - 1.0)
            run["sum_target"] += target
            prev = arr[-1]
            want = run["sum_target"] - (run["sum_actual"] - prev)
            cand = math.floor(want)
            if cand > prev and (cand - prev) % 2 == 0:
                cand -= 1  # largest admissible value: increments must be odd
            mk = max(prev, cand)
            arr.append(mk)
            run["sum_actual"] += mk
        seq.entries_list = arr

    return extend


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
        return _constant_tail(0, ZEROS, {"gamma": gamma, "delta": delta})
    if dg == 1.0:
        return _constant_tail(1, ONES, {"gamma": gamma, "delta": delta})
    if dg < 1.0:
        seq = build_binary_profile(dg)
        seq.params.update({"gamma": gamma, "delta": delta})
        return seq
    return SlopeSequence(
        GRADED,
        {"gamma": gamma, "delta": delta},
        _graded_extend_factory(gamma, delta),
        note="odd-increment rounding is floor-to-parity with remainder carry",
    )


def _paired_extend_factory(
    gamma: float, m_seq: SlopeSequence
) -> Callable[[SlopeSequence, int], None]:
    def extend(seq: SlopeSequence, kmax: int) -> None:
        arr = list(seq.entries_list)
        k = len(arr)
        run = seq.params.setdefault("_carry", {"sum_actual": 0})
        m_seq.ensure(kmax)
        while k < kmax:
            k += 1
            if k <= 3:
                arr.append(0)
                run["sum_actual"] += m_seq.entry(k) + 1
                continue
            mk = m_seq.entry(k)
            # cumulative target (2 pi k)^gamma for 2 pi * sum N_j
            want = (TWO_PI * k) ** gamma / TWO_PI - run["sum_actual"]
            lo = mk + 1  # N_k = m_k + 2 n_k + 1 with n_k >= 0
            Nk = max(lo, math.floor(want))
            if (Nk - mk) % 2 == 0:
                Nk -= 1
            if Nk < lo:
                Nk = lo
            arr.append((Nk - mk - 1) // 2)
            run["sum_actual"] += Nk
        seq.entries_list = arr

    return extend


def build_paired_slopes(gamma: float, m_seq: SlopeSequence) -> SlopeSequence:
    """The (n_k) completing m_k to N_k = m_k + 2 n_k + 1 ~ gamma (2 pi k)^(gamma-1).

    N_k is the largest value of admissible parity keeping the cumulative
    profile under (2 pi k)^gamma, never below m_k + 1; the first three
    entries stay zero so N_k = 1 there.
    """
    if gamma <= 1.0:
        raise ValueError(f"gamma must exceed 1, got {gamma}")
    return SlopeSequence(
        PAIRED,
        {"gamma": gamma},
        _paired_extend_factory(gamma, m_seq),
        note="parity rounding carries the cumulative remainder forward",
    )


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
        """Partial sum of N_j up to k (the seam index bookkeeping)."""
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
    ones = _constant_tail(1, ONES, {"lambda": 1.0})
    if lam1 < 1.0:
        return CaseSelection("II", 3, build_binary_profile(lam1), ones)
    return CaseSelection("III", 4, _constant_tail(1, ONES, {"lambda": 1.0}), ones)


def export_csv(
    dest, m_seq: SlopeSequence, n_seq: SlopeSequence, kmax: int
) -> None:
    """Write (k, m_k, n_k, N_k, script_N_k) rows for audit."""
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
