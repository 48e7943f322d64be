"""Combinatorial model of theta characteristics indexed by a Cayley octad.

Characteristics on a genus-3 curve marked by eight points are modeled by
the even-weight subspace of F_2^8 modulo the all-ones vector, a
64-element F_2-space of offsets relative to the distinguished even
characteristic theta0 carried by the octad's net.  The class of {i, j}
is the odd characteristic of the bitangent marked by octad points i and
j; classes of 4-subsets (identified with their complements) are the
other 35 even characteristics.  Divisor arithmetic translates to offset
arithmetic through theta_X = theta0 + v_X with K = 2 theta0, so triple
sums minus K become plain xor.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

ALL_MASK = 0xFF


class ThetaError(Exception):
    pass


def _canonical(mask: int) -> int:
    if bin(mask).count("1") % 2:
        raise ThetaError("offsets live in the even-weight subspace")
    return min(mask & ALL_MASK, (mask ^ ALL_MASK) & ALL_MASK)


class ThetaChar:
    """One of the 64 characteristics, stored as its minimal-weight mask."""

    __slots__ = ("mask",)

    def __init__(self, mask: int):
        object.__setattr__(self, "mask", _canonical(mask))

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("ThetaChar is immutable")

    def __reduce__(self):
        return (ThetaChar, (self.mask,))

    @staticmethod
    def base() -> "ThetaChar":
        return ThetaChar(0)

    @staticmethod
    def from_pair(i: int, j: int) -> "ThetaChar":
        if not (1 <= i <= 8 and 1 <= j <= 8) or i == j:
            raise ThetaError(f"pair labels must be distinct in 1..8, got ({i}, {j})")
        return ThetaChar((1 << (i - 1)) | (1 << (j - 1)))

    @staticmethod
    def from_quadruple(i: int, j: int, k: int, l: int) -> "ThetaChar":
        labels = {i, j, k, l}
        if len(labels) != 4 or not all(1 <= a <= 8 for a in labels):
            raise ThetaError("quadruple labels must be four distinct values in 1..8")
        mask = 0
        for a in labels:
            mask |= 1 << (a - 1)
        return ThetaChar(mask)

    @property
    def weight(self) -> int:
        return bin(self.mask).count("1")

    @property
    def parity(self) -> str:
        """Half the minimal representative weight, mod 2: 28 odd, 36 even."""
        return "odd" if (self.weight // 2) % 2 == 1 else "even"

    def is_odd(self) -> bool:
        return self.parity == "odd"

    def support(self) -> Tuple[int, ...]:
        return tuple(i + 1 for i in range(8) if self.mask >> i & 1)

    def label(self):
        """"theta0", a pair (i,j), or the lexicographically minimal 4-subset."""
        if self.mask == 0:
            return "theta0"
        return self.support()

    def __add__(self, other: "ThetaChar") -> "ThetaChar":
        if not isinstance(other, ThetaChar):
            return NotImplemented
        return ThetaChar(self.mask ^ other.mask)

    def __eq__(self, other):
        return isinstance(other, ThetaChar) and self.mask == other.mask

    def __hash__(self):
        return hash(self.mask)

    def __repr__(self):
        return f"ThetaChar({self.label()})"


def build_model() -> List[ThetaChar]:
    """All 64 characteristics: theta0, 28 odd pairs, 35 other evens."""
    seen = {}
    for bits in range(256):
        if bin(bits).count("1") % 2 == 0:
            c = ThetaChar(bits)
            seen[c.mask] = c
    model = sorted(seen.values(), key=lambda c: (c.weight, c.mask))
    if len(model) != 64:  # pragma: no cover - structural
        raise ThetaError("model size is not 64")
    return model


def odd_characteristics() -> List[ThetaChar]:
    return [ThetaChar.from_pair(i, j) for i, j in itertools.combinations(range(1, 9), 2)]


# The fixed search order of aronhold_enumerate.
_ODD_MASKS = tuple(c.mask for c in odd_characteristics())


def triple_sum(a: ThetaChar, b: ThetaChar, c: ThetaChar) -> ThetaChar:
    """theta_a + theta_b + theta_c - K, as offset addition."""
    for x in (a, b, c):
        if not x.is_odd():
            raise ThetaError(f"triple_sum expects odd characteristics, got {x!r}")
    return a + b + c


def even_from_heptad(r: int) -> ThetaChar:
    """-3K + sum of the seven theta_{ri}: always the distinguished theta0."""
    if not 1 <= r <= 8:
        raise ThetaError("label must be in 1..8")
    total = ThetaChar.base()
    for i in range(1, 9):
        if i != r:
            total = total + ThetaChar.from_pair(r, i)
    return total


@dataclass(frozen=True)
class AronholdSystem:
    """Seven odd characteristics with every triple sum minus K even."""

    members: Tuple[ThetaChar, ...]

    def __post_init__(self):
        if len(self.members) != 7 or len(set(self.members)) != 7:
            raise ThetaError("an Aronhold system has seven distinct members")
        for a, b, c in itertools.combinations(self.members, 3):
            if triple_sum(a, b, c).is_odd():
                raise ThetaError(f"triple {a!r},{b!r},{c!r} sums to an odd characteristic")

    def even_characteristic(self) -> ThetaChar:
        """-3K + sum of members: the even characteristic the system determines."""
        total = ThetaChar.base()
        for m in self.members:
            total = total + m
        if total.is_odd():  # pragma: no cover - excluded by the triple condition
            raise ThetaError("system sum is odd")
        return total

    def pair_labels(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted(m.support() for m in self.members))


def _pairwise_ok(masks: Sequence[int], candidate: int) -> bool:
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            combined = masks[i] ^ masks[j] ^ candidate
            weight = bin(min(combined, combined ^ ALL_MASK)).count("1")
            if (weight // 2) % 2 == 1:
                return False
    return True


def aronhold_enumerate(mode: str = "count", jobs: int = 1):
    """Exhaustive search for Aronhold systems among the 28 odd classes.

    Depth-first over the odd characteristics in a fixed order, pruning a
    partial set as soon as one triple involving the newest member goes
    odd.  ``mode`` is "count" or "list".  With ``jobs > 1`` the first
    members are split over at most ``jobs`` workers, never more than there
    are CPUs.
    """
    if mode not in ("count", "list"):
        raise ThetaError(f"unknown mode {mode!r}")
    firsts = range(len(_ODD_MASKS))
    workers = min(jobs, os.cpu_count() or 1, len(firsts))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            chunks = pool.map(_enumerate_from_first, firsts)
    else:
        chunks = map(_enumerate_from_first, firsts)
    found = [s for chunk in chunks for s in chunk]
    if mode == "count":
        return len(found)
    return [AronholdSystem(tuple(ThetaChar(m) for m in masks)) for masks in found]


def _enumerate_from_first(first_index: int) -> List[Tuple[int, ...]]:
    """Every system whose first member, in the fixed order, is odd number first_index."""
    found: List[Tuple[int, ...]] = []

    def extend(chosen: List[int], start: int):
        if len(chosen) == 7:
            found.append(tuple(chosen))
            return
        for idx in range(start, len(_ODD_MASKS)):
            cand = _ODD_MASKS[idx]
            if _pairwise_ok(chosen, cand):
                chosen.append(cand)
                extend(chosen, idx + 1)
                chosen.pop()

    extend([_ODD_MASKS[first_index]], first_index + 1)
    return found


def even_fiber_histogram(systems: Iterable[AronholdSystem]) -> Dict:
    """How many systems map to each even characteristic under -3K + sum."""
    hist: Dict = {}
    for system in systems:
        key = system.even_characteristic().label()
        key = key if isinstance(key, str) else tuple(key)
        hist[key] = hist.get(key, 0) + 1
    return hist
