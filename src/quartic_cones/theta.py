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
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

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


def aronhold_enumerate(mode: str = "count", jobs: int = 1):
    """The 288 Aronhold systems among the 28 odd classes, in closed form.

    In octad labels they are the 8 stars {ik : k != i} and, for each of
    the 56 triples {i, j, k} and each of the 5 labels l outside it, the
    system {ij, ik, jk} together with {lm : m not in {i, j, k, l}}
    (Dolgachev, *Classical Algebraic Geometry*, 6.1-6.3).  Members are
    listed in the order of odd_characteristics() and systems in
    lexicographic order of their members.  Every system is validated by
    AronholdSystem, so ``mode`` "count" is the length of the certified
    "list".  ``jobs`` is unused and kept for callers that pass one.
    """
    if mode not in ("count", "list"):
        raise ThetaError(f"unknown mode {mode!r}")
    labels = range(1, 9)
    systems = [[(i, k) for k in labels if k != i] for i in labels]
    for i, j, k in itertools.combinations(labels, 3):
        for l in labels:
            if l not in (i, j, k):
                systems.append([(i, j), (i, k), (j, k)]
                               + [(l, m) for m in labels if m not in (i, j, k, l)])
    ordered = sorted(sorted(tuple(sorted(pair)) for pair in s) for s in systems)
    found = [AronholdSystem(tuple(ThetaChar.from_pair(*pair) for pair in s)) for s in ordered]
    return len(found) if mode == "count" else found


def even_fiber_histogram(systems: Iterable[AronholdSystem]) -> Dict:
    """How many systems map to each even characteristic under -3K + sum."""
    hist: Dict = {}
    for system in systems:
        key = system.even_characteristic().label()
        key = key if isinstance(key, str) else tuple(key)
        hist[key] = hist.get(key, 0) + 1
    return hist
