import itertools
import re

import pytest

from quartic_cones import theta
from quartic_cones.theta import (
    AronholdSystem,
    ThetaChar,
    ThetaError,
    aronhold_enumerate,
    build_model,
    even_fiber_histogram,
    even_from_heptad,
    odd_characteristics,
    triple_sum,
)


class TestModel:
    def test_counts(self):
        model = build_model()
        assert len(model) == 64
        assert sum(1 for c in model if c.is_odd()) == 28
        assert sum(1 for c in model if not c.is_odd()) == 36

    def test_base_even(self):
        assert ThetaChar.base().parity == "even"

    def test_parity_table_matches_the_weight_parity(self):
        odd, even = set(), set()
        for mask in range(256):
            weight = bin(mask).count("1")
            if weight % 2:
                assert theta._ODD[mask] is None
                continue
            is_odd = min(weight, 8 - weight) // 2 % 2 == 1
            assert theta._ODD[mask] is is_odd
            (odd if is_odd else even).add(ThetaChar(mask))
        assert (len(odd), len(even)) == (28, 36)

    def test_pair_odd_quadruple_even(self):
        assert ThetaChar.from_pair(1, 2).parity == "odd"
        assert ThetaChar.from_quadruple(1, 2, 3, 4).parity == "even"

    def test_pairs_biject_with_odd(self):
        odds = set(odd_characteristics())
        assert len(odds) == 28
        model_odds = {c for c in build_model() if c.is_odd()}
        assert odds == model_odds

    def test_complementary_quadruples_equal(self):
        assert ThetaChar.from_quadruple(1, 2, 3, 4) == ThetaChar.from_quadruple(5, 6, 7, 8)
        # 35 = C(8,4)/2 distinct even classes besides the base
        quads = {ThetaChar.from_quadruple(*q)
                 for q in itertools.combinations(range(1, 9), 4)}
        assert len(quads) == 35

    def test_labels(self):
        assert ThetaChar.base().label() == "theta0"
        assert ThetaChar.from_pair(2, 7).label() == (2, 7)
        assert ThetaChar.from_quadruple(5, 6, 7, 8).label() == (1, 2, 3, 4)

    def test_labels_are_canonical(self):
        # the lower-weight representative; of two 4-subsets, the one with label 1
        for mask in range(256):
            if bin(mask).count("1") % 2 or mask in (0, 0xFF):
                continue
            c = ThetaChar(mask)
            if c.is_odd():
                assert len(c.label()) == 2
            else:
                assert len(c.label()) == 4 and 1 in c.label()
        assert ThetaChar.from_pair(1, 8).label() == (1, 8)
        assert ThetaChar.from_quadruple(1, 6, 7, 8).label() == (1, 6, 7, 8)
        assert ThetaChar.from_quadruple(2, 3, 4, 5).label() == (1, 6, 7, 8)

    def test_bad_labels(self):
        with pytest.raises(ThetaError):
            ThetaChar.from_pair(1, 1)
        with pytest.raises(ThetaError):
            ThetaChar.from_quadruple(1, 2, 3, 3)

    def test_odd_weight_mask_rejected(self):
        with pytest.raises(ThetaError):
            ThetaChar(0b111)


class TestRelations:
    def test_triangle_relation(self):
        # theta_ij + theta_ik + theta_jk - K = theta0
        for i, j, k in itertools.combinations(range(1, 9), 3):
            total = triple_sum(ThetaChar.from_pair(i, j), ThetaChar.from_pair(i, k),
                               ThetaChar.from_pair(j, k))
            assert total == ThetaChar.base()

    def test_star_relation(self):
        # theta_12 + theta_13 + theta_14 - K = the quadruple class {1,2,3,4}
        total = triple_sum(ThetaChar.from_pair(1, 2), ThetaChar.from_pair(1, 3),
                           ThetaChar.from_pair(1, 4))
        assert total == ThetaChar.from_quadruple(1, 2, 3, 4)

    def test_complementary_quadruple_via_sums(self):
        a = triple_sum(ThetaChar.from_pair(1, 2), ThetaChar.from_pair(1, 3),
                       ThetaChar.from_pair(1, 4))
        b = triple_sum(ThetaChar.from_pair(5, 6), ThetaChar.from_pair(5, 7),
                       ThetaChar.from_pair(5, 8))
        assert a == b

    def test_even_input_rejected(self):
        with pytest.raises(ThetaError):
            triple_sum(ThetaChar.base(), ThetaChar.from_pair(1, 2),
                       ThetaChar.from_pair(1, 3))


class TestEvenFromHeptad:
    def test_every_label_gives_base(self):
        for r in range(1, 9):
            assert even_from_heptad(r) == ThetaChar.base()

    def test_35_distinct_exhaust(self):
        values = set()
        for ijk in itertools.combinations(range(1, 8), 3):
            values.add(triple_sum(*[ThetaChar.from_pair(8, i) for i in ijk]))
        assert len(values) == 35
        assert ThetaChar.base() not in values
        evens = {c for c in build_model() if not c.is_odd() and c != ThetaChar.base()}
        assert values == evens

    def test_label_range(self):
        with pytest.raises(ThetaError):
            even_from_heptad(0)


class TestAronhold:
    def test_count_288(self):
        assert aronhold_enumerate("count") == 288

    def test_star_systems_present(self):
        systems = aronhold_enumerate("list")
        labels = {s.pair_labels() for s in systems}
        for r in range(1, 9):
            star = tuple(sorted(ThetaChar.from_pair(r, i).support()
                                for i in range(1, 9) if i != r))
            assert star in labels

    def test_fiber_sizes_all_8(self):
        systems = aronhold_enumerate("list")
        hist = even_fiber_histogram(systems)
        assert len(hist) == 36
        assert set(hist.values()) == {8}

    def test_parallel_enumeration_matches(self):
        assert aronhold_enumerate("count", jobs=2) == 288

    def test_invalid_system_rejected(self):
        # a disjoint 3-matching inside is forbidden
        members = [ThetaChar.from_pair(1, 2), ThetaChar.from_pair(3, 4),
                   ThetaChar.from_pair(5, 6), ThetaChar.from_pair(1, 3),
                   ThetaChar.from_pair(1, 4), ThetaChar.from_pair(1, 5),
                   ThetaChar.from_pair(1, 6)]
        with pytest.raises(ThetaError):
            AronholdSystem(tuple(members))

    @pytest.mark.parametrize("members, message", [
        ([(1, 2)] * 2 + [(1, k) for k in range(3, 8)],
         "an Aronhold system has seven distinct members"),
        ([(8, k) for k in range(1, 7)] + [(1, 2, 3, 4)],
         "triple_sum expects odd characteristics, got ThetaChar((1, 2, 3, 4))"),
        ([(1, 2), (3, 4), (5, 6), (1, 3), (1, 4), (1, 5), (1, 6)],
         "triple ThetaChar((1, 2)),ThetaChar((3, 4)),ThetaChar((5, 6)) "
         "sums to an odd characteristic"),
    ], ids=["duplicate", "even-member", "odd-triple-sum"])
    def test_rejections_keep_their_messages(self, members, message):
        chars = tuple(ThetaChar.from_pair(*m) if len(m) == 2 else ThetaChar.from_quadruple(*m)
                      for m in members)
        with pytest.raises(ThetaError, match=f"^{re.escape(message)}$"):
            AronholdSystem(chars)

    def test_system_even_characteristic(self):
        members = tuple(ThetaChar.from_pair(8, i) for i in range(1, 8))
        system = AronholdSystem(members)
        assert system.even_characteristic() == ThetaChar.base()


def _sums_to_odd(mask: int) -> bool:
    weight = bin(min(mask, mask ^ 0xFF)).count("1")
    return (weight // 2) % 2 == 1


def dfs_aronhold_systems():
    """Every set of seven odd pair classes whose triple sums are all even.

    An exhaustive depth-first search over the 28 pairs in
    odd_characteristics() order, pruning a partial set as soon as a triple
    with its newest member sums to an odd class.  It knows nothing of the
    closed form, so it is an independent oracle for aronhold_enumerate.
    """
    masks = [(1 << (i - 1)) | (1 << (j - 1)) for i, j in itertools.combinations(range(1, 9), 2)]
    found = []

    def extend(chosen, start):
        if len(chosen) == 7:
            found.append(tuple(chosen))
            return
        for index in range(start, len(masks)):
            candidate = masks[index]
            if not any(_sums_to_odd(a ^ b ^ candidate)
                       for a, b in itertools.combinations(chosen, 2)):
                chosen.append(candidate)
                extend(chosen, index + 1)
                chosen.pop()

    extend([], 0)
    return [AronholdSystem(tuple(ThetaChar(m) for m in system)) for system in found]


@pytest.fixture(scope="module")
def dfs_systems():
    return dfs_aronhold_systems()


def drop_one_choice_of_l(systems):
    """The closed form without its largest choice of l for every triple."""
    pairs = {ThetaChar.from_pair(i, j): (i, j)
             for i, j in itertools.combinations(range(1, 9), 2)}
    kept = []
    for system in systems:
        degree = {a: 0 for a in range(1, 9)}
        for member in system.members:
            for a in pairs[member]:
                degree[a] += 1
        if 4 in degree.values():  # not a star: l has 4 members, i, j, k have 2
            l = next(a for a, d in degree.items() if d == 4)
            if l == max(a for a, d in degree.items() if d != 2):
                continue
        kept.append(system)
    return kept


class TestDfsOracle:
    def test_reproduces_the_list_in_order(self, dfs_systems):
        assert dfs_systems == aronhold_enumerate("list")

    def test_reproduces_the_fibres(self, dfs_systems):
        hist = even_fiber_histogram(dfs_systems)
        assert hist == even_fiber_histogram(aronhold_enumerate("list"))
        assert len(hist) == 36 and set(hist.values()) == {8}

    def test_reproduces_criterion_10_counts(self, dfs_systems):
        odd = sum(1 for c in build_model() if c.is_odd())
        assert (odd, len(dfs_systems)) == (28, 288)
        assert aronhold_enumerate("count") == len(dfs_systems)

    def test_catches_a_dropped_choice_of_l(self, dfs_systems):
        mutant = drop_one_choice_of_l(aronhold_enumerate("list"))
        assert len(mutant) == 288 - 56
        assert mutant != dfs_systems
        assert even_fiber_histogram(mutant) != even_fiber_histogram(dfs_systems)
