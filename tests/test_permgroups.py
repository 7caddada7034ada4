"""Permutation and permutation-group layer."""

import random

import pytest
from hypothesis import given, strategies as st

from treelocal.errors import (
    ConflictingConstraints,
    DegreeMismatch,
    MalformedCycle,
    OutOfRange,
    RepeatedEntry,
    TreeLocalError,
)
from treelocal.permgroups import (
    Permutation,
    all_subgroups,
    find_mapping,
    generate,
    is_2transitive_direct,
    is_2transitive_stab,
    is_transitive,
    orbits,
    parse_cycles,
    pick_tau,
    preserves_orbits,
    stabilizer,
    symmetric_group,
    trivial_group,
)

from conftest import closure_subgroups

perm_strategy = st.integers(3, 6).flatmap(
    lambda d: st.permutations(list(range(1, d + 1))).map(Permutation))


class TestPermutation:
    def test_identity(self):
        e = Permutation.identity(4)
        assert e.is_identity()
        assert [e(i) for i in range(1, 5)] == [1, 2, 3, 4]

    @given(perm_strategy)
    def test_inverse_cancels(self, p):
        assert p.after(p.inv()).is_identity()
        assert p.inv().after(p).is_identity()

    @given(perm_strategy)
    def test_power_consistency(self, p):
        assert p.power(0).is_identity()
        assert p.power(2) == p.after(p)
        assert p.power(-1) == p.inv()

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_power_oracle(self, d):
        # n-fold composition through the validating constructor, for every
        # permutation of degree d and every n in [-2 order, 2 order]
        for p in symmetric_group(d).elements:
            order = len(generate([p], d).elements)
            q = Permutation(p.index(i) + 1 for i in range(1, d + 1))
            for n in range(-2 * order, 2 * order + 1):
                step = p if n >= 0 else q
                expected = Permutation.identity(d)
                for _ in range(abs(n)):
                    expected = Permutation(step[j - 1] for j in expected)
                assert p.power(n) == expected

    def test_power_huge_exponent(self):
        p = parse_cycles("(1 2 3)(4 5)", 5)
        # 10**18 is 1 mod 3 and 0 mod 2
        assert p.power(10**18) == parse_cycles("(1 2 3)", 5)
        assert p.power(-10**18) == parse_cycles("(1 3 2)", 5)

    @given(st.integers(3, 6).flatmap(lambda d: st.tuples(
        *[st.permutations(list(range(1, d + 1))).map(Permutation)] * 2)),
        st.integers(-50, 50))
    def test_results_are_valid_permutations(self, pq, n):
        p, q = pq
        for x in (p.after(q), p.inv(), p.power(n)):
            assert type(x) is Permutation
            assert x == Permutation(tuple(x))

    def test_boundary_still_validates(self):
        with pytest.raises(MalformedCycle):
            Permutation((1, 1, 2))
        with pytest.raises(DegreeMismatch):
            Permutation.identity(3).after(Permutation.identity(4))

    def test_after_order(self):
        # (p after q)(x) = p(q(x))
        p = parse_cycles("(1 2)", 3)
        q = parse_cycles("(2 3)", 3)
        assert p.after(q)(3) == p(q(3)) == 1

    def test_cycles_roundtrip(self):
        p = parse_cycles("(1 3)(2 4)", 5)
        assert p.cycle_string() == "(1 3)(2 4)"
        assert parse_cycles(p.cycle_string(), 5) == p

    def test_parse_identity_forms(self):
        assert parse_cycles("()", 4).is_identity()
        assert parse_cycles("", 4).is_identity()

    def test_parse_errors(self):
        with pytest.raises(OutOfRange):
            parse_cycles("(1 5)", 4)
        with pytest.raises(RepeatedEntry):
            parse_cycles("(1 2 1)", 4)
        with pytest.raises(MalformedCycle):
            parse_cycles("(1 2", 4)


class TestGenerate:
    def test_symmetric_orders(self):
        assert symmetric_group(3).order == 6
        assert symmetric_group(4).order == 24

    def test_cyclic_group(self):
        G = generate([parse_cycles("(1 2 3 4)", 4)], 4)
        assert G.order == 4

    def test_trivial(self):
        assert trivial_group(5).order == 1

    def test_elements_sorted(self):
        G = symmetric_group(3)
        assert list(G.elements) == sorted(G.elements)

    def test_subgroup_relation(self):
        A3 = generate([parse_cycles("(1 2 3)", 3)], 3)
        S3 = symmetric_group(3)
        assert A3.is_subgroup_of(S3)
        assert A3.order < S3.order
        assert not S3.is_subgroup_of(A3)


class TestOrbitsTransitivity:
    def test_orbits_of_transposition(self):
        G = generate([parse_cycles("(1 2)", 4)], 4)
        assert orbits(G) == [(1, 2), (3,), (4,)]
        assert not is_transitive(G)

    def test_transitive_cycle(self):
        G = generate([parse_cycles("(1 2 3 4)", 4)], 4)
        assert is_transitive(G)
        assert not is_2transitive_direct(G)

    def test_symmetric_2transitive(self):
        assert is_2transitive_direct(symmetric_group(4))
        assert is_2transitive_stab(symmetric_group(4))

    def test_dihedral_not_2transitive(self):
        D4 = generate([parse_cycles("(1 2 3 4)", 4),
                       parse_cycles("(1 3)", 4)], 4)
        assert D4.order == 8
        assert is_transitive(D4)
        assert not is_2transitive_direct(D4)
        assert not is_2transitive_stab(D4)

    def test_predicates_agree_exhaustively_small(self):
        for d in (3, 4):
            for G in all_subgroups(d):
                assert is_2transitive_direct(G) == is_2transitive_stab(G)

    def test_predicates_agree_sampled_degree5(self):
        rng = random.Random(7)
        S5 = symmetric_group(5)
        for _ in range(25):
            gens = rng.sample(S5.elements, 2)
            G = generate(gens, 5)
            assert is_2transitive_direct(G) == is_2transitive_stab(G)

    def test_stabilizer(self):
        S4 = symmetric_group(4)
        st1 = stabilizer(S4, 1)
        assert st1.order == 6
        assert all(p(1) == 1 for p in st1.elements)


class TestPreservesOrbits:
    def test_rotations_inside_symmetric(self):
        A3 = generate([parse_cycles("(1 2 3)", 3)], 3)
        assert preserves_orbits(A3, symmetric_group(3))

    def test_violating_pair(self):
        F = generate([parse_cycles("(1 2)", 3)], 3)
        assert not preserves_orbits(F, symmetric_group(3))


class TestFindMapping:
    def test_least_solution(self):
        S3 = symmetric_group(3)
        p = find_mapping(S3, [(1, 2)])
        assert p is not None and p(1) == 2
        assert p == min(q for q in S3.elements if q(1) == 2)

    def test_unsolvable(self):
        C4 = generate([parse_cycles("(1 2 3 4)", 4)], 4)
        assert find_mapping(C4, [(1, 1), (2, 3)]) is None

    def test_duplicate_targets_unsolvable(self):
        assert find_mapping(symmetric_group(3), [(1, 2), (3, 2)]) is None

    def test_conflicting_sources(self):
        with pytest.raises(ConflictingConstraints):
            find_mapping(symmetric_group(3), [(1, 2), (1, 3)])


class TestPickTau:
    def test_three_cycle(self):
        F = generate([parse_cycles("(1 2 3)", 3)], 3)
        tau, cycle = pick_tau(F)
        assert cycle == (1, 2, 3)
        assert tau(1) == 2 and tau(2) == 3 and tau(3) == 1

    def test_four_cycle(self):
        F = generate([parse_cycles("(1 2 3 4)", 4)], 4)
        tau, cycle = pick_tau(F)
        assert len(cycle) == 4


class TestAllSubgroups:
    def test_counts(self):
        # classical subgroup counts of Sym(3) and Sym(4)
        assert len(all_subgroups(3)) == 6
        assert len(all_subgroups(4)) == 30

    def test_degree_6_refused_before_enumerating(self, monkeypatch):
        # (Z/2)^3 = <(1 2), (3 4), (5 6)> <= Sym(6) needs three generators
        import treelocal.permgroups as permgroups
        monkeypatch.setattr(permgroups, "generate", None)
        with pytest.raises(TreeLocalError, match="d <= 5"):
            all_subgroups(6)

    @pytest.mark.parametrize("d", [-1, 0])
    def test_degree_below_1_refused_before_enumerating(self, monkeypatch, d):
        import treelocal.permgroups as permgroups
        monkeypatch.setattr(permgroups, "generate", None)
        monkeypatch.setattr(permgroups, "symmetric_group", None)
        with pytest.raises(TreeLocalError, match=f"not {d}:"):
            all_subgroups(d)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_equals_the_closure_oracle(self, d):
        # == compares degree, generators and elements
        assert all_subgroups(d) == closure_subgroups(d)

    def test_degree_5(self):
        subs = all_subgroups(5)
        assert len(subs) == 156
        assert subs == sorted(subs, key=lambda G: (G.order, G.elements))
        for G in subs:
            assert G == generate(G.generators, 5)

    def test_all_are_subgroups(self):
        S4 = symmetric_group(4)
        for G in all_subgroups(4):
            assert G.is_subgroup_of(S4)
