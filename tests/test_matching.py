"""Maximum matching and pendant-containing matchings."""

import pytest

from fktrees import (
    InvalidChoiceError,
    build_T,
    build_path,
    build_star,
    contact_set,
    free_trees,
    matching_containing_pendants,
    matching_number,
    maximum_matching,
)
from fktrees.matching import Matching
from conftest import (
    brute_force_matching_number,
    brute_force_max_disjoint,
    random_tree,
)


def test_path_matching_number():
    for n in range(3, 15):
        assert matching_number(build_path(n)) == n // 2


def test_family_matching_number_formula():
    for p in range(0, 7):
        for q in range(2, 5):
            for b in range(q, q + 4):
                assert matching_number(build_T(p, q, b)) == q + p // 2
    assert matching_number(build_T(0, 1, 5)) == 1


def test_a_matching_shares_no_vertex_and_uses_only_edges():
    path = build_path(4)
    assert Matching(((0, 1), (2, 3))).is_valid_for(path)
    assert not Matching(((0, 1), (1, 2))).is_valid_for(path)
    assert not Matching(((0, 2),)).is_valid_for(path)


def test_matching_agrees_with_subset_brute_force_small():
    for n in range(3, 9):
        for t in free_trees(n):
            assert matching_number(t) == brute_force_matching_number(t)
            assert maximum_matching(t).is_valid_for(t)


def test_witness_is_valid_and_maximum(rng):
    for _ in range(60):
        t = random_tree(rng, rng.randrange(3, 11))
        m = maximum_matching(t)
        assert m.is_valid_for(t)
        assert len(m) == brute_force_matching_number(t)


def test_witness_is_deterministic():
    t = build_T(2, 3, 4)
    assert maximum_matching(t).edges == maximum_matching(t).edges
    # ascending-leaf-id tie break on the path: pendant edges picked low first
    p6 = build_path(6)
    assert maximum_matching(p6).edges == ((0, 1), (2, 3), (4, 5))


def test_pendant_removal_drops_matching_by_one(rng):
    # deleting a pendant edge's two endpoints lowers the matching number by 1
    for _ in range(40):
        t = random_tree(rng, rng.randrange(4, 11))
        leaf = t.leaves[0]
        support = t.neighbors(leaf)[0]
        rest = [e for e in t.edges if leaf not in e and support not in e]
        assert brute_force_max_disjoint(rest) == matching_number(t) - 1


def test_pendant_matching_star():
    star = build_star(5)
    m = matching_containing_pendants(star, {0: 1})
    assert m.edges == ((0, 1),)


def test_pendant_matching_path6():
    p6 = build_path(6)
    assert contact_set(p6) == (1, 4)
    m = matching_containing_pendants(p6, {1: 0, 4: 5})
    assert len(m) == 3
    assert (0, 1) in m.edges and (4, 5) in m.edges


def test_pendant_matching_random(rng):
    for _ in range(60):
        t = random_tree(rng, rng.randrange(4, 11))
        choice = {}
        for v in contact_set(t):
            leaves = [w for w in t.neighbors(v) if w in t.boundary]
            choice[v] = rng.choice(leaves)
        m = matching_containing_pendants(t, choice)
        assert m.is_valid_for(t)
        assert len(m) == brute_force_matching_number(t)
        for v, u in choice.items():
            assert (min(u, v), max(u, v)) in m.edges


def test_pendant_matching_rejects_bad_choice():
    p6 = build_path(6)
    with pytest.raises(InvalidChoiceError):
        matching_containing_pendants(p6, {1: 0})  # missing contact vertex 4
    with pytest.raises(InvalidChoiceError):
        matching_containing_pendants(p6, {1: 2, 4: 5})  # 2 is not boundary

