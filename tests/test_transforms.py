"""Edge rewrites: preconditions, exact numerator deltas, class preservation."""

import numpy as np
import pytest

from fktrees import (
    FKTreesError,
    PreconditionViolatedError,
    build_path,
    build_star,
    build_T,
    contact_set,
    first_eigenpair,
    free_trees,
    from_edge_list,
    geodesic_path,
    rayleigh_quotient,
)
from fktrees.transforms import (
    admissible_switchings,
    eigenvalue_after_switching_check,
    jumping,
    shifting,
    switching,
)
from fktrees.spectral import zero_extension
from conftest import (
    jump_moves,
    outcome,
    random_tree,
    reference_jumping,
    reference_shifting,
    reference_switching,
    shift_moves,
    switch_moves,
)


def positive_f(rng, tree):
    return [rng.uniform(0.5, 1.5) for _ in tree.interior]


# -- preconditions ----------------------------------------------------------------

def test_switching_rejects_adjacent_v1v2():
    t = build_path(6)
    with pytest.raises(PreconditionViolatedError):
        switching(t, 1, 2, 0, 3)


def test_switching_rejects_u_off_conditions():
    t = build_T(2, 2, 3)
    # u2 must lie on the path, u1 must not
    v1, v2 = 0, 3
    path = geodesic_path(t, v1, v2)
    off = [u for u in range(t.n) if u not in path and t.has_edge(v2, u)]
    if off:
        with pytest.raises(PreconditionViolatedError):
            switching(t, v1, v2, t.neighbors(v1)[0], off[0])
    with pytest.raises(PreconditionViolatedError):
        switching(t, 0, 3, 1, 2)  # u1 = 1 is on the path


def test_shifting_rejects_u_on_path():
    t = build_path(6)
    with pytest.raises(PreconditionViolatedError):
        shifting(t, 2, 4, 3)


def test_shifting_rejects_missing_edge():
    t = build_path(6)
    with pytest.raises(PreconditionViolatedError):
        shifting(t, 2, 4, 0)


def test_jumping_rejects_boundary_and_noncontact():
    t = build_path(6)
    # v2 boundary
    with pytest.raises(PreconditionViolatedError):
        jumping(t, 2, 5, 1)
    # u not a contact vertex: use a longer path
    t8 = build_path(8)
    assert 3 not in contact_set(t8)
    with pytest.raises(PreconditionViolatedError):
        jumping(t8, 2, 5, 3)


def test_extremal_tree_admits_no_jumping():
    # the minimizer T(3,2,3) has no contact vertex strictly inside a path
    # between nonadjacent interior vertices, so no jumping move exists
    assert jump_moves(build_T(3, 2, 3)) == []


def test_jumping_on_center_pendant_caterpillar():
    from fktrees import from_edge_list

    t = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    assert contact_set(t) == (1, 2, 3)
    assert (1, 3, 2) in jump_moves(t)
    new_tree, rw = jumping(t, 1, 3, 2, f=[1.0] * len(t.interior))
    assert len(new_tree.edges) == t.n - 1
    assert set(new_tree.leaves) == set(t.leaves)
    assert rw.delta == 0.0  # constant f kills the first factor


# -- exact delta identities ----------------------------------------------------------

def test_switching_delta_zero_factor():
    t = build_T(2, 2, 3)
    for v1, v2, u1, u2 in switch_moves(t):
        f = [1.0] * len(t.interior)
        fh = zero_extension(t, f)
        if fh[v1] == fh[u2]:
            _, rw = switching(t, v1, v2, u1, u2, f=f)
            assert rw.delta == 0.0
            break


def test_jumping_proof_identity_sign():
    # f(u)=0, f(v1)=f(v2)=1 gives (0-1)(2-0-1) = -1
    assert (0 - 1) * (2 * 1 - 0 - 1) == -1


@pytest.mark.parametrize("kind", ["switch", "shift", "jump"])
def test_delta_matches_recomputed_quotients(kind, rng):
    enumerate_moves = {"switch": switch_moves, "shift": shift_moves, "jump": jump_moves}[kind]
    apply_move = {"switch": switching, "shift": shifting, "jump": jumping}[kind]
    done = 0
    while done < 400:
        t = random_tree(rng, rng.randrange(5, 12))
        moves = enumerate_moves(t)
        rng.shuffle(moves)
        for move in moves[:4]:
            f = positive_f(rng, t)
            try:
                new_tree, rw = apply_move(t, *move, f=f)
            except PreconditionViolatedError:
                continue
            ssum = sum(x * x for x in f)
            got = rayleigh_quotient(new_tree, f) - rayleigh_quotient(t, f)
            assert abs(got - rw.delta / ssum) < 1e-12
            done += 1


def test_switching_sign_under_hypotheses(rng):
    done = 0
    while done < 200:
        t = random_tree(rng, rng.randrange(5, 11))
        s = first_eigenpair(t)
        fh = zero_extension(t, s.eigenfunction)
        for v1, v2, u1, u2 in switch_moves(t):
            if fh[v1] >= fh[u2] and fh[v2] >= fh[u1]:
                _, rw = switching(t, v1, v2, u1, u2, f=s.eigenfunction)
                assert rw.delta <= 1e-15
                done += 1


# -- structural preservation -----------------------------------------------------------

def test_switching_preserves_degree_sequence_and_boundary(rng):
    done = 0
    while done < 150:
        t = random_tree(rng, rng.randrange(5, 12))
        moves = switch_moves(t)
        rng.shuffle(moves)
        for move in moves[:3]:
            new_tree, _ = switching(t, *move)
            assert sorted(len(t.adj[v]) for v in range(t.n)) == sorted(
                len(new_tree.adj[v]) for v in range(t.n)
            )
            assert new_tree.boundary == t.boundary
            assert len(new_tree.edges) == t.n - 1
            done += 1


def test_jumping_preserves_interior(rng):
    done = 0
    while done < 100:
        t = random_tree(rng, rng.randrange(5, 12))
        for move in jump_moves(t)[:3]:
            new_tree, _ = jumping(t, *move)
            assert new_tree.boundary == t.boundary
            assert set(new_tree.leaves) == set(t.leaves)
            done += 1


def test_shifting_keeps_class_when_v2_interior_and_v1_busy(rng):
    done = 0
    while done < 100:
        t = random_tree(rng, rng.randrange(5, 12))
        interior = set(t.interior)
        for v1, v2, u in shift_moves(t):
            if v2 not in interior or len(t.adj[v1]) < 3:
                continue
            try:
                new_tree, _ = shifting(t, v1, v2, u)
            except PreconditionViolatedError:
                continue
            assert set(new_tree.leaves) == set(t.leaves)
            assert new_tree.boundary == t.boundary
            done += 1


# -- eigenvalue monotonicity under switching ---------------------------------------------

def test_star_has_no_admissible_switching():
    rep = eigenvalue_after_switching_check(build_star(6))
    assert rep.entries == ()


def test_some_tree_admits_a_strictly_improving_switching():
    # a positive-margin non-relabeling move must show up somewhere among all
    # 8-vertex trees, and every such move strictly lowers the eigenvalue
    found = False
    for t in free_trees(8):
        rep = eigenvalue_after_switching_check(t)
        assert all(e.ok for e in rep.entries)
        for e in rep.entries:
            if e.hypothesis_margin > 1e-6 and not e.isomorphic:
                found = True
                assert e.lambda_after < e.lambda_before
    assert found


def test_relabeling_switchings_keep_lambda_exactly():
    # margin-positive moves that the checker exempts are relabelings with
    # identical spectrum
    seen = 0
    for t in free_trees(7):
        rep = eigenvalue_after_switching_check(t)
        for e in rep.entries:
            if e.isomorphic:
                seen += 1
                assert abs(e.lambda_after - e.lambda_before) < 1e-12
    assert seen > 0


def test_exhaustive_switching_check_small():
    for n in range(3, 9):
        for t in free_trees(n):
            assert all(e.ok for e in eigenvalue_after_switching_check(t).entries)


def raw_edge_energy(edges, fhat):
    """Quadratic edge energy over a raw edge multiset (no tree validation);
    mirrors the intermediate rewrites whose result can be disconnected or
    carry a cycle before a follow-up switching repairs it."""
    return sum((fhat[u] - fhat[v]) ** 2 for u, v in edges)


def test_raw_rewrite_identity_on_disconnected_intermediate():
    t = build_path(6)
    s = first_eigenpair(t)
    fh = zero_extension(t, s.eigenfunction)
    # replace (2,3) by (0,2): vertex 2 sits on the 3-to-0 path, so the
    # result detaches {3,4,5} and closes a cycle through 0-1-2
    old_edges = list(t.edges)
    new_edges = [e for e in old_edges if e != (2, 3)] + [(0, 2)]
    delta = raw_edge_energy(new_edges, fh) - raw_edge_energy(old_edges, fh)
    want = (fh[3] - fh[0]) * (2 * fh[2] - fh[3] - fh[0])
    assert abs(delta - want) < 1e-14
    # the public operation refuses the move (v2 = 0 is a boundary vertex)
    with pytest.raises(PreconditionViolatedError):
        jumping(t, 2, 0, 3)


def test_slack_opposite_an_interior_vertex_lowers_lambda1_strictly():
    # were lambda1 unchanged, the old ground state would be one of the new
    # tree too, so the eigen-equation at each interior vertex whose edges
    # changed would force fhat(v2) = fhat(u1) when v1 or u2 is interior and
    # fhat(v1) = fhat(u2) when v2 or u1 is: a slack opposite an interior
    # vertex rules that out.  A slack at boundary vertices only does not
    # (swapping two leaves of the spider T(1, 2, 2) gives the same tree)
    strict = moves = 0
    for n in range(3, 13):
        for t in free_trees(n):
            ground = first_eigenpair(t)
            fh = zero_extension(t, ground.eigenfunction)
            inner = set(t.interior)
            for v1, v2, u1, u2 in admissible_switchings(t, fh):
                moves += 1
                slack = max(
                    fh[v1] - fh[u2] if v2 in inner or u1 in inner else 0.0,
                    fh[v2] - fh[u1] if v1 in inner or u2 in inner else 0.0,
                )
                if slack > 1e-6:
                    strict += 1
                    after = first_eigenpair(switching(t, v1, v2, u1, u2)[0]).lambda1
                    assert after < ground.lambda1, (t.edges, (v1, v2, u1, u2))
    assert (strict, moves) == (2704, 13947)


def test_rewrites_refuse_ids_that_only_equal_a_vertex():
    # a float, bool or numpy int equal to a vertex is no vertex id: each
    # rewrite refuses it before it builds anything
    t = from_edge_list(8, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (1, 7)])
    f = [1.0, 0.8, 0.5, 0.7]
    assert t.has_edge(1, 2)
    for u in (1.0, True, np.int64(1)):
        assert not t.has_edge(u, 2) and not t.has_edge(2, u)
    with pytest.raises(PreconditionViolatedError):
        jumping(t, 2, 5, True, f=f)
    with pytest.raises(PreconditionViolatedError):
        shifting(t, 2, 5, 3.0, f=f)
    with pytest.raises(PreconditionViolatedError):
        switching(build_T(2, 3, 4), 0, 3, 5.0, 2, f=[1.0] * 5)


# -- the one rewrite routine against the reference --------------------------------

def _random_boundary_tree(rng, n):
    """A random tree with leaf boundary, or with an explicit boundary: some
    of its leaves and some inner vertices, redrawn until the interior is
    nonempty and connected."""
    tree = random_tree(rng, n)
    if rng.random() < 0.5:
        return tree
    inner = [v for v in range(n) if v not in tree.boundary]
    for _ in range(20):
        boundary = rng.sample(sorted(tree.boundary), rng.randrange(1, len(tree.boundary) + 1))
        boundary += rng.sample(inner, rng.randrange(len(inner)))
        try:
            return from_edge_list(n, tree.edges, boundary)
        except FKTreesError:
            pass
    return tree


def _assert_same_rewrite(got, want, case):
    assert got[0] == want[0], case
    if want[0] == "raises":
        assert got == want, case
        return
    (tree, rw), (ref_tree, ref_rw) = got[1], want[1]
    assert tree == ref_tree and tree.edges == ref_tree.edges, case
    assert tree.boundary == ref_tree.boundary and tree.adj == ref_tree.adj, case
    assert tree.interior == ref_tree.interior, case
    assert rw.kind == ref_rw.kind and rw.witness == ref_rw.witness, case
    assert rw.removed == ref_rw.removed and rw.inserted == ref_rw.inserted, case
    # a bool id indexes the zero-extension as a mask, so delta can be an array
    assert type(rw.delta) is type(ref_rw.delta), case
    if rw.delta is not None:
        assert np.shape(rw.delta) == np.shape(ref_rw.delta), case
        assert np.asarray(rw.delta).tobytes() == np.asarray(ref_rw.delta).tobytes(), case


def test_rewrites_match_the_reference(rng):
    """Every structurally admissible switching, admissible shifts and jumps,
    each of those with one id disguised as a float, a bool or a numpy int,
    and random ids, valid or not (out of range, negative, float, bool, numpy
    and None ids): equal trees and deltas bit for bit, or the same error
    type and message."""
    moves = {
        "switching": (switching, reference_switching, switch_moves, 4),
        "shifting": (shifting, reference_shifting, shift_moves, 3),
        "jumping": (jumping, reference_jumping, jump_moves, 3),
    }
    kinds = {}
    for _ in range(16):
        tree = _random_boundary_tree(rng, rng.randrange(3, 41))
        n = tree.n
        odd_ids = [-1, n, n + 3, 1.0, 2.5, True, np.int64(rng.randrange(n)), None]
        for kind, (move, reference, admissible, arity) in moves.items():
            cases = admissible(tree)
            if kind != "switching":
                cases = rng.sample(cases, min(len(cases), 30))
            for ids in rng.sample(cases, min(len(cases), 20)):
                ids = list(ids)
                i = rng.randrange(arity)
                ids[i] = rng.choice([float(ids[i]), np.int64(ids[i]), ids[i] == 1])
                cases.append(tuple(ids))
            for _ in range(30):
                ids = [rng.randrange(n) for _ in range(arity)]
                if rng.random() < 0.3:
                    ids[rng.randrange(arity)] = rng.choice(odd_ids)
                cases.append(tuple(ids))
            for ids in cases:
                roll = rng.random()
                f = None if roll < 0.3 else positive_f(rng, tree)
                if roll > 0.95:
                    f = f[1:]  # one entry short
                want = outcome(reference, tree, *ids, f)
                _assert_same_rewrite(outcome(move, tree, *ids, f), want, (kind, tree, ids))
                key = want[0] if want[0] == "ok" else want[1][0].__name__
                kinds[kind, key] = kinds.get((kind, key), 0) + 1
    for kind in moves:
        for key in ("ok", "PreconditionViolatedError", "ValueError"):
            assert kinds.get((kind, key), 0) >= 10, kinds
    assert sum(c for (_, k), c in kinds.items() if k == "InvalidVertexError") >= 10, kinds
    # an id that is no int vertex id fails a check before anything is built
    assert not any(k in ("TypeError", "ResultNotTreeError") for _, k in kinds), kinds
