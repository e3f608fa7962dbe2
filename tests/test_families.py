"""Family constructors, fork polynomials, predicted extremal sets."""

import numpy as np
import pytest

from fktrees import (
    CapExceededError,
    ClassKey,
    EmptyClassError,
    InvalidParametersError,
    build_T,
    build_comet,
    build_fork,
    build_path,
    build_star,
    canonical_code,
    diameter,
    dirichlet_matrix,
    first_eigenpair,
    fork_char_poly,
    fork_poly_difference,
    invariants,
    predicted_extremal,
)
from conftest import predicted_trees


def codes(ts):
    return sorted(canonical_code(t).text for t in ts)


# -- build_T ------------------------------------------------------------------

def test_T022_is_p4():
    assert canonical_code(build_T(0, 2, 2)) == canonical_code(build_path(4))


def test_T323_shape():
    inv = invariants(build_T(3, 2, 3))
    assert (inv.n, inv.b, inv.m) == (8, 3, 3)
    assert len(build_T(3, 2, 3).interior) == 5


def test_T01_star_convention():
    assert canonical_code(build_T(0, 1, 6)) == canonical_code(build_star(7))


def test_T_invariants_grid():
    for p in range(0, 6):
        for q in range(2, 5):
            for b in range(q, q + 3):
                inv = invariants(build_T(p, q, b))
                assert inv.n == p + q + b
                assert inv.m == q + p // 2
                assert inv.b == b


def test_small_family_parameters_are_refused():
    with pytest.raises(InvalidParametersError, match="star with interior needs n >= 3, got 2"):
        build_star(2)
    with pytest.raises(InvalidParametersError, match=r"star T\(0,1,b\) needs b >= 2"):
        build_T(0, 1, 1)
    for k, n in ((2, 9), (3, 4)):
        with pytest.raises(
            InvalidParametersError,
            match=f"fork polynomial needs k >= 3, n >= 2k-1, got k={k}, n={n}",
        ):
            fork_char_poly(k, n)
    with pytest.raises(InvalidParametersError, match="difference identity needs k >= 3, got 2"):
        fork_poly_difference(2, 9, 0.5)


def test_T_rejects_bad_parameters():
    for bad in [(-1, 2, 2), (1, 1, 3), (0, 3, 2), (2, 0, 2)]:
        with pytest.raises(InvalidParametersError):
            build_T(*bad)


# -- comets ---------------------------------------------------------------------

def test_comet_k1_is_star():
    assert canonical_code(build_comet(5, 1)) == canonical_code(build_star(5))


def test_comet_n7_k3_is_T124():
    assert canonical_code(build_comet(7, 3)) == canonical_code(build_T(1, 2, 4))


def test_comet_invariants():
    for n in range(5, 11):
        for k in range(1, n - 1):
            t = build_comet(n, k)
            inv = invariants(t)
            assert inv.b == n - k
            assert len(t.interior) == k
            # interior induces a path: interior degrees within interior <= 2
            interior = set(t.interior)
            for v in interior:
                assert sum(1 for w in t.neighbors(v) if w in interior) <= 2


def test_comet_max_k_is_path():
    assert canonical_code(build_comet(7, 5)) == canonical_code(build_path(7))


def test_comet_rejects_bad_parameters():
    with pytest.raises(InvalidParametersError):
        build_comet(5, 4)
    with pytest.raises(InvalidParametersError):
        build_comet(5, 0)


# -- forks ------------------------------------------------------------------------

def test_fork_gf225_is_p5():
    assert canonical_code(build_fork(2, 2, 5)) == canonical_code(build_path(5))


def test_fork_gf329_matrix_diagonal():
    dm = dirichlet_matrix(build_fork(3, 2, 9))
    assert list(np.diag(dm.entries)) == [3.0, 4.0, 2.0, 2.0]


def test_fork_order_and_diameter_grid():
    for a in range(2, 7):
        for r in (1, 2, 3):
            for extras in (0, 1, 3):
                n = a * r + 1 + extras
                t = build_fork(a, r, n)
                assert t.n == n
                assert diameter(t) == 2 * r
    # r = 2 interior count is a + 1
    for a in range(2, 7):
        assert len(build_fork(a, 2, 2 * a + 3).interior) == a + 1


def test_fork_rejects_bad_parameters():
    with pytest.raises(InvalidParametersError):
        build_fork(1, 2, 5)
    with pytest.raises(InvalidParametersError):
        build_fork(3, 2, 6)  # n < a*r + 1


# -- fork polynomials -----------------------------------------------------------

def test_fork_poly_k4_n9():
    poly = fork_char_poly(4, 9)
    assert poly.coefficients == (1.0, -9.0, 23.0, -14.0)


def test_fork_poly_sign_pattern():
    for k in range(3, 9):
        for n in range(2 * k - 1, 21):
            poly = fork_char_poly(k, n)
            assert poly(0.0) < 0
            assert poly(1.0) == 1.0


def test_fork_poly_matches_matrix_spectrum():
    for k in range(3, 9):
        for n in range(2 * k - 1, 21):
            t = build_fork(k - 1, 2, n)
            eigs = np.linalg.eigvalsh(dirichlet_matrix(t).entries)
            roots = sorted(np.roots(fork_char_poly(k, n).coefficients).real)
            want = sorted([2.0] * (k - 3) + roots)
            assert np.allclose(sorted(eigs), want, atol=1e-8)


def test_fork_poly_difference_identity(rng):
    for _ in range(300):
        k = rng.randrange(3, 12)
        n = rng.randrange(2 * k - 1, 40)
        lam = rng.uniform(-2.0, 3.0)
        lhs, rhs = fork_poly_difference(k, n, lam)
        assert abs(lhs - rhs) <= 1e-12
    # both factor roots give zero
    assert fork_poly_difference(4, 9, 1.0) == (0.0, 0.0)
    k, n = 5, 11
    at = float(4 * k - n - 1)
    lhs, rhs = fork_poly_difference(k, n, at)
    assert lhs == pytest.approx(0.0, abs=1e-12) and rhs == 0.0


def test_smallest_fork_root_in_unit_interval():
    for k in range(3, 9):
        for n in range(2 * k - 1, 21):
            roots = sorted(np.roots(fork_char_poly(k, n).coefficients).real)
            assert 0 < roots[0] < 1


# -- predicted extremal sets -------------------------------------------------------

def test_predicted_nm_cases():
    got = predicted_extremal(ClassKey("NM", 8, m=3))
    assert not got.conjecture
    assert codes(predicted_trees(got)) == codes([build_T(3, 2, 3)])
    got = predicted_extremal(ClassKey("NM", 6, m=3))
    assert codes(predicted_trees(got)) == codes([build_T(2, 2, 2)]) == codes([build_path(6)])
    got = predicted_extremal(ClassKey("NM", 7, m=1))
    assert codes(predicted_trees(got)) == codes([build_star(7)])


def test_predicted_nmb_pendant_family():
    got = predicted_extremal(ClassKey("NMB", 8, m=4, b=4))
    assert len(predicted_trees(got)) == 2  # interior P_4 and K_{1,3}
    for t in predicted_trees(got):
        inv = invariants(t)
        assert (inv.n, inv.m, inv.b) == (8, 4, 4)
        lam = first_eigenpair(t).lambda1
        assert abs(lam - 1.0) < 1e-10


def test_predicted_nmb_all_cases_round_trip():
    for n in range(4, 11):
        for m in range(1, n // 2 + 1):
            for b in range(2, n):
                key = ClassKey("NMB", n, m=m, b=b)
                if not key.feasible():
                    with pytest.raises(EmptyClassError):
                        predicted_extremal(key)
                    continue
                for t in predicted_trees(predicted_extremal(key)):
                    inv = invariants(t)
                    assert (inv.n, inv.m, inv.b) == (n, m, b)


def test_predicted_nm_round_trip():
    for n in range(3, 13):
        for m in range(1, n // 2 + 1):
            for t in predicted_trees(predicted_extremal(ClassKey("NM", n, m=m))):
                inv = invariants(t)
                assert (inv.n, inv.m) == (n, m)


def test_predicted_nk_and_nd():
    got = predicted_extremal(ClassKey("NK", 9, k=4))
    assert codes(predicted_trees(got)) == codes([build_comet(9, 4)])
    got = predicted_extremal(ClassKey("ND", 9, D=3))
    assert codes(predicted_trees(got)) == codes([build_comet(9, 2)])
    got = predicted_extremal(ClassKey("ND", 9, D=4))
    assert codes(predicted_trees(got)) == codes([build_fork(4, 2, 9)])
    got = predicted_extremal(ClassKey("ND", 12, D=6))
    assert got.conjecture
    assert len(predicted_trees(got)) == 2  # comet + fork candidates
    for t in predicted_trees(got):
        assert invariants(t).D == 6
    got = predicted_extremal(ClassKey("ND", 12, D=5))
    assert got.conjecture
    assert codes(predicted_trees(got)) == codes([build_comet(12, 4)])


def test_predicted_sequences_past_21_levels():
    # a level is a byte: arms of more than 21 levels come out whole, and
    # past 511 vertices the levels would wrap, so the key is refused
    for key, want in [
        (ClassKey("NM", 50, m=24), [build_T(45, 2, 3)]),
        (ClassKey("ND", 46, D=44), [build_comet(46, 43), build_fork(2, 22, 46)]),
        (ClassKey("ND", 60, D=50), [build_comet(60, 49), build_fork(2, 25, 60)]),
        (ClassKey("ND", 511, D=510), [build_path(511)] * 2),
    ]:
        got = predicted_extremal(key)
        assert [len(seq) for seq in got.sequences] == [key.n] * len(want)
        assert codes(predicted_trees(got)) == codes(want)
    with pytest.raises(CapExceededError):
        predicted_extremal(ClassKey("ND", 515, D=513))


def test_predicted_infeasible_raises():
    with pytest.raises(EmptyClassError):
        predicted_extremal(ClassKey("NM", 5, m=3))
    with pytest.raises(EmptyClassError):
        predicted_extremal(ClassKey("NMB", 8, m=2, b=2))  # t = 2m+b-n < 1
    with pytest.raises(EmptyClassError):
        predicted_extremal(ClassKey("NK", 6, k=5))


def test_comet_beats_every_higher_contact_family():
    # within fixed order n and leaf count b, the comet T(n-2-b, 2, b) lies
    # strictly below T(n-t-b, t, b) for every feasible t >= 3 and below the
    # lambda = 1 plateau of the one-pendant-per-interior-vertex classes;
    # this is the comparison chain that reduces the interior-count
    # characterization to the leaf-count one
    for n in range(7, 13):
        for b in range(2, n - 2):
            comet = first_eigenpair(build_T(n - 2 - b, 2, b)).lambda1
            assert comet < 1.0
            for t in range(3, b + 1):
                if n - t - b < 0:
                    continue
                m = t + (n - t - b) // 2
                if not ClassKey("NMB", n, m=m, b=b).feasible():
                    continue
                rival = first_eigenpair(build_T(n - t - b, t, b)).lambda1
                assert comet < rival - 1e-8


# -- eigenvalue monotonicity in the tail length (small grid here) ------------------

def test_tail_lengthening_lowers_eigenvalue_small():
    lam = {}
    for p in range(0, 7):
        for b in range(2, 7):
            lam[(p, b)] = first_eigenpair(build_T(p, 2, b)).lambda1
    for p in range(0, 7):
        for b in range(2, 7):
            for ell in range(0, p + 1):
                if (p - ell, b + ell) not in lam:
                    lam[(p - ell, b + ell)] = first_eigenpair(
                        build_T(p - ell, 2, b + ell)
                    ).lambda1
                diff = lam[(p - ell, b + ell)] - lam[(p, b)]
                if ell == 0:
                    assert diff == 0.0
                else:
                    assert diff > 1e-8
