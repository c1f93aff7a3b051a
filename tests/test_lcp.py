import dataclasses
import math
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from lcpbounds import lcp
from lcpbounds.errors import (
    DimensionMismatch,
    DimensionTooLarge,
    DomainError,
    InapplicableBound,
    NoSolution,
    SingularMatrix,
)
from lcpbounds.lcp import (
    LcpInstance,
    certify_error_bound,
    feasible_bases,
    is_p_matrix,
    residual,
    solve_lcp,
    trial_points,
)
from lcpbounds.linalg import inf_norm, inverse
from lcpbounds.nekrasov import new_nekrasov_bound
from lcpbounds.bnekrasov import new_bnekrasov_bound
from conftest import random_nekrasov
import _rational

F = Fraction


def projected_gauss_seidel(m, q, x0, iterations=500):
    """Independent fixed-point refinement used to cross-check solutions."""
    x = np.array(x0, dtype=float)
    for _ in range(iterations):
        for i in range(len(x)):
            x[i] = max(0.0, x[i] - (m[i] @ x + q[i]) / m[i, i])
    return x


class TestInstance:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            LcpInstance(np.eye(3), [1.0, 2.0])


class TestResidual:
    def test_zero_at_solution(self):
        inst = LcpInstance(np.eye(2), [1.0, 1.0])
        np.testing.assert_array_equal(residual(inst, [0.0, 0.0]), [0.0, 0.0])

    def test_negative_q(self):
        inst = LcpInstance(np.eye(2), [-1.0, -1.0])
        np.testing.assert_array_equal(residual(inst, [0.0, 0.0]), [-1.0, -1.0])

    def test_componentwise_minimum(self):
        inst = LcpInstance(np.array([[2.0, 0.0], [0.0, 2.0]]), [-1.0, 3.0])
        np.testing.assert_array_equal(residual(inst, [1.0, 1.0]), [1.0, 1.0])

    def test_dimension_check(self):
        inst = LcpInstance(np.eye(2), [1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            residual(inst, [1.0, 2.0, 3.0])

    def test_overflow_is_silent(self):
        # M x = (1e309, 1e309) passes the float range; min(x, inf) is x.
        inst = LcpInstance(1e200 * np.eye(2), [1e308, -1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(residual(inst, [1e109, 1e109]), [1e109, 1e109])


class TestSolve:
    def test_identity_negative_q(self):
        sol = solve_lcp(LcpInstance(np.eye(3), [-1.0, -1.0, -1.0]))
        np.testing.assert_allclose(sol.x_star, np.ones(3))
        assert sol.basis == (0, 1, 2)

    def test_identity_positive_q(self):
        sol = solve_lcp(LcpInstance(np.eye(3), [1.0, 1.0, 1.0]))
        np.testing.assert_array_equal(sol.x_star, np.zeros(3))
        assert sol.basis == ()

    @pytest.mark.parametrize("n", [1, 2, 5, 15])
    def test_empty_basis_bits(self, n):
        # q >= 0 with -0.0 entries; each row of M has one sign.  The answer is
        # x* = +0 and w* = M 0 + q, summed from +0, so each zero of w* is +0.0.
        rng = np.random.default_rng(n)
        m = rng.uniform(0.5, 2.0, (n, n)) * rng.choice([-1.0, 1.0], (n, 1))
        q = rng.choice([0.0, -0.0, 1.0], n)
        q[0] = -0.0
        inst = LcpInstance(m, q)
        sol = solve_lcp(inst)
        assert sol.basis == () and feasible_bases(inst)[0] == ()
        assert sol.x_star.tobytes() == np.zeros(n).tobytes()
        assert sol.w_star.tobytes() == (q + 0.0).tobytes()
        assert sol.complementarity_gap == 0.0

    def test_example2_solution(self, ex2):
        inst = LcpInstance(ex2, [-1.0, -1.0, -1.0, -1.0])
        sol = solve_lcp(inst)
        assert sol.complementarity_gap <= 1e-9
        assert np.all(sol.x_star >= -1e-10)
        assert np.all(sol.w_star >= -1e-10)
        assert inf_norm(residual(inst, sol.x_star)) <= 1e-9 * (1 + inf_norm(inst.q))
        # refinement from x* must stay at x*
        refined = projected_gauss_seidel(inst.m, inst.q, sol.x_star)
        assert inf_norm(refined - sol.x_star) <= 1e-8

    def test_example2_error_bound_at_random_trials(self, ex2):
        inst = LcpInstance(ex2, [-1.0, -1.0, -1.0, -1.0])
        sol = solve_lcp(inst)
        for x in trial_points(sol.x_star, 100, seed=101):
            err = inf_norm(x - sol.x_star)
            assert err <= 15.0 * (1 + 1e-9) * inf_norm(residual(inst, x)) + 1e-9

    def test_unique_feasible_basis_for_p_matrices(self, ex1, ex2, ex3, ex4):
        rng = np.random.default_rng(71)
        for m in (ex1, ex2, ex3, ex4):
            for _ in range(5):
                inst = LcpInstance(m, rng.uniform(-2.0, 2.0, 4))
                assert len(feasible_bases(inst)) == 1

    def test_singular_bases_are_skipped(self):
        # Both 1x1 bases are the singular block [0]; the full basis solves.
        solution = solve_lcp(LcpInstance([[0.0, 1.0], [1.0, 0.0]], [-1.0, -1.0]))
        assert solution.basis == (0, 1)
        np.testing.assert_array_equal(solution.x_star, [1.0, 1.0])

    def test_exactly_singular_block_beside_the_answer(self):
        # Level 1 holds the exactly singular block [0] and the answer (1,).
        solution = solve_lcp(LcpInstance([[0.0, 0.0], [0.0, 1.0]], [1.0, -1.0]))
        assert solution.basis == (1,)
        np.testing.assert_array_equal(solution.x_star, [0.0, 1.0])
        np.testing.assert_array_equal(solution.w_star, [1.0, 0.0])

    def test_ill_conditioned_block_skipped_within_its_level(self):
        # The block of basis (0, 1) has condition number about 4.5e15.  Solved
        # anyway it gives the feasible x = (2, 1, 0), but the walk skips it and
        # takes the next feasible basis of the same level.
        delta = 2.0**-50
        inst = LcpInstance([[1.0, -1.0, 0.0], [-1.0, 1.0 + delta, 1.0], [-1.0, 2.0, 1.0]],
                           [-1.0, 1.0 - delta, 0.5])
        x = np.append(np.linalg.solve(inst.m[:2, :2], -inst.q[:2]), 0.0)
        np.testing.assert_array_equal(x, [2.0, 1.0, 0.0])
        assert np.all(inst.m @ x + inst.q >= 0.0)
        assert feasible_bases(inst) == [(0, 2), (0, 1, 2)]
        solution = solve_lcp(inst)
        assert solution.basis == (0, 2)
        np.testing.assert_array_equal(solution.x_star, [1.0, 0.0, 0.5])

    def test_basis_past_the_float_range_skipped(self):
        # Basis {0} gives x* = (1e300, 0) and w*_2 = 1e500: not a float solution,
        # and no other basis is feasible.
        inst = LcpInstance(np.array([[1e-100, 0.0], [1e200, 1.0]]), np.array([-1e200, 1.0]))
        assert feasible_bases(inst) == []
        with pytest.raises(NoSolution, match="float range"):
            solve_lcp(inst)

    def test_row_sum_past_the_float_range_keeps_its_test(self):
        # ||m_0||_1 = 2e308: the slack of w_0 >= 0 stays finite, so the empty
        # basis (w_0 = -1) is not feasible.  Basis {0} gives x* = (1e-308, 0).
        inst = LcpInstance([[1e308, 1e308], [0.0, 1.0]], [-1.0, 1.0])
        assert feasible_bases(inst) == [(0,)]
        solution = solve_lcp(inst)
        assert solution.basis == (0,)
        np.testing.assert_array_equal(solution.x_star, [1e-308, 0.0])

    @pytest.mark.parametrize("k", [-200, -44, 44, 200])
    def test_basis_unchanged_under_scaling(self, k):
        # LCP(DM, Dq) and LCP(sM, tq) have the solution bases of LCP(M, q).
        # (D stays within 2**+-10: the PIVOT_RTOL rule reads unscaled blocks.)
        rng = np.random.default_rng(83)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            m, q = random_nekrasov(n, rng), rng.uniform(-2.0, 2.0, n)
            d = 2.0 ** rng.integers(-10, 11, n)
            basis = solve_lcp(LcpInstance(m, q)).basis
            assert solve_lcp(LcpInstance(2.0**k * m, q)).basis == basis
            assert solve_lcp(LcpInstance(m, 2.0**k * q)).basis == basis
            assert solve_lcp(LcpInstance(d[:, None] * m, d * q)).basis == basis

    def test_no_solution(self):
        with pytest.raises(NoSolution):
            solve_lcp(LcpInstance(-np.eye(2), [-1.0, -1.0]))

    def test_too_large(self):
        with pytest.raises(DimensionTooLarge):
            solve_lcp(LcpInstance(np.eye(16), np.ones(16)))


def basis_solution(inst, alpha):
    """Solve the complementary system for basis ``alpha`` on its own; None when
    ``inverse`` rejects its block (the ``PIVOT_RTOL`` rule) or the result is
    infeasible beyond 1e-10."""
    x = np.zeros(inst.n)
    if alpha:
        idx = list(alpha)
        try:
            x[idx] = inverse(inst.m[np.ix_(idx, idx)]) @ -inst.q[idx]
        except SingularMatrix:
            return None
        if np.any(x[idx] < -1e-10):
            return None
    w = inst.m @ x + inst.q
    if np.any(w < -1e-10):
        return None
    return x, w


def reference_walk(inst):
    """(basis, x, w) for every feasible basis, one basis at a time over
    ``itertools.combinations`` in (cardinality, lexicographic) order."""
    walk = []
    for size in range(inst.n + 1):
        for alpha in combinations(range(inst.n), size):
            result = basis_solution(inst, alpha)
            if result is not None:
                walk.append((alpha, *result))
    return walk


def contract_instance(kind, n, rng):
    if kind == "p_matrix":
        m = random_nekrasov(n, rng)
        assert is_p_matrix(m)
        return LcpInstance(m, rng.uniform(-2.0, 2.0, n))
    if kind == "integer":
        # Entries in {-2..2}: singular blocks, exact and numerical, are common.
        return LcpInstance(rng.integers(-2, 3, (n, n)), rng.integers(-2, 3, n))
    if kind == "no_basis":
        # M <= 0 and q < 0 make w = Mx + q negative for every x >= 0.
        return LcpInstance(-rng.uniform(0.1, 1.0, (n, n)), -rng.uniform(0.1, 1.0, n))
    for _ in range(500):
        inst = LcpInstance(rng.uniform(-1.0, 1.0, (n, n)), rng.uniform(-1.0, 1.0, n))
        if len(reference_walk(inst)) >= 2:
            assert not is_p_matrix(inst.m)
            return inst
    raise AssertionError(f"no seeded non-P instance with several feasible bases at n={n}")


class TestSolverContract:
    """solve_lcp and feasible_bases read one walk over the bases: the first
    feasible basis is the solution, and the list is every feasible basis in
    enumeration order."""

    @pytest.mark.parametrize("kind", ["p_matrix", "several_bases", "no_basis", "integer"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_reference_walk(self, kind, n):
        rng = np.random.default_rng(1000 * n + len(kind))
        for _ in range(3):
            inst = contract_instance(kind, n, rng)
            walk = reference_walk(inst)
            bases = feasible_bases(inst)
            assert bases == [alpha for alpha, _, _ in walk]
            if kind == "p_matrix":
                assert len(bases) == 1
            elif kind == "several_bases":
                assert len(bases) >= 2
            if not bases:
                assert kind in ("no_basis", "integer")
                with pytest.raises(NoSolution):
                    solve_lcp(inst)
                continue
            solution = solve_lcp(inst)
            alpha, x, w = walk[0]
            assert solution.basis == bases[0] == alpha
            np.testing.assert_array_equal(solution.x_star, x)
            np.testing.assert_array_equal(solution.w_star, w)
            assert solution.complementarity_gap == float(abs(x @ w))

    def test_feasible_bases_too_large(self):
        with pytest.raises(DimensionTooLarge):
            feasible_bases(LcpInstance(np.eye(16), np.ones(16)))


class TestIsPMatrix:
    def test_identity(self):
        assert is_p_matrix(np.eye(4))

    def test_zero_diagonal(self):
        assert not is_p_matrix([[0.0, 1.0], [1.0, 0.0]])

    def test_example3(self, ex3):
        assert is_p_matrix(ex3)

    def test_b_nekrasov_fixtures_are_p(self, ex1, ex2, ex4):
        for m in (ex1, ex2, ex4):
            assert is_p_matrix(m)

    def test_negative_minor(self):
        assert not is_p_matrix([[1.0, 2.0], [2.0, 1.0]])

    def test_matches_minor_by_minor_loop(self):
        # The reference states the pivot rule minor by minor.  With rows a,
        # then i, and columns a, then j, the bordered minor over det M[a, a]
        # is entry (i, j) of the Schur complement of M[a, a], so for each
        # subset a of the indices below k the rule reads
        # det M[a + k, a + k] > 1e-12 max_{j >= k} |det M[a + k, a + j]|.
        # Unit lower triangular inputs with entries up to 200 set it apart
        # from the rule det > 1e-12 on the row-scaled minors, which shrink
        # by up to 2**-7 per row.
        def bordered(a, alpha, i, j):
            return np.linalg.det(a[np.ix_(alpha + (i,), alpha + (j,))])

        def pivots_pass(a):
            n = a.shape[0]
            return all(bordered(a, alpha, k, k)
                       > 1e-12 * max(abs(bordered(a, alpha, k, j)) for j in range(k, n))
                       for k in range(n)
                       for size in range(k + 1)
                       for alpha in combinations(range(k), size))

        def minors_pass(a):
            n = a.shape[0]
            return all(np.linalg.det(a[np.ix_(alpha, alpha)]) > 1e-12
                       for size in range(1, n + 1)
                       for alpha in combinations(range(n), size))

        rng = np.random.default_rng(23)
        verdicts, apart = set(), 0
        for k in range(60):
            n = int(rng.integers(1, 8))
            m = rng.uniform(-1.0, 1.0, (n, n)) + rng.uniform(0.0, 3.0) * np.eye(n)
            if k % 3 == 1:
                m *= 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
            elif k % 3 == 2:
                m = np.eye(n) + np.tril(rng.uniform(-200.0, 200.0, (n, n)), -1)
            rows = np.array([2.0 ** (1 - math.frexp(v)[1]) for v in np.abs(m).max(axis=1)])
            expected = pivots_pass(rows[:, None] * m)
            assert is_p_matrix(m) == expected
            verdicts.add(expected)
            apart += expected != minors_pass(rows[:, None] * m)
        assert verdicts == {True, False}
        assert apart > 0

    def test_matches_exact_minors(self):
        # Exact signs of the principal minors of the doubles, on inputs with
        # rows at 10**U(-3, 3) among them.
        rng = np.random.default_rng(37)
        verdicts = set()
        for k in range(60):
            n = int(rng.integers(1, 8))
            m = rng.uniform(-1.0, 1.0, (n, n)) + rng.uniform(0.0, 3.0) * np.eye(n)
            if k % 2:
                m *= 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
            expected = _rational.is_p_matrix_exact([[F(float(v)) for v in row] for row in m])
            assert is_p_matrix(m) == expected
            verdicts.add((expected, k % 2))
        assert len(verdicts) == 4

    def test_verdict_invariant_under_power_of_two_scaling(self):
        # Scaling by 2**e, of the whole matrix or of each row, is exact, so
        # each verdict must equal the base one.  Most of these matrices have
        # minors that overflow a double.
        rng = np.random.default_rng(31)
        verdicts = set()
        for _ in range(40):
            n = int(rng.integers(1, 8))
            m = rng.uniform(-1.0, 1.0, (n, n)) + rng.uniform(1.0, 3.0) * np.eye(n)
            base = 2.0**500 * m
            expected = is_p_matrix(base)
            for e in (-500, -100, 100, 500):
                assert is_p_matrix(2.0**e * base) == expected
            for _ in range(3):
                assert is_p_matrix(2.0 ** rng.integers(-40, 41, (n, 1)) * base) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("kind, seen", [
        ("row_scaled", {True, False}), ("unit_triangular", {True}),
        ("near_singular", {True, False}), ("non_p", {False}),
    ], ids=["row_scaled", "unit_triangular", "near_singular", "non_p"])
    def test_matches_exact_minors_up_to_n10(self, kind, seen):
        # Exact signs of the principal minors of the doubles.  A unit
        # triangular M has every principal minor 1, and rows up to 200 make
        # its row-scaled minors as small as 2**-7 per row; u v^T + e I with
        # u, v > 0 has minors e^(k-1) (e + u_a . v_a), P iff e > 0; non-P
        # inputs are Nekrasov inputs with one diagonal entry negated.
        rng = np.random.default_rng(len(kind))
        verdicts = set()
        for n in [*range(1, 9), *range(1, 9), 9, 10]:
            if kind == "row_scaled":
                m = rng.uniform(-1.0, 1.0, (n, n)) + rng.uniform(0.0, 3.0) * np.eye(n)
                m *= 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
            elif kind == "unit_triangular":
                m = np.eye(n) + np.tril(rng.uniform(-200.0, 200.0, (n, n)), -1)
                m = m.T if rng.random() < 0.5 else m
            elif kind == "near_singular":
                e = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8.0, -4.0)
                m = np.outer(rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)) + e * np.eye(n)
            else:
                m = random_nekrasov(n, rng) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
                i = rng.integers(n)
                m[i, i] = -m[i, i]
            expected = _rational.is_p_matrix_exact([[F(float(v)) for v in row] for row in m])
            assert is_p_matrix(m) == expected, (n, m)
            verdicts.add(expected)
        assert verdicts == seen

    def test_n20(self):
        assert is_p_matrix(random_nekrasov(20, np.random.default_rng(20)))
        # The one negative minor, 1 - 4, sits on the last two indices.
        m = np.eye(16)
        m[14, 15] = m[15, 14] = 2.0
        assert not is_p_matrix(m)

    @pytest.mark.xfail(strict=True, reason=(
        "FOUND 50: each pivot is judged against 1e-12 of its row, which misreads "
        "permuted unit triangular P-matrices (ROADMAP direction 2)"))
    def test_permuted_unit_triangular_is_p(self):
        # Each principal submatrix of L[p][:, p] is a symmetric permutation of
        # one of L, which is unit lower triangular: every minor is exactly 1.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            lower = np.eye(20) + np.tril(rng.uniform(-200.0, 200.0, (20, 20)), -1)
            p = rng.permutation(20)
            assert is_p_matrix(lower[p][:, p]), seed

    def test_too_large(self):
        with pytest.raises(DimensionTooLarge):
            is_p_matrix(np.eye(21))


class TestCertify:
    def test_solution_point_holds(self, ex1):
        inst = LcpInstance(ex1, [-1.0, -1.0, -1.0, -1.0])
        sol = solve_lcp(inst)
        cert = certify_error_bound(inst, sol.x_star, new_nekrasov_bound(ex1))
        assert cert.holds
        assert cert.residual_norm <= 1e-9
        assert cert.true_error == 0.0

    def test_example1_random_trials(self, ex1):
        inst = LcpInstance(ex1, [-1.0, -1.0, -1.0, -1.0])
        bound = new_nekrasov_bound(ex1)
        sol = solve_lcp(inst)
        for x in trial_points(sol.x_star, 100, seed=5):
            assert certify_error_bound(inst, x, bound).holds

    def test_example4_random_trials(self, ex4):
        inst = LcpInstance(ex4, [-1.0, -2.0, -1.0, -2.0])
        bound = new_bnekrasov_bound(ex4)
        assert bound.value == pytest.approx(25.2, rel=1e-9)
        sol = solve_lcp(inst)
        for x in trial_points(sol.x_star, 100, seed=6):
            assert certify_error_bound(inst, x, bound).holds

    @pytest.mark.parametrize("scale", [1e-200, 1e-8, 1.0, 1e200])
    def test_slack_is_rounding_only(self, scale):
        # On s I the exact constant max(1, 1/s) is attained at every trial
        # point: the bound holds, and the bound times 1 - 1e-12 fails.
        inst = LcpInstance(scale * np.eye(2), [-1.0, -1.0])
        bound = new_nekrasov_bound(inst.m)
        low = dataclasses.replace(bound, value=bound.value * (1 - 1e-12))
        for x in trial_points(solve_lcp(inst).x_star, 20, seed=9):
            assert certify_error_bound(inst, x, bound).holds
            assert not certify_error_bound(inst, x, low).holds

    def test_inapplicable_bound_rejected(self, ex3):
        inst = LcpInstance(ex3, [-1.0, -1.0, -1.0, -1.0])
        with pytest.raises(InapplicableBound):
            certify_error_bound(inst, np.zeros(4), new_nekrasov_bound(ex3))

    @pytest.mark.parametrize("length", [3, 5])
    def test_point_of_another_length_rejected_before_the_solve(self, ex1, monkeypatch, length):
        def solve(inst):
            raise AssertionError("solved")

        monkeypatch.setattr(lcp, "solve_lcp", solve)
        inst = LcpInstance(ex1, [-1.0, -1.0, -1.0, -1.0])
        with pytest.raises(DimensionMismatch, match=f"x has length {length}, expected 4"):
            certify_error_bound(inst, np.zeros(length), new_nekrasov_bound(ex1))


class TestTrialPoints:
    def test_deterministic_and_in_range(self):
        x_star = np.array([1.0, 2.0])
        a = trial_points(x_star, 50, seed=9)
        b = trial_points(x_star, 50, seed=9)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (50, 2)
        assert np.all(a >= 0.0) and np.all(a <= 3.0 * (1.0 + 2.0))

    @pytest.mark.parametrize("count, seed", [(-1, 0), (5, -1)])
    def test_negative_count_or_seed_rejected(self, count, seed):
        with pytest.raises(DomainError):
            trial_points([1.0, 2.0], count, seed)

    @pytest.mark.parametrize("x_star", [[0.0, 1e308], [7e307, 0.0]])
    def test_range_past_the_float_range_rejected(self, x_star):
        with pytest.raises(DomainError, match="overflows"):
            trial_points(x_star, 5, seed=0)

    # numpy 2.4 raises ValueError for both, where a MemoryError would need
    # the allocation first; no array is allocated.
    @pytest.mark.parametrize("count", [2**62, 10**20])
    def test_count_past_the_array_size_rejected(self, count):
        with pytest.raises(DomainError, match=f"cannot draw {count} trial points"):
            trial_points([1.0, 2.0], count, seed=0)

    def test_largest_finite_range_accepted(self):
        points = trial_points([5e307], 5, seed=0)
        assert np.isfinite(points).all() and np.all(points <= 3.0 * (1.0 + 5e307))
