from itertools import combinations

import numpy as np
import pytest

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


class TestSolve:
    def test_identity_negative_q(self):
        sol = solve_lcp(LcpInstance(np.eye(3), [-1.0, -1.0, -1.0]))
        np.testing.assert_allclose(sol.x_star, np.ones(3))
        assert sol.basis == (0, 1, 2)

    def test_identity_positive_q(self):
        sol = solve_lcp(LcpInstance(np.eye(3), [1.0, 1.0, 1.0]))
        np.testing.assert_array_equal(sol.x_star, np.zeros(3))
        assert sol.basis == ()

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
        rng = np.random.default_rng(23)
        verdicts = set()
        for _ in range(40):
            n = int(rng.integers(1, 8))
            m = rng.uniform(-1.0, 1.0, (n, n)) + rng.uniform(0.0, 3.0) * np.eye(n)
            scale = max(1.0, float(np.max(np.abs(m))))
            expected = all(
                np.linalg.det(m[np.ix_(alpha, alpha)]) > 1e-12 * scale**size
                for size in range(1, n + 1)
                for alpha in combinations(range(n), size)
            )
            assert is_p_matrix(m) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}

    def test_verdict_invariant_under_power_of_two_scaling(self):
        # Scaling by 2**e is exact, and every matrix here has an entry of
        # magnitude at least 1, so each verdict must equal the base one.  Most
        # of these matrices have minors that overflow a double.
        rng = np.random.default_rng(31)
        verdicts = set()
        for _ in range(40):
            n = int(rng.integers(1, 8))
            m = rng.uniform(-1.0, 1.0, (n, n)) + rng.uniform(1.0, 3.0) * np.eye(n)
            base = 2.0**500 * m
            expected = is_p_matrix(base)
            for e in (-500, -100, 100, 500):
                assert is_p_matrix(2.0**e * base) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}

    def test_too_large(self):
        with pytest.raises(DimensionTooLarge):
            is_p_matrix(np.eye(13))


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

    def test_inapplicable_bound_rejected(self, ex3):
        inst = LcpInstance(ex3, [-1.0, -1.0, -1.0, -1.0])
        with pytest.raises(InapplicableBound):
            certify_error_bound(inst, np.zeros(4), new_nekrasov_bound(ex3))


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
