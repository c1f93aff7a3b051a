from fractions import Fraction

import numpy as np
import pytest

import _rational
from lcpbounds import bnekrasov, nekrasov
from lcpbounds.bnekrasov import (
    all_bounds,
    bplus_decompose,
    classify,
    gp_bnekrasov_bound,
    is_b_nekrasov,
    new_bnekrasov_bound,
)
from lcpbounds.errors import DimensionTooSmall
from lcpbounds.linalg import inf_norm, inverse
from lcpbounds.nekrasov import gp_nekrasov_bound, h_vector, new_nekrasov_bound, scaled_matrix

F = Fraction


class TestBplusDecompose:
    def test_example3_first_row(self, ex3):
        split = bplus_decompose(ex3)
        np.testing.assert_allclose(split.b_plus[0], [0.5, -1 / 6, -1 / 6, 0.0], rtol=1e-15)
        assert split.r_plus[0] == 0.5
        np.testing.assert_allclose(split.r_plus, [0.5, 0.2, 0.0, 0.75], rtol=1e-15)

    def test_example4_first_row(self, ex4):
        split = bplus_decompose(ex4)
        np.testing.assert_array_equal(split.b_plus[0], [0.5, 0.0, 0.0, 0.0])
        assert split.r_plus[0] == 0.5

    def test_z_matrix_passes_through(self):
        a = np.array([[2.0, -1.0, 0.0], [-0.5, 3.0, -0.25], [0.0, -1.0, 2.0]])
        split = bplus_decompose(a)
        np.testing.assert_array_equal(split.r_plus, np.zeros(3))
        np.testing.assert_array_equal(split.b_plus, a)
        np.testing.assert_array_equal(split.c, np.zeros((3, 3)))

    def test_reconstruction_within_one_ulp(self, ex3, ex4):
        rng = np.random.default_rng(47)
        matrices = [ex3, ex4] + [rng.uniform(-2.0, 2.0, (n, n)) for n in (2, 3, 5, 8)]
        for m in matrices:
            split = bplus_decompose(m)
            err = np.abs(split.b_plus + split.c - m)
            assert np.all(err <= np.spacing(np.abs(m)))

    def test_bplus_is_z_matrix(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            split = bplus_decompose(rng.uniform(-2.0, 2.0, (n, n)))
            off = split.b_plus[~np.eye(n, dtype=bool)]
            assert np.all(off <= 0.0)
            assert np.all(split.c >= 0.0)

    def test_rejects_n1(self):
        with pytest.raises(DimensionTooSmall):
            bplus_decompose([[3.0]])


class TestIsBNekrasov:
    def test_example3(self, ex3):
        assert is_b_nekrasov(ex3).is_b_nekrasov

    def test_example4(self, ex4):
        assert is_b_nekrasov(ex4).is_b_nekrasov

    def test_forced_nonpositive_diagonal(self):
        assert not is_b_nekrasov([[1.0, 2.0], [2.0, 1.0]]).is_b_nekrasov

    def test_skips_p_matrix_test(self, ex3):
        report = is_b_nekrasov(ex3)
        assert report.is_p_matrix is None


class TestClassify:
    def test_example3_flags(self, ex3):
        report = classify(ex3)
        assert not report.is_h_matrix
        assert not report.is_b_matrix
        assert report.is_b_nekrasov
        assert not report.is_nekrasov
        assert report.is_p_matrix is True

    def test_identity_all_true(self):
        report = classify(np.eye(4))
        assert report.is_sdd and report.is_z_matrix and report.is_nekrasov
        assert report.is_b_matrix and report.is_b_nekrasov and report.is_h_matrix
        assert report.is_p_matrix is True

    def test_example1_nekrasov(self, ex1):
        report = classify(ex1)
        assert report.is_nekrasov
        assert report.is_h_matrix

    def test_nonpositive_minor_fails_p(self):
        report = classify([[0.0, 1.0], [1.0, 0.0]])
        assert report.is_p_matrix is False

    def test_large_n_skips_p(self):
        report = classify(np.eye(13))
        assert report.is_p_matrix is None
        assert "skipped" in report.notes


class TestGpBNekrasovBound:
    def test_example3_w_diagonal(self, ex3):
        eps = 1 / 12
        report = gp_bnekrasov_bound(ex3, eps)
        assert report.applicable
        np.testing.assert_allclose(
            report.intermediates["w"], [2 / 3, 3 / 4, 5 / 6, 5 / 6 + eps], atol=1e-12
        )

    def test_example3_matches_exact_formula(self, ex3):
        eps = F(1, 12)
        exact = float(_rational.gp_bnekrasov_exact(_rational.EXAMPLE3, eps))
        assert gp_bnekrasov_bound(ex3, float(eps)).value == pytest.approx(exact, rel=1e-12)

    def test_example3_boundary_epsilon_rejected(self, ex3):
        report = gp_bnekrasov_bound(ex3, 1 / 6)
        assert not report.applicable
        assert report.reason == "EpsilonOutOfRange"

    def test_example4_no_strict_entry(self, ex4):
        for eps in (0.01, 0.1, 0.5):
            report = gp_bnekrasov_bound(ex4, eps)
            assert not report.applicable
            assert report.reason == "NoStrictEntry(1)"

    def test_not_b_nekrasov(self):
        assert gp_bnekrasov_bound([[1.0, 2.0], [2.0, 1.0]], 0.1).reason == "NotBNekrasov"

    def test_n1_not_applicable(self):
        assert gp_bnekrasov_bound([[2.0]], 0.1).reason == "DimensionTooSmall"

    @pytest.mark.parametrize("m, epsilon, m_reason, b_reason", [
        ([[1e13, -1.0], [-1.0, 2.0]], 0.5, "DegenerateS", "WZero(1)"),  # w_1 = 1e-13
        ([[2.0, -1.0], [-0.9, 0.5]], 0.1 * (1 - 2e-12), "DegenerateS", "BbarNotSDDZ"),  # s_1 = 2e-13
    ])
    def test_degenerate_scaling(self, m, epsilon, m_reason, b_reason):
        # Z-matrices: B+ = M, so both routes run on the same matrix and differ
        # only in the final checks of their parameterized bound.
        assert gp_nekrasov_bound(m, epsilon).reason == m_reason
        assert gp_bnekrasov_bound(m, epsilon).reason == b_reason


class TestNewBNekrasovBound:
    def test_example3(self, ex3):
        # frozen from the exact formula: attained in row 4 as 3 * (7/4)/(1/24) = 126
        report = new_bnekrasov_bound(ex3)
        assert report.applicable
        assert report.value == pytest.approx(126.0, rel=1e-9)

    def test_example4(self, ex4):
        assert new_bnekrasov_bound(ex4).value == pytest.approx(126 / 5, rel=1e-9)

    def test_matches_exact_formula(self, ex3, ex4):
        for m, frac in ((ex3, _rational.EXAMPLE3), (ex4, _rational.EXAMPLE4)):
            exact = float(_rational.new_bnekrasov_exact(frac))
            assert new_bnekrasov_bound(m).value == pytest.approx(exact, rel=1e-12)

    def test_scaled_identity(self):
        assert new_bnekrasov_bound(2.0 * np.eye(2)).value == pytest.approx(1.0, rel=1e-15)

    def test_no_epsilon(self, ex3):
        assert new_bnekrasov_bound(ex3).epsilon is None

    def test_n1_not_applicable(self):
        assert new_bnekrasov_bound([[2.0]]).reason == "DimensionTooSmall"


class TestDominance:
    def test_bounds_dominate_sampled_norms(self, ex3, ex4):
        rng = np.random.default_rng(59)
        for m in (ex3, ex4):
            new = new_bnekrasov_bound(m)
            for _ in range(50):
                d = rng.random(4)
                norm = inf_norm(inverse(scaled_matrix(m, d)))
                assert norm <= new.value * (1 + 1e-9)

    def test_gp_dominates_where_applicable(self, ex3):
        rng = np.random.default_rng(61)
        for eps in (0.01, 1 / 12, 0.15):
            report = gp_bnekrasov_bound(ex3, eps)
            assert report.applicable
            for _ in range(20):
                norm = inf_norm(inverse(scaled_matrix(ex3, rng.random(4))))
                assert norm <= report.value * (1 + 1e-9)

    def test_scaled_inverse_factor(self, ex3, ex4):
        # ||Mt^{-1}|| <= (n-1) ||Bt^{-1}|| for the scaled pair (Mt, Bt)
        rng = np.random.default_rng(67)
        for m in (ex3, ex4):
            n = m.shape[0]
            b_plus = bplus_decompose(m).b_plus
            for _ in range(50):
                d = rng.random(n)
                lhs = inf_norm(inverse(scaled_matrix(m, d)))
                rhs = (n - 1) * inf_norm(inverse(scaled_matrix(b_plus, d)))
                assert lhs <= rhs * (1 + 1e-9)

    def test_bplus_h_example4(self, ex4):
        b_plus = bplus_decompose(ex4).b_plus
        np.testing.assert_allclose(h_vector(b_plus), [0.0, 3 / 5, 1 / 6, 1 / 24], atol=1e-12)


class TestAllBounds:
    @staticmethod
    def separately(m, eps_n, eps_b):
        return [gp_nekrasov_bound(m, eps_n), new_nekrasov_bound(m),
                gp_bnekrasov_bound(m, eps_b), new_bnekrasov_bound(m)]

    @staticmethod
    def assert_same(reports, expected):
        assert [r.theorem for r in reports] == [r.theorem for r in expected]
        for got, want in zip(reports, expected):
            assert (got.applicable, got.reason, got.epsilon, got.value) == (
                want.applicable, want.reason, want.epsilon, want.value)

    def test_explicit_epsilon_matches_each_bound(self, ex1, ex2, ex3, ex4, make_nekrasov):
        rng = np.random.default_rng(71)
        matrices = [ex1, ex2, ex3, ex4, np.eye(3), [[2.0]], [[1.0, 2.0], [2.0, 1.0]]]
        matrices += [make_nekrasov(int(rng.integers(2, 7)), rng) for _ in range(10)]
        for m in matrices:
            for eps in (0.01, 0.1, 0.3):
                self.assert_same(all_bounds(m, eps), self.separately(m, eps, eps))

    def test_default_epsilon_is_interval_midpoint(self, ex1, ex3):
        for m in (ex1, ex3):
            eps_n = nekrasov.epsilon_interval_upper(m) / 2.0
            eps_b = bnekrasov.epsilon_interval_upper(m) / 2.0
            self.assert_same(all_bounds(m), self.separately(m, eps_n, eps_b))
        assert all_bounds(ex1)[0].epsilon == pytest.approx(0.7158 / 2, abs=5e-5)
        assert all_bounds(ex3)[2].epsilon == pytest.approx(1 / 12, rel=1e-12)

    @pytest.mark.parametrize("m", [
        [[2.0]],                                # n = 1: no B+ split
        [[1.0, 1.0], [1.0, 0.5]],               # empty interval: h_n > m_nn
        [[0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 5.0, 1.0]],  # zero divisor used
    ])
    def test_empty_or_undefined_interval(self, m):
        reports = all_bounds(m)
        self.assert_same(reports, self.separately(m, 0.5, 0.5))
        assert not reports[0].applicable and not reports[2].applicable


class TestGpCoreExact:
    """Both parameterized bounds run on one core of row slacks.  On random
    Nekrasov and B-Nekrasov inputs each matches its exact rational formula;
    the B-Nekrasov one is computed there through ``Bbar = B+ W``."""

    def test_random_inputs_match_exact_values(self, make_nekrasov, make_bnekrasov):
        cases = [
            (make_nekrasov, gp_nekrasov_bound, nekrasov.epsilon_interval_upper,
             _rational.gp_nekrasov_exact),
            (make_bnekrasov, gp_bnekrasov_bound, bnekrasov.epsilon_interval_upper,
             _rational.gp_bnekrasov_exact),
        ]
        rng = np.random.default_rng(2024)
        checked = [0, 0]
        for _ in range(200):
            n = int(rng.integers(2, 9))
            for k, (make, gp, upper, exact) in enumerate(cases):
                m = make(n, rng)
                eps = upper(m) / 2.0
                report = gp(m, eps)
                if not report.applicable:
                    # A row whose only entries right of the diagonal tie r_i.
                    assert report.reason.startswith("NoStrictEntry")
                    continue
                want = exact([[F(float(v)) for v in row] for row in m], F(eps))
                assert abs(F(report.value) - want) <= want / 10**13
                checked[k] += 1
        assert checked[0] == 200 and checked[1] >= 100
