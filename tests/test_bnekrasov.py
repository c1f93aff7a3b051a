import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _rational
from conftest import random_bnekrasov, random_nekrasov
from lcpbounds import bnekrasov, lcp, nekrasov
from lcpbounds.bnekrasov import (
    all_bounds,
    bplus_decompose,
    classify,
    gp_bnekrasov_bound,
    is_b_nekrasov,
    new_bnekrasov_bound,
)
from lcpbounds.errors import DimensionTooSmall, DomainError, ZeroDiagonal
from lcpbounds.linalg import PIVOT_RTOL, inf_norm, inverse
from lcpbounds.nekrasov import (
    gp_nekrasov_bound,
    h_vector,
    kolotilina_bound,
    new_nekrasov_bound,
    scaled_matrix,
)

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

    def test_c_is_a_read_only_view_of_r_plus(self, ex3):
        split = bplus_decompose(ex3)
        np.testing.assert_array_equal(split.c, np.tile(split.r_plus[:, None], (1, 4)))
        assert not split.c.flags.writeable
        assert np.shares_memory(split.c, split.r_plus)

    def test_rejects_n1(self):
        with pytest.raises(DimensionTooSmall):
            bplus_decompose([[3.0]])


# Finite, but b_13 = -1e308 - 1e308 is past the float range.
_OVERFLOWING_SPLIT = [[1.0, 1e308, -1e308], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize("fn", [
    bplus_decompose, bnekrasov.epsilon_interval_upper, lambda m: gp_bnekrasov_bound(m, 0.5),
    new_bnekrasov_bound, all_bounds, classify, is_b_nekrasov,
], ids=["bplus_decompose", "epsilon_interval_upper", "gp_bnekrasov_bound",
        "new_bnekrasov_bound", "all_bounds", "classify", "is_b_nekrasov"])
def test_overflowing_split_is_one_error(fn):
    with pytest.raises(DomainError, match="^the B\\+ splitting overflows"):
        fn(_OVERFLOWING_SPLIT)


class TestIsBNekrasov:
    def test_example3(self, ex3):
        assert is_b_nekrasov(ex3) is True

    def test_example4(self, ex4):
        assert is_b_nekrasov(ex4) is True

    def test_forced_nonpositive_diagonal(self):
        assert is_b_nekrasov([[1.0, 2.0], [2.0, 1.0]]) is False

    def test_is_the_classify_flag(self):
        rng = np.random.default_rng(29)
        inputs = [[[3.0]], [[-1.0]], [[1.0, 2.0], [2.0, 1.0]]]
        for n in range(1, 9):
            inputs += [random_nekrasov(n, rng), random_bnekrasov(n, rng)]
        for m in inputs:
            assert is_b_nekrasov(m) is classify(m).is_b_nekrasov
        assert {is_b_nekrasov(m) for m in inputs} == {True, False}


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

    def test_shrinking_minors_are_p(self):
        # Nekrasov, with every principal minor exactly 1; the row-scaled
        # minors fall to 2**-42, below an absolute threshold of 1e-12.
        # classify reads P by class, so the recursion is called directly.
        m = np.eye(8)
        m[1:, 0] = 100.0
        assert classify(m).is_h_matrix is True
        assert lcp.is_p_matrix(m) is True

    def test_large_n_skips_p(self):
        # -I is in neither class (its diagonal is negative), so P stays unknown.
        report = classify(-np.eye(21))
        assert report.is_p_matrix is None
        assert "skipped" in report.notes

    @pytest.mark.parametrize("m, cls", [
        (np.eye(21), "Nekrasov with positive diagonal"),
        # B+ = I, so I + J is B-Nekrasov; h_1 = 20 > 2, so it is not Nekrasov.
        (np.eye(21) + 1.0, "B-Nekrasov"),
    ])
    def test_large_n_p_by_class(self, m, cls):
        report = classify(m)
        assert report.is_p_matrix is True
        assert report.notes.endswith(f"P by class: {cls}")
        assert "skipped" not in report.notes

    def test_class_decides_p_without_the_recursion(self, monkeypatch, ex1, ex3):
        # random_bnekrasov's draws are mostly Nekrasov as well, and then the
        # route on M comes first.
        rng = np.random.default_rng(28)
        nekrasov_class = "Nekrasov with positive diagonal"
        inputs = [([[2.0]], nekrasov_class), (ex1, nekrasov_class), (ex3, "B-Nekrasov"),
                  (random_nekrasov(20, rng), nekrasov_class),
                  (random_bnekrasov(20, rng), nekrasov_class), (np.eye(20) + 1.0, "B-Nekrasov")]
        calls = []

        def recursion(m):
            calls.append(np.shape(m))
            raise AssertionError("the class decides P")

        monkeypatch.setattr(lcp, "is_p_matrix", recursion)
        for m, cls in inputs:
            report = classify(m)
            assert report.is_p_matrix is True
            assert report.notes.endswith(f"P by class: {cls}")
            assert "skipped" not in report.notes
        # In neither class (P, with row-scaled minors down to 2**-45): one call.
        with pytest.raises(AssertionError, match="the class decides P"):
            classify(np.eye(16) + 10.0 * np.triu(np.ones((16, 16)), 1))
        assert calls == [(16, 16)]

    @pytest.mark.parametrize("m, cls", [
        (_rational.to_floats(_rational.EXAMPLE1), "Nekrasov with positive diagonal"),
        (_rational.to_floats(_rational.EXAMPLE3), "B-Nekrasov"),
        ([[1.0, 2.0], [2.0, 1.0]], None),
        ([[2.0]], "Nekrasov with positive diagonal"),
        ([[-2.0]], None),
    ])
    def test_p_class_is_the_route_class(self, m, cls):
        route = bnekrasov._profiles(m).route
        assert (route is None) == (cls is None)
        assert route is None or route.p_class == cls

    @given(n=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["nekrasov", "bnekrasov", "perturbed"]))
    @settings(max_examples=60, deadline=None)
    def test_class_agrees_with_enumeration(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        m = (random_nekrasov(n, rng) if kind == "nekrasov" or n == 1
             else random_bnekrasov(n, rng))
        if kind == "perturbed":
            # Scaled off-diagonal entries can leave both classes, and P.
            m = m * np.where(np.eye(n, dtype=bool), 1.0, rng.uniform(0.0, 3.0, (n, n)))
        # classify reads class inputs by class, any other by the recursion.
        by_class = classify(m).is_p_matrix
        assert by_class is lcp.is_p_matrix(m)
        if kind != "perturbed":
            assert by_class is True

    def test_sdd_boundary_is_not_sdd(self):
        # Row 1's margin 1 - 0.999999999999 sits at the 1e-12 threshold.  Its
        # SDD margin and its Nekrasov margin 1 - h_1 read one rounded sum.
        report = classify([[1.0, -0.999999999999], [-0.1, 1.0]])
        assert not report.is_sdd and not report.is_nekrasov
        assert not report.is_b_matrix and not report.is_b_nekrasov

    def test_sdd_reads_the_off_diagonal_sum(self):
        # |m_ii| + |m_ij| passes the float range; |m_ij| = 1e307 does not.
        report = classify([[1.7e308, 1e307], [1e307, 1.7e308]])
        assert report.is_sdd and report.is_nekrasov and report.is_b_matrix

    def test_sdd_is_nekrasov_and_b_is_b_nekrasov(self):
        # The generators, and three matrices per t at the 1e-12 boundary:
        # M with B+ = M, one whose B+ row 1 is (1, -t', 0), and one whose
        # row 1 splits t in two.
        rng = np.random.default_rng(30)
        inputs = [make(n, rng) for n in range(2, 9) for make in (random_nekrasov, random_bnekrasov)
                  for _ in range(200)]
        for t in 1.0 - 1e-12 + np.arange(-2000, 2001) * 2.0**-53:
            inputs += [np.array([[1.0, -t], [-0.1, 1.0]]),
                       np.array([[1.5, 0.5 - t, 0.5], [-0.1, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                       np.array([[1.0, -t / 2, -t / 2], [-0.1, 1.0, 0.0], [0.0, -0.1, 1.0]])]
        assert len(inputs) == 14803
        for m in inputs:
            report = classify(m)
            assert report.is_nekrasov or not report.is_sdd
            assert report.is_b_nekrasov or not report.is_b_matrix


_integer_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                       min_size=n, max_size=n)
)


class TestHMatrix:
    """``is_h_matrix`` is the exact test on ``<M>`` at every scale; an
    absolute tolerance on ``<M>^{-1}`` would pass any matrix scaled by 1e13."""

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
    def test_not_h_at_any_scale(self, scale):
        report = classify(scale * np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not report.is_h_matrix
        assert "singular" not in report.notes

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
    def test_singular_comparison_matrix(self, scale):
        report = classify(scale * np.array([[1.0, -1.0], [1.0, 1.0]]))
        assert not report.is_h_matrix
        assert "comparison matrix is singular" in report.notes

    @given(_integer_matrices, st.sampled_from([1e-13, 1.0, 1e13]),
           st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_test(self, rows, scale, exponents):
        # Rows scaled by 10**U(-3, 3), as well as the whole matrix.
        m = np.array(rows, dtype=float)
        m *= scale * 10.0 ** np.array(exponents[: len(m)])[:, None]
        exact = [[F(float(v)) for v in row] for row in m]
        want = _rational.is_h_matrix_exact(exact, F(1.0 / PIVOT_RTOL))
        assert classify(m).is_h_matrix is want

    @given(st.integers(1, 7), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_nekrasov_is_h_by_class(self, n, seed, nekrasov_input):
        # A Nekrasov input, with diagonals of either sign, or a B-Nekrasov one
        # built as B + r 1^T from a Nekrasov Z-matrix B with a zero in each row,
        # mostly not H; rows scaled by 2**k.  Nekrasov inputs are H with no
        # solve; the others get the exact test's verdict.
        rng = np.random.default_rng(seed)
        if nekrasov_input:
            m = random_nekrasov(n, rng)
            m[np.diag_indices(n)] *= rng.choice([-1.0, 1.0], n)
        else:
            n = max(n, 2)
            b = -np.abs(random_nekrasov(n, rng))
            b[np.arange(n), np.arange(1, n + 1) % n] = 0.0
            np.fill_diagonal(b, -np.diag(b))
            m = b + rng.uniform(0.0, 3.0, (n, 1)) * np.diag(b)[:, None]
        m *= 2.0 ** rng.integers(-60, 61, (n, 1))
        report = classify(m)
        assert report.is_nekrasov == nekrasov.is_nekrasov(m).is_nekrasov
        if report.is_nekrasov:
            assert report.is_h_matrix is True and "singular" not in report.notes
        else:
            exact = [[F(float(v)) for v in row] for row in m]
            assert report.is_b_nekrasov
            assert report.is_h_matrix is _rational.is_h_matrix_exact(exact, F(1.0 / PIVOT_RTOL))

    def test_condition_of_the_row_scaled_comparison_matrix(self):
        # M = <M> = [[1, -(1 - 1e-10)], [-1, 1]] has condition number about
        # 4e10; rows at 10**U(-3, 3) take that of the unscaled M past
        # 1 / PIVOT_RTOL on some draws, where the reference reads the row-scaled one.
        rng = np.random.default_rng(41)
        base = np.array([[1.0, -(1.0 - 1e-10)], [-1.0, 1.0]])
        apart = 0
        for _ in range(20):
            m = 10.0 ** rng.uniform(-3.0, 3.0, (2, 1)) * base
            exact = [[F(float(v)) for v in row] for row in m]
            assert classify(m).is_h_matrix
            assert _rational.is_h_matrix_exact(exact, F(1.0 / PIVOT_RTOL))
            apart += inf_norm(m) * inf_norm(np.linalg.inv(m)) > 1.0 / PIVOT_RTOL
        assert apart > 0


_FLAGS = ("is_sdd", "is_z_matrix", "is_nekrasov", "is_b_matrix", "is_b_nekrasov",
          "is_h_matrix", "is_p_matrix")


def _flags(m):
    report = classify(m)
    return {name: getattr(report, name) for name in _FLAGS}


def _reasons(m):
    return [(r.applicable, r.reason) for r in all_bounds(m) + [kolotilina_bound(m)]]


@st.composite
def _class_inputs(draw):
    """A Nekrasov, B-Nekrasov, perturbed or uniform random input, with its
    rows at 10**U(-3, 3) on half the draws."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["nekrasov", "bnekrasov", "perturbed", "uniform"]))
    if kind == "uniform":
        m = rng.uniform(-1.0, 1.0, (n, n)) + rng.uniform(0.0, 3.0) * np.eye(n)
    else:
        m = random_nekrasov(n, rng) if kind == "nekrasov" or n == 1 else random_bnekrasov(n, rng)
    if kind == "perturbed":
        m = m * np.where(np.eye(n, dtype=bool), 1.0, rng.uniform(0.0, 3.0, (n, n)))
    if draw(st.booleans()):
        m = m * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
    return m, rng


class TestScaleInvariance:
    """Every class is invariant under positive scaling of ``M`` and of each
    of its rows, and powers of two scale exactly, so no flag may change."""

    @given(_class_inputs())
    @settings(max_examples=80, deadline=None)
    def test_flags_under_global_powers_of_two(self, case):
        m, _ = case
        flags = _flags(m)
        for k in (-200, -44, 44, 200):
            assert _flags(2.0**k * m) == flags, k

    @given(_class_inputs())
    @settings(max_examples=80, deadline=None)
    def test_flags_under_row_powers_of_two(self, case):
        m, rng = case
        flags = _flags(m)
        for _ in range(3):
            assert _flags(2.0 ** rng.integers(-40, 41, (len(m), 1)) * m) == flags

    @given(_class_inputs())
    @settings(max_examples=80, deadline=None)
    def test_bound_reasons_under_powers_of_two(self, case):
        # A bound's value is not scale-invariant; only reason Overflow may come or go.
        m, rng = case
        reasons = _reasons(m)
        rows = [2.0 ** rng.integers(-40, 41, (len(m), 1)) for _ in range(2)]
        for scale in [2.0**k for k in (-200, -44, 44, 200)] + rows:
            for old, new in zip(reasons, _reasons(scale * m)):
                if "Overflow" not in (old[1], new[1]):
                    assert new == old, scale

    @given(n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["nekrasov", "bnekrasov"]))
    @settings(max_examples=60, deadline=None)
    def test_row_scaled_class_members_are_p(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        m = random_nekrasov(n, rng) if kind == "nekrasov" else random_bnekrasov(n, rng)
        report = classify(10.0 ** rng.uniform(-3.0, 3.0, (n, 1)) * m)
        if kind == "nekrasov":
            assert report.is_nekrasov and report.is_h_matrix
        else:
            assert report.is_b_nekrasov
        assert report.is_p_matrix is True

    def test_tiny_diagonal_is_a_divisor(self):
        # 5e-310 is subnormal: 1 / 5e-310 is +inf, which only the bounds see.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flags = _flags([[5e-310, 0.0], [1.0, 1.0]])
        assert flags == {"is_sdd": False, "is_z_matrix": False, "is_nekrasov": True,
                         "is_b_matrix": False, "is_b_nekrasov": False,
                         "is_h_matrix": True, "is_p_matrix": True}


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

    def test_zero_last_diagonal_of_bplus_has_no_interval(self):
        # B+ = [[1, 0], [0, 0]]
        with pytest.raises(ZeroDiagonal) as exc:
            bnekrasov.epsilon_interval_upper([[2.0, 1.0], [1.0, 1.0]])
        assert exc.value.index == 2


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

    # Both classes, a zeroed diagonal entry, n = 1, negated inputs, rows at
    # 10**U(-300, 300) on half the draws, and a row whose absolute sum passes
    # the float range (one entry repeated, so that B+ stays finite).
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["nekrasov", "bnekrasov", "zero_diagonal", "overflow"]),
           negate=st.booleans(), scaled=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_epsilon_only_where_the_class_check_passes(self, n, seed, kind, negate, scaled):
        rng = np.random.default_rng(seed)
        m = random_bnekrasov(n, rng) if kind == "bnekrasov" and n > 1 else random_nekrasov(n, rng)
        if kind == "zero_diagonal":
            i = rng.integers(n)
            m[i, i] = 0.0
        if scaled:
            m *= 10.0 ** rng.uniform(-300.0, 300.0, (n, 1))
        if kind == "overflow":
            m[rng.integers(n)] = rng.choice([1e308, -1e308])
        if negate:
            m = -m
        p = bnekrasov._profiles(m)
        routes = (p.m_route, p.m_route, p.b_route, p.b_route)
        for route in routes[::2]:
            if route.fault is None:
                assert 0.0 < route.upper <= 1.0
                assert route.gp(None).epsilon in (None, route.upper / 2.0)
        for route, report in zip(routes, all_bounds(m)):
            assert report.epsilon is None or route.fault is None


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
