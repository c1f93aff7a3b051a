import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcpbounds
from lcpbounds import bnekrasov, nekrasov
from lcpbounds.errors import DomainError, SingularMatrix
from lcpbounds.linalg import (
    _inverse_stack,
    _row_scaled,
    _well_conditioned,
    as_matrix,
    as_vector,
    comparison_matrix,
    inf_norm,
    inverse,
)


class TestValidation:
    def test_rejects_rectangular(self):
        with pytest.raises(DomainError):
            as_matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            as_matrix([[1.0, np.nan], [0.0, 1.0]])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            as_matrix(np.zeros((0, 0)))

    def test_vector_rejects_matrix(self):
        with pytest.raises(DomainError):
            as_vector([[1.0, 2.0]])

    def test_vector_rejects_inf(self):
        with pytest.raises(DomainError):
            as_vector([1.0, np.inf])


class TestInverse:
    def test_identity(self):
        np.testing.assert_array_equal(inverse(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_allclose(inverse([[2.0, 0.0], [0.0, 4.0]]),
                                   [[0.5, 0.0], [0.0, 0.25]])

    def test_unit_upper_triangular(self):
        np.testing.assert_allclose(inverse([[1.0, 1.0], [0.0, 1.0]]),
                                   [[1.0, -1.0], [0.0, 1.0]])

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            inverse([[1.0, 1.0], [1.0, 1.0]])

    def test_ill_conditioned_raises(self):
        # LAPACK inverts this without complaint; the condition check refuses.
        with pytest.raises(SingularMatrix):
            inverse([[1.0, 1.0], [1.0, 1.0 + 1e-15]])

    def test_random_inverse_residual(self):
        rng = np.random.default_rng(7)
        for n in range(2, 11):
            for _ in range(10):
                a = rng.uniform(-1.0, 1.0, (n, n)) + 2 * n * np.eye(n)
                assert inf_norm(inverse(a) @ a - np.eye(n)) < 1e-8

    def test_matches_numpy(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-1.0, 1.0, (6, 6)) + 12 * np.eye(6)
        np.testing.assert_allclose(inverse(a), np.linalg.inv(a), rtol=1e-10, atol=1e-12)


# Each public entry point that takes a matrix, called on example 1 below.
# Only norm_at_d takes a second copy: inverse validates the member it builds.
_ENTRY_POINTS = {
    **{name: getattr(lcpbounds, name) for name in (
        "all_bounds", "bplus_decompose", "classify", "is_b_nekrasov", "new_bnekrasov_bound",
        "is_p_matrix", "comparison_matrix", "inverse", "eta_vector", "h_vector", "z_vector",
        "is_nekrasov", "kolotilina_bound", "new_nekrasov_bound", "lemma_property_suite",
        "oracle_max_norm")},
    "gp_nekrasov_bound": lambda m: lcpbounds.gp_nekrasov_bound(m, 0.1),
    "gp_bnekrasov_bound": lambda m: lcpbounds.gp_bnekrasov_bound(m, 0.1),
    "nekrasov.epsilon_interval_upper": nekrasov.epsilon_interval_upper,
    "bnekrasov.epsilon_interval_upper": bnekrasov.epsilon_interval_upper,
    "LcpInstance": lambda m: lcpbounds.LcpInstance(m, [-1.0] * 4),
    "scaled_matrix": lambda m: lcpbounds.scaled_matrix(m, np.ones(4)),
    "norm_at_d": lambda m: lcpbounds.norm_at_d(m, np.ones(4)),
}


@pytest.mark.parametrize("name", _ENTRY_POINTS)
def test_entry_point_copies_its_input_once(monkeypatch, ex1, name):
    original, calls = as_matrix, []

    def counted(a):
        calls.append(np.shape(a))
        return original(a)

    for module in vars(lcpbounds).values():
        if getattr(module, "as_matrix", None) is original:
            monkeypatch.setattr(module, "as_matrix", counted)
    _ENTRY_POINTS[name](ex1)
    assert calls == [(4, 4)] * (2 if name == "norm_at_d" else 1)


@st.composite
def mixed_stacks(draw):
    """Stacks of integer matrices in {-2..2}, some with a zero row (exactly
    singular) and some with one tiny diagonal entry (ill-conditioned)."""
    n = draw(st.integers(1, 4))
    members = []
    for _ in range(draw(st.integers(1, 6))):
        entries = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
        a = np.array(entries, dtype=float).reshape(n, n)
        kind = draw(st.sampled_from(["integer", "zero_row", "ill_conditioned"]))
        if kind == "zero_row":
            a[draw(st.integers(0, n - 1))] = 0.0
        elif kind == "ill_conditioned":
            a = np.eye(n)
            a[-1, -1] = 1e-15
        members.append(a)
    return np.stack(members)


class TestInverseStack:
    """The stacked inverse flags exactly the members ``inverse`` rejects, and
    inverts the others bit for bit as ``inverse`` does."""

    @given(mixed_stacks())
    @settings(max_examples=300, deadline=None)
    def test_ok_matches_inverse(self, stack):
        inv, inv_norms, ok = _inverse_stack(stack)
        for k, a in enumerate(stack):
            try:
                expected = inverse(a)
            except SingularMatrix:
                assert not ok[k]
                continue
            assert ok[k]
            np.testing.assert_array_equal(inv[k], expected)
            assert inv_norms[k] == inf_norm(expected)

    def test_empty_members(self):
        inv, inv_norms, ok = _inverse_stack(np.zeros((1, 0, 0)))
        assert inv.shape == (1, 0, 0)
        assert inv_norms.tolist() == [0.0] and ok.tolist() == [True]

    # Warnings are errors in this suite (pyproject.toml), so each case below
    # also checks that nothing is warned.
    def test_condition_number_past_the_float_range_is_singular(self):
        assert not _well_conditioned(1e200, 1e200)
        assert not _well_conditioned(np.array([1e200]), np.array([1e200]))[0]
        assert not _inverse_stack(np.diag([1e200, 1e-200])[None])[2][0]

    def test_zero_pivot_fallback(self):
        # The zero member fails the stacked inverse; the other member's
        # factorization then meets log(0) in slogdet.
        a = np.array([[0.5, 0.0, -1e13], [-1e-13, 0.0, -1.0], [1e13, 1e-300, 0.0]])
        _, _, ok = _inverse_stack(np.stack([np.zeros((3, 3)), a, np.eye(3)]))
        assert ok.tolist() == [False, False, True]


class TestInfNorm:
    def test_max_abs_row_sum(self):
        assert inf_norm([[1.0, -2.0], [3.0, 4.0]]) == 7.0

    def test_identity(self):
        assert inf_norm(np.eye(5)) == 1.0

    def test_zero(self):
        assert inf_norm(np.zeros((3, 3))) == 0.0

    def test_vector(self):
        assert inf_norm([1.0, -3.0, 2.0]) == 3.0

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=200)
    def test_absolutely_homogeneous(self, c):
        a = np.array([[1.0, -2.0, 0.5], [3.0, 4.0, -1.0], [0.0, 0.25, -2.5]])
        assert inf_norm(c * a) == pytest.approx(abs(c) * inf_norm(a), rel=1e-12, abs=1e-300)


class TestRowScaled:
    def test_rows_land_in_one_to_two(self):
        rng = np.random.default_rng(43)
        a = rng.uniform(-1.0, 1.0, (6, 5)) * 10.0 ** rng.uniform(-300.0, 300.0, (6, 1))
        a[0] = [5e-310, 0.0, -1e-320, 0.0, 0.0]  # subnormal row
        a[1] = 0.0
        a[2] = [-2.0**700, 1.0, 0.5, 3.0 * 2.0**690, 0.0]  # a power of two lands on 1
        scaled = _row_scaled(a)
        top = np.abs(scaled).max(axis=1)
        assert top[1] == 0.0 and top[2] == 1.0
        assert np.all((top[[0, 2, 3, 4, 5]] >= 1.0) & (top[[0, 2, 3, 4, 5]] < 2.0))
        # Exact: every entry keeps its mantissa, and each row's exponents
        # all move by one amount.
        (m0, e0), (m1, e1) = np.frexp(a), np.frexp(scaled)
        np.testing.assert_array_equal(m1, m0)
        shift = np.where(a != 0.0, e1 - e0, 0)
        assert all(len(set(row[a_row != 0.0])) == 1 for row, a_row in zip(shift, a) if a_row.any())


class TestComparisonMatrix:
    def test_z_matrix_unchanged(self):
        a = np.array([[2.0, -1.0], [-1.0, 2.0]])
        np.testing.assert_array_equal(comparison_matrix(a), a)

    def test_absolute_values(self):
        np.testing.assert_array_equal(comparison_matrix([[-2.0, 1.0], [1.0, -2.0]]),
                                      [[2.0, -1.0], [-1.0, 2.0]])

    def test_identity(self):
        np.testing.assert_array_equal(comparison_matrix(np.eye(3)), np.eye(3))

    def test_idempotent_on_z_with_nonnegative_diagonal(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a = -rng.uniform(0.0, 1.0, (n, n))
            np.fill_diagonal(a, rng.uniform(0.0, 3.0, n))
            c = comparison_matrix(a)
            np.testing.assert_array_equal(c, a)
            np.testing.assert_array_equal(comparison_matrix(c), c)
