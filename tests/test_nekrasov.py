import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _rational
from lcpbounds.errors import DimensionMismatch, DomainError, ZeroDiagonal
from lcpbounds.linalg import inf_norm, inverse
from lcpbounds.nekrasov import (
    Theorem,
    _profile,
    _scaled,
    epsilon_interval_upper,
    eta_vector,
    gp_nekrasov_bound,
    h_vector,
    is_nekrasov,
    kolotilina_bound,
    new_nekrasov_bound,
    scaled_matrix,
    z_vector,
)

F = Fraction


class TestHVector:
    def test_example1(self, ex1):
        # frozen from the exact rational recursion: (11/10, 311/500, 2411/10000, 12787/37500)
        expected = [11 / 10, 311 / 500, 2411 / 10000, 12787 / 37500]
        np.testing.assert_allclose(h_vector(ex1), expected, rtol=1e-12)
        np.testing.assert_allclose(h_vector(ex1), [1.1000, 0.6220, 0.2411, 0.3410], atol=5e-5)

    def test_matches_exact_recursion(self, ex1, ex2):
        for m, frac in ((ex1, _rational.EXAMPLE1), (ex2, _rational.EXAMPLE2)):
            expected = [float(v) for v in _rational.h_exact(frac)]
            np.testing.assert_allclose(h_vector(m), expected, rtol=1e-12)

    def test_diagonal_matrix(self):
        np.testing.assert_array_equal(h_vector(np.diag([2.0, -3.0, 0.5])), np.zeros(3))

    def test_zero_diagonal_raises_when_needed(self):
        with pytest.raises(ZeroDiagonal) as exc:
            h_vector([[0.0, 1.0], [1.0, 1.0]])
        assert exc.value.index == 1

    def test_zero_diagonal_ignored_when_column_empty(self):
        # nothing below the zero pivot uses it as a divisor
        np.testing.assert_array_equal(h_vector([[0.0, 1.0], [0.0, 1.0]]), [1.0, 0.0])

    def test_tiny_diagonal_is_a_divisor(self):
        # Only 0.0 is a zero divisor; a tiny one gives the IEEE quotient, +inf
        # where it passes the float range, with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(h_vector([[1e-301, 1.0], [1.0, 1.0]]),
                                          [1.0, 1.0 / 1e-301])
            np.testing.assert_array_equal(h_vector([[5e-310, 1.0], [1.0, 1.0]]), [1.0, np.inf])
            np.testing.assert_array_equal(z_vector([[5e-310, 0.0], [1.0, 1.0]]), [1.0, np.inf])


# Exact in binary and not, positive and negative, with zeros drawn often so
# that zero diagonals, used or not, are common.
_ENTRIES = st.sampled_from([0.0, 0.0, 0.0, 1.0, -1.0, 0.5, -0.25, 2.0, 0.1, -3.7])


@st.composite
def stacks(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 9))
    flat = draw(st.lists(_ENTRIES, min_size=k * n * n, max_size=k * n * n))
    return np.array(flat).reshape(k, n, n)


@st.composite
def families(draw):
    """A matrix and a ``(k, n)`` array of scalings with entries 0, 1 or uniform."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 9))
    m = draw(st.lists(_ENTRIES, min_size=n * n, max_size=n * n))
    # Bounded away from the subnormals, whose products with the entries lose
    # the digits the exact comparison needs.
    scales = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-100, 1.0))
    ds = draw(st.lists(scales, min_size=k * n, max_size=k * n))
    return np.array(m).reshape(n, n), np.array(ds).reshape(k, n)


def first_used_zero(rows):
    """0-based (row, column) of the first zero divisor that a nonzero entry
    below it uses, in row-major order, or None."""
    for i, row in enumerate(rows):
        for j in range(i):
            if row[j] != 0 and rows[j][j] == 0:
                return i, j
    return None


def assert_exact_where_finite(member, h, z, eta):
    """``h``, ``z`` and ``eta`` match the exact recursions of ``member`` up
    to its first used zero divisor and are +inf from there on; returns that
    divisor as ``first_used_zero`` does."""
    n = member.shape[0]
    rows = [[F(v) for v in row] for row in member]
    used = first_used_zero(rows)
    cut = n if used is None else used[0]
    # Rows from the cut on get zero rows, so the exact recursion never
    # divides by zero and its first ``cut`` values are unchanged.
    prefix = rows[:cut] + [[F(0)] * n for _ in range(n - cut)]
    for values, exact in ((h, _rational.h_exact), (z, _rational.z_exact),
                          (eta, _rational.eta_exact)):
        assert np.all(np.isfinite(values[:cut]))
        assert np.all(np.isinf(values[cut:]))
        expected = [float(v) for v in exact(prefix)[:cut]]
        np.testing.assert_allclose(values[:cut], expected, rtol=1e-12, atol=0.0)
    return used


class TestRecursionKernel:
    @given(families())
    @settings(max_examples=200, deadline=None)
    def test_family_matches_built_members(self, drawn):
        # Each member is built and profiled on its own: a zero scaling gives
        # a unit row, and zero divisors, used or not, reach the one-matrix path.
        m, ds = drawn
        for d in np.vstack([np.ones(m.shape[0]), ds]):
            member = _scaled(m, d)
            profile, bad, *_ = _profile(member)
            used = assert_exact_where_finite(member, profile.h, profile.z, profile.eta)
            assert bad == (0 if used is None else used[1] + 1)
            if used is not None:
                assert not profile.is_nekrasov

    @given(stacks())
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_recursions_where_finite(self, a):
        for member in a:
            profile = is_nekrasov(member)
            used = assert_exact_where_finite(member, profile.h, profile.z, profile.eta)
            if used is None:
                np.testing.assert_array_equal(h_vector(member), profile.h)
            else:
                assert not profile.is_nekrasov
                with pytest.raises(ZeroDiagonal) as exc:
                    h_vector(member)
                assert exc.value.index == used[1] + 1

    def test_first_used_zero_divisor_is_not_the_first_zero_diagonal(self):
        # Zero diagonals at positions 1 and 2.  Nothing below position 1
        # divides by it; row 3 divides by position 2.
        a = [[0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 5.0, 1.0]]
        for vector in (h_vector, z_vector, eta_vector):
            with pytest.raises(ZeroDiagonal) as exc:
                vector(a)
            assert exc.value.index == 2
        profile = is_nekrasov(a)
        assert not profile.is_nekrasov
        np.testing.assert_array_equal(profile.h, [2.0, 1.0, np.inf])
        np.testing.assert_array_equal(profile.z, [1.0, 1.0, np.inf])

    def test_rows_after_the_first_use_are_inf(self):
        # Row 2 divides by the zero at position 1; row 3 uses neither row
        # above it and is +inf all the same.
        a = [[0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(ZeroDiagonal) as exc:
            h_vector(a)
        assert exc.value.index == 1
        np.testing.assert_array_equal(is_nekrasov(a).eta, [1.0, np.inf, np.inf])

    def test_unused_zero_divisor(self):
        # Column 1 is zero below the zero diagonal entry, so no row divides by it.
        a = [[0.0, 1.0, 2.0], [0.0, 3.0, 1.0], [0.0, 1.0, 4.0]]
        np.testing.assert_allclose(z_vector(a), [1.0, 1.0, 4 / 3], rtol=1e-15)
        np.testing.assert_allclose(eta_vector(a), [1.0, 1.0, 2.0], rtol=1e-15)
        np.testing.assert_allclose(h_vector(a), [3.0, 1.0, 1 / 3], rtol=1e-15)
        profile = is_nekrasov(a)
        assert not profile.is_nekrasov
        # The ratio rows are +inf over the zero divisor only.
        np.testing.assert_array_equal(profile.ratios[:, 0], np.inf)
        np.testing.assert_array_equal(profile.ratios[:, 1:], [[1 / 3, (1 / 3) / 4],
                                                               [1 / 3, (4 / 3) / 4],
                                                               [1.0, 2.0 / 1.0]])


# Every used coefficient is at least 1 and every divisor at most 1, so a row
# past the float range makes every row that uses it pass it too, exactly as
# in float: the exact value of each row is then +inf or close to the float one.
_HUGE_ENTRIES = st.sampled_from([0.0, 0.0, 1.0, -1.0, 1e10, -1e10, 1e200, -1e200])
_SMALL_DIAGONAL = st.sampled_from([1.0, 0.5, 1e-299, -1e-299])
_FLOAT_MAX = F(float(np.finfo(float).max))


@st.composite
def overflowing(draw):
    """A matrix whose rows overflow, with zero entries, and ``(k, n)`` vertex scalings."""
    n = draw(st.integers(1, 6))
    m = np.array(draw(st.lists(_HUGE_ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(m, draw(st.lists(_SMALL_DIAGONAL, min_size=n, max_size=n)))
    k = draw(st.integers(1, 4))
    ds = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=k * n, max_size=k * n))
    return m, np.array(ds).reshape(k, n)


def exact_or_inf(values):
    """The exact recursion values, rounded to floats, +inf past the float range."""
    return [np.inf if v > _FLOAT_MAX else float(v) for v in values]


class TestOverflowingRows:
    """A zero entry, or a zero scaling, that meets a row past the float range
    contributes nothing: 0 * inf is not allowed to make the values nan."""

    def test_zero_entry_below_an_overflowed_row(self):
        a = [[1e-299, 0.0, 0.0], [1e10, 1.0, 0.0], [1.0, 0.0, 1.0]]
        # Row 2 uses row 0 (1e299) and not row 1 (1e309): the exact value is 1e299 + 1.
        np.testing.assert_array_equal(eta_vector(a), [1.0, np.inf, 1e299])
        np.testing.assert_array_equal(z_vector(a), [1.0, np.inf, 1e299])
        np.testing.assert_array_equal(h_vector(a), [0.0, 0.0, 0.0])

    @given(overflowing())
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_recursions(self, drawn):
        m, ds = drawn
        for member in [m] + [_scaled(m, d) for d in ds]:
            profile, *_ = _profile(member)
            rows = [[F(v) for v in row] for row in member]
            for got, exact in zip((profile.h, profile.z, profile.eta),
                                  (_rational.h_exact, _rational.z_exact, _rational.eta_exact)):
                np.testing.assert_allclose(got, exact_or_inf(exact(rows)), rtol=1e-12, atol=0.0)

class TestZVector:
    def test_diagonal(self):
        np.testing.assert_array_equal(z_vector(np.diag([4.0, 5.0, 6.0])), np.ones(3))

    def test_example2(self, ex2):
        # frozen from the exact recursion: (1, 3/2, 2, 13/5)
        np.testing.assert_allclose(z_vector(ex2), [1.0, 1.5, 2.0, 2.6], rtol=1e-12)
        exact = [float(v) for v in _rational.z_exact(_rational.EXAMPLE2)]
        np.testing.assert_allclose(z_vector(ex2), exact, rtol=1e-12)

    def test_bplus_of_example3(self, ex3):
        from lcpbounds.bnekrasov import bplus_decompose

        b = bplus_decompose(ex3).b_plus
        np.testing.assert_allclose(z_vector(b), [1.0, 1.0, 3.0, 1.75], rtol=1e-12)

    def test_entries_at_least_one(self, make_nekrasov):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = make_nekrasov(int(rng.integers(1, 8)), rng)
            assert np.all(z_vector(a) >= 1.0)


class TestEtaVector:
    def test_example1(self, ex1):
        np.testing.assert_allclose(eta_vector(ex1), [1.0, 1.1, 1.61, 3.128], rtol=1e-12)

    def test_example2_equals_z_for_unit_diagonal(self, ex2):
        np.testing.assert_allclose(eta_vector(ex2), [1.0, 1.5, 2.0, 2.6], rtol=1e-12)
        np.testing.assert_allclose(eta_vector(ex2), z_vector(ex2), rtol=1e-14)

    def test_diagonal_at_least_one(self):
        np.testing.assert_array_equal(eta_vector(np.diag([1.0, 2.5, 7.0])), np.ones(3))

    def test_dominates_z_for_positive_diagonal(self, make_nekrasov):
        rng = np.random.default_rng(29)
        for _ in range(20):
            a = make_nekrasov(int(rng.integers(2, 8)), rng)
            eta = eta_vector(a)
            assert np.all(eta >= 1.0)
            assert np.all(eta >= z_vector(a) - 1e-12)


class TestIsNekrasov:
    def test_example1(self, ex1):
        assert is_nekrasov(ex1).is_nekrasov

    def test_example3_is_not(self, ex3):
        assert not is_nekrasov(ex3).is_nekrasov

    def test_identity(self):
        profile = is_nekrasov(np.eye(5))
        assert profile.is_nekrasov
        np.testing.assert_array_equal(profile.h, np.zeros(5))
        np.testing.assert_array_equal(profile.z, np.ones(5))
        np.testing.assert_array_equal(profile.eta, np.ones(5))

    def test_zero_diagonal_is_not_nekrasov(self):
        assert not is_nekrasov([[0.0, 1.0], [1.0, 1.0]]).is_nekrasov

    def test_boundary_counts_as_failure(self):
        # margin exactly zero in row 1
        assert not is_nekrasov([[1.0, -1.0], [0.0, 1.0]]).is_nekrasov

    def test_first_row_h_is_offdiagonal_sum(self):
        rng = np.random.default_rng(31)
        a = rng.uniform(-1.0, 1.0, (5, 5))
        profile = is_nekrasov(a)
        assert profile.h[0] == pytest.approx(np.abs(a[0, 1:]).sum(), rel=1e-15)


class TestScaledMatrix:
    def test_all_ones_returns_m(self, ex1):
        np.testing.assert_array_equal(scaled_matrix(ex1, np.ones(4)), ex1)

    def test_all_zeros_returns_identity(self, ex1):
        np.testing.assert_array_equal(scaled_matrix(ex1, np.zeros(4)), np.eye(4))

    def test_halfway(self, ex1):
        mt = scaled_matrix(ex1, np.full(4, 0.5))
        assert mt[0, 0] == 0.5 + 0.5 * 5.0
        assert mt[0, 1] == pytest.approx(-0.1, rel=1e-15)

    @pytest.mark.parametrize("layout", [np.asfortranarray, np.transpose],
                             ids=["fortran", "transpose"])
    def test_any_memory_layout(self, ex1, layout):
        m = layout(ex1)
        np.testing.assert_array_equal(scaled_matrix(m, np.zeros(4)), np.eye(4))
        d = np.array([0.0, 0.25, 0.5, 1.0])
        np.testing.assert_array_equal(scaled_matrix(m, d),
                                      scaled_matrix(np.ascontiguousarray(m), d))

    def test_rejects_out_of_range(self, ex1):
        with pytest.raises(DomainError):
            scaled_matrix(ex1, [0.5, 0.5, 0.5, 1.5])
        with pytest.raises(DomainError):
            scaled_matrix(ex1, [-0.1, 0.5, 0.5, 0.5])

    def test_rejects_wrong_length(self, ex1):
        with pytest.raises(DimensionMismatch):
            scaled_matrix(ex1, [0.5, 0.5])


class TestKolotilinaBound:
    def test_identity(self):
        report = kolotilina_bound(np.eye(6))
        assert report.applicable and report.value == 1.0

    def test_example2_value(self, ex2):
        # frozen from the exact formula: max ratio is (3/2)/(1/10) = 15
        report = kolotilina_bound(ex2)
        assert report.value == pytest.approx(15.0, rel=1e-12)
        exact = float(_rational.kolotilina_exact(_rational.EXAMPLE2))
        assert report.value == pytest.approx(exact, rel=1e-12)

    def test_dominates_inverse_norm(self, ex1, ex2, make_nekrasov):
        rng = np.random.default_rng(37)
        matrices = [ex1, ex2] + [make_nekrasov(int(rng.integers(2, 8)), rng) for _ in range(20)]
        for a in matrices:
            report = kolotilina_bound(a)
            assert report.applicable
            assert inf_norm(inverse(a)) <= report.value * (1 + 1e-9)

    def test_not_applicable(self, ex3):
        report = kolotilina_bound(ex3)
        assert not report.applicable
        assert report.value is None
        assert report.reason == "NotNekrasov"


class TestGpNekrasovBound:
    def test_example2_zero_upper_row(self, ex2):
        report = gp_nekrasov_bound(ex2, 0.1)
        assert not report.applicable
        assert report.reason == "ZeroUpperRow(3)"

    def test_example1_w_diagonal(self, ex1):
        report = gp_nekrasov_bound(ex1, 0.3)
        assert report.applicable
        w = report.intermediates["w"]
        np.testing.assert_allclose(w, [0.2200, 0.3110, 0.1607, 0.2842 + 0.3], atol=5e-5)
        assert report.epsilon == 0.3

    def test_example1_interval_endpoints_rejected(self, ex1):
        upper = 1.0 - h_vector(ex1)[-1] / ex1[-1, -1]
        assert upper == pytest.approx(0.7158, abs=5e-5)
        for bad in (0.0, upper, upper + 0.1, -0.2):
            report = gp_nekrasov_bound(ex1, bad)
            assert not report.applicable
            assert report.reason == "EpsilonOutOfRange"

    def test_zero_last_diagonal_has_no_interval(self):
        with pytest.raises(ZeroDiagonal) as exc:
            epsilon_interval_upper([[1.0, 0.0], [0.0, 0.0]])
        assert exc.value.index == 2

    def test_example1_blows_up_near_zero(self, ex1):
        assert gp_nekrasov_bound(ex1, 1e-6).value > 1e5

    def test_matches_exact_formula(self, ex1):
        eps = F(3, 10)
        exact = float(_rational.gp_nekrasov_exact(_rational.EXAMPLE1, eps))
        assert gp_nekrasov_bound(ex1, float(eps)).value == pytest.approx(exact, rel=1e-12)

    def test_identity_has_zero_upper_rows(self):
        report = gp_nekrasov_bound(np.eye(3), 0.5)
        assert not report.applicable
        assert report.reason == "ZeroUpperRow(1)"

    def test_not_nekrasov(self, ex3):
        assert gp_nekrasov_bound(ex3, 0.1).reason == "NotNekrasov"

    def test_negative_diagonal(self):
        report = gp_nekrasov_bound([[-2.0, 1.0], [0.5, -2.0]], 0.1)
        assert report.reason == "NonPositiveDiagonal"

    def test_n1_not_applicable(self):
        report = gp_nekrasov_bound([[2.0]], 0.1)
        assert not report.applicable
        assert report.reason == "DimensionTooSmall"


class TestNewNekrasovBound:
    def test_example1(self, ex1):
        # frozen from the exact formula: (391/125) / (32213/37500) = 117300/32213
        report = new_nekrasov_bound(ex1)
        assert report.applicable
        assert report.value == pytest.approx(117300 / 32213, rel=1e-12)
        assert report.value == pytest.approx(3.6414, abs=5e-5)

    def test_example2(self, ex2):
        assert new_nekrasov_bound(ex2).value == pytest.approx(15.0, rel=1e-12)

    def test_matches_exact_formula(self, ex1, ex2, make_nekrasov):
        rng = np.random.default_rng(31)
        cases = [(ex1, _rational.EXAMPLE1), (ex2, _rational.EXAMPLE2)]
        for n in range(2, 9):
            m = make_nekrasov(n, rng)
            cases.append((m, [[F(float(v)) for v in row] for row in m]))
        for m, frac in cases:
            exact = float(_rational.new_nekrasov_exact(frac))
            assert new_nekrasov_bound(m).value == pytest.approx(exact, rel=1e-12)

    def test_identity(self):
        assert new_nekrasov_bound(np.eye(4)).value == 1.0

    def test_no_epsilon_dependence(self, ex1):
        report = new_nekrasov_bound(ex1)
        assert report.epsilon is None
        assert report.theorem is Theorem.NEW_NEKRASOV

    def test_unit_diagonal_matches_simplified_form(self, ex2):
        profile = is_nekrasov(ex2)
        simplified = np.max(profile.eta / (1.0 - profile.h))
        assert new_nekrasov_bound(ex2).value == pytest.approx(simplified, rel=1e-14)

    def test_n1(self):
        assert new_nekrasov_bound([[0.5]]).value == pytest.approx(2.0, rel=1e-15)
        assert new_nekrasov_bound([[4.0]]).value == 1.0

    def test_not_applicable_reasons(self, ex3):
        assert new_nekrasov_bound(ex3).reason == "NotNekrasov"
        assert new_nekrasov_bound([[-2.0, 1.0], [0.5, -2.0]]).reason == "NonPositiveDiagonal"

    def test_overflow_is_not_applicable(self):
        # Strictly diagonally dominant, so Nekrasov; eta_i = 21**(i-1) leaves
        # the float range at row 235, while h stays small.  No warning either.
        m = np.full((250, 250), -20.0)
        np.fill_diagonal(m, 5000.0)
        report = new_nekrasov_bound(m)
        assert (report.applicable, report.reason, report.value) == (False, "Overflow", None)
        assert np.isinf(is_nekrasov(m).eta[-1])
        assert kolotilina_bound(m).applicable


class TestScalingInequalities:
    """Sampled checks of the inequalities that make the bounds valid."""

    def test_scaled_family_stays_nekrasov_with_smaller_ratios(self, make_nekrasov):
        rng = np.random.default_rng(41)
        for _ in range(30):
            m = make_nekrasov(int(rng.integers(2, 8)), rng)
            profile = is_nekrasov(m)
            diag = np.diag(m)
            d = rng.random(m.shape[0])
            mt = scaled_matrix(m, d)
            mt_profile = is_nekrasov(mt)
            assert mt_profile.is_nekrasov
            np.testing.assert_array_less(
                mt_profile.h / np.diag(mt), profile.h / diag + 1e-12
            )
            np.testing.assert_array_less(mt_profile.z, profile.eta + 1e-12)
            np.testing.assert_array_less(
                mt_profile.z / np.diag(mt),
                profile.eta / np.minimum(diag, 1.0) + 1e-12,
            )

    def test_bounds_dominate_sampled_norms(self, make_nekrasov):
        rng = np.random.default_rng(43)
        for _ in range(15):
            m = make_nekrasov(int(rng.integers(2, 7)), rng)
            new = new_nekrasov_bound(m)
            assert new.applicable
            upper = 1.0 - h_vector(m)[-1] / m[-1, -1]
            gp = gp_nekrasov_bound(m, float(rng.uniform(0.05, 0.95)) * upper)
            for _ in range(10):
                norm = inf_norm(inverse(scaled_matrix(m, rng.random(m.shape[0]))))
                assert norm <= new.value * (1 + 1e-9)
                if gp.applicable:
                    assert norm <= gp.value * (1 + 1e-9)

    @given(
        st.floats(min_value=1e-6, max_value=1e3),
        st.floats(min_value=0.0, max_value=1e3),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=500)
    def test_scalar_scaling_inequalities(self, gamma, eta, x):
        denom = 1.0 - x + gamma * x
        assert 1.0 / denom <= (1.0 / min(gamma, 1.0)) * (1 + 1e-12)
        assert eta * x / denom <= (eta / gamma) * (1 + 1e-12) + 1e-300
