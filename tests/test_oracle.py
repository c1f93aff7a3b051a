import warnings
from itertools import chain, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_bnekrasov, random_nekrasov
from lcpbounds import bnekrasov, oracle
from lcpbounds.bnekrasov import bplus_decompose, new_bnekrasov_bound
from lcpbounds.errors import DimensionTooLarge, DomainError, PreconditionFailed, SingularMatrix
from lcpbounds.linalg import _inverse_stack, inf_norm, inverse
from lcpbounds.nekrasov import is_nekrasov, new_nekrasov_bound, scaled_matrix
from lcpbounds.oracle import lemma_property_suite, norm_at_d, oracle_max_norm


def pointwise_max_norm(m, interior_samples, seed):
    """Reference oracle: one ``norm_at_d`` per point, vertices in
    ``itertools.product`` order and then the seeded samples, strict ``>``."""
    n = m.shape[0]
    points = [np.array(bits) for bits in product((0.0, 1.0), repeat=n)]
    rng = np.random.Generator(np.random.Philox(key=seed))
    points += list(rng.random((interior_samples, n)))
    best, best_d = -np.inf, None
    for d in points:
        value = norm_at_d(m, d)
        if value > best:
            best, best_d = value, d
    return best, best_d


def chunked_pointwise_max_norm(m, interior_samples, seed):
    """Reference oracle, point by point: the vertices in binary order, then
    the samples in ``_scaling_chunks`` order; one ``scaled_matrix`` and one
    ``inverse`` per point, strict ``>``."""
    n = m.shape[0]
    chunk = max(1, oracle._CHUNK_ENTRIES // (n * n))
    vertices = np.array(list(product((0.0, 1.0), repeat=n)))
    best, best_d = -np.inf, None
    for ds in chain([vertices], oracle._scaling_chunks(n, interior_samples, seed, chunk)):
        for d in ds:
            value = inf_norm(inverse(scaled_matrix(m, d)))
            if value > best:
                best, best_d = value, d
    return best, best_d


def per_trial_suite(m, trials, seed):
    """Reference lemma suite: one member and one ``is_nekrasov`` per trial,
    violations by trial, then check, then row.  The ratios are over
    ``|a_ii|``, as the recursions divide."""
    profile = is_nekrasov(m)
    n = m.shape[0]
    diag = np.abs(np.diag(m))
    rhs = (profile.h / diag, profile.eta, profile.eta / np.minimum(diag, 1.0))
    rng = np.random.default_rng(seed)
    scalings = np.vstack([np.ones((1, n)), rng.random((trials, n))])
    violations = []
    for d in scalings:
        mt = scaled_matrix(m, d)
        mt_profile = is_nekrasov(mt)
        mt_diag = np.abs(np.diag(mt))
        lhs = (mt_profile.h / mt_diag, mt_profile.z, mt_profile.z / mt_diag)
        for check, left, right in zip(("h_ratio", "z_vs_eta", "z_ratio"), lhs, rhs):
            for i in np.nonzero(left > right + oracle._LEMMA_SLACK)[0]:
                violations.append((check, i + 1, list(d), left[i], right[i]))
        if not mt_profile.is_nekrasov:
            i = int(np.argmin(mt_profile.margins))
            violations.append(("nekrasov", i + 1, list(d), mt_profile.h[i], abs(mt_diag[i])))
    return scalings.shape[0], violations


def assert_same_report(report, reference):
    trials, violations = reference
    assert report.trials == trials
    assert len(report.violations) == len(violations)
    for got, (check, row, d, lhs, rhs) in zip(report.violations, violations):
        assert (got.check, got.row, list(got.d)) == (check, row, d)
        assert got.lhs == pytest.approx(lhs, rel=1e-12)
        assert got.rhs == pytest.approx(rhs, rel=1e-12)


class TestNormAtD:
    def test_zero_scaling_gives_identity(self, ex1):
        assert norm_at_d(ex1, np.zeros(4)) == 1.0

    def test_diagonal(self):
        assert norm_at_d(2.0 * np.eye(3), np.ones(3)) == 0.5

    def test_example2_full_scaling_is_inverse_norm(self, ex2):
        value = norm_at_d(ex2, np.ones(4))
        assert value == pytest.approx(inf_norm(inverse(ex2)), rel=1e-14)
        assert value <= 15.0 * (1 + 1e-9)


class TestOracleMaxNorm:
    def test_identity(self):
        est = oracle_max_norm(np.eye(3), interior_samples=50, seed=1)
        assert est.max_observed == 1.0
        assert est.vertex_count == 8
        assert est.interior_samples == 50

    def test_deterministic(self, ex1):
        a = oracle_max_norm(ex1, interior_samples=200, seed=42)
        b = oracle_max_norm(ex1, interior_samples=200, seed=42)
        assert a.max_observed == b.max_observed
        np.testing.assert_array_equal(a.argmax_d, b.argmax_d)

    def test_argmax_reproduces_max(self, ex1, ex3):
        for m in (ex1, ex3):
            est = oracle_max_norm(m, interior_samples=500, seed=42)
            assert norm_at_d(m, est.argmax_d) == pytest.approx(est.max_observed, rel=1e-12)

    def test_vertex_inclusion(self, ex1, ex2, ex3, ex4):
        for m in (ex1, ex2, ex3, ex4):
            est = oracle_max_norm(m, interior_samples=0, seed=42)
            assert est.max_observed >= max(1.0, inf_norm(inverse(m))) * (1 - 1e-12)

    def test_dominated_by_bounds(self, ex1, ex3):
        est1 = oracle_max_norm(ex1, interior_samples=2000, seed=42)
        assert est1.max_observed <= new_nekrasov_bound(ex1).value * (1 + 1e-9)
        est3 = oracle_max_norm(ex3, interior_samples=2000, seed=42)
        assert est3.max_observed <= new_bnekrasov_bound(ex3).value * (1 + 1e-9)

    def test_too_large(self):
        with pytest.raises(DimensionTooLarge):
            oracle_max_norm(np.eye(21), interior_samples=0, seed=1)

    def test_negative_samples_rejected(self, ex1):
        with pytest.raises(DomainError):
            oracle_max_norm(ex1, interior_samples=-1, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_philox_keys_rejected(self, ex1, seed):
        # The sample generator is keyed even when no sample is drawn.
        with pytest.raises(DomainError):
            oracle_max_norm(ex1, interior_samples=0, seed=seed)
        assert oracle_max_norm(ex1, interior_samples=0, seed=2**128 - 1).vertex_count == 16

    # The default chunk splits the 2500 samples in two; 48 entries make
    # chunks of three 4x4 members, so both vertices and samples span many.
    @pytest.mark.parametrize("chunk_entries", [oracle._CHUNK_ENTRIES, 48])
    def test_matches_pointwise_loop(self, ex1, ex2, ex3, ex4, monkeypatch, chunk_entries):
        monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", chunk_entries)
        # Not a P-matrix: an interior sample beats every vertex, so the
        # order of the draws matters too.
        non_p = np.array([[1.0, 2.0], [2.0, 1.0]])
        for m in (ex1, ex2, ex3, ex4, non_p):
            est = oracle_max_norm(m, interior_samples=2500, seed=42)
            best, best_d = pointwise_max_norm(m, 2500, 42)
            assert est.max_observed == pytest.approx(best, rel=1e-12)
            np.testing.assert_array_equal(est.argmax_d, best_d)

    # 9 entries make one 3x3 member per chunk, so every tie crosses chunks.
    @pytest.mark.parametrize("chunk_entries", [oracle._CHUNK_ENTRIES, 9])
    def test_tie_keeps_first_vertex(self, monkeypatch, chunk_entries):
        monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", chunk_entries)
        # Every vertex except all-ones has norm 1; the zero vector comes first.
        est = oracle_max_norm(2.0 * np.eye(3), interior_samples=0)
        assert est.max_observed == 1.0
        np.testing.assert_array_equal(est.argmax_d, np.zeros(3))
        # Norm 2 wherever d_0 or d_1 is 1; in binary order, with d_0 the
        # most significant bit, (0, 1, 0) is the first such vertex.
        est = oracle_max_norm(np.diag([0.5, 0.5, 2.0]), interior_samples=0)
        assert est.max_observed == 2.0
        np.testing.assert_array_equal(est.argmax_d, [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("m", [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0 + 1e-15]]])
    def test_singular_member_raises(self, m):
        # The all-ones vertex is M itself.
        with pytest.raises(SingularMatrix):
            oracle_max_norm(m, interior_samples=0)

    def test_member_norm_counts_off_diagonal_row_sums(self):
        # [[1, a], [0, 1]] and its inverse both have norm 1 + a, so the
        # condition number (1 + a)**2 passes 1 / PIVOT_RTOL between these a.
        est = oracle_max_norm([[1.0, 9.9e6], [0.0, 1.0]], interior_samples=0)
        assert est.max_observed == 1.0 + 9.9e6
        with pytest.raises(SingularMatrix):
            oracle_max_norm([[1.0, 1e7], [0.0, 1.0]], interior_samples=0)

    # The same block in a walked (trailing) or an anchored (leading) pair of
    # coordinates of I_6.
    @pytest.mark.parametrize("i", [4, 0])
    def test_pivot_rule_in_walked_and_anchored_coordinates(self, i):
        def block(a):
            m = np.eye(6)
            m[i, i + 1] = a
            return m

        # Past the walk's cap, far below 1 / PIVOT_RTOL: LAPACK decides.
        assert walk_every_vertex(block(9.9e6))[1].any()
        est = oracle_max_norm(block(9.9e6), interior_samples=0)
        assert est.max_observed == 1.0 + 9.9e6
        with pytest.raises(SingularMatrix):
            oracle_max_norm(block(1e7), interior_samples=0)

    # 48 entries split the walkers, the candidates and the samples into many
    # chunks, the last one short, so the reused member buffer is only partly
    # rewritten.  n = 9..11 has 32..128 walkers in one default chunk.
    @pytest.mark.parametrize("chunk_entries", [oracle._CHUNK_ENTRIES, 48])
    @pytest.mark.parametrize("n", range(1, 12))
    def test_bit_identical_to_pointwise_reference(self, monkeypatch, n, chunk_entries):
        monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", chunk_entries)
        rng = np.random.default_rng(n)
        general = rng.uniform(-1.0, 1.0, (n, n)) + np.diag(rng.uniform(0.5, 3.0, n))
        # Every member of I's family is I: a tie at every point, won by the first.
        for m in (random_nekrasov(n, rng), random_bnekrasov(max(n, 2), rng), general, np.eye(n)):
            best, best_d = chunked_pointwise_max_norm(m, 300, 7)
            est = oracle_max_norm(m, interior_samples=300, seed=7)
            assert est.max_observed == best
            np.testing.assert_array_equal(est.argmax_d, best_d)

    # Both classes that put M in P, on M (Nekrasov) and on B+ (B-Nekrasov),
    # with rows scaled by factors in 1e-3..1e3, which keeps each class.
    @given(n=st.integers(2, 7), matrix_seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from([random_nekrasov, random_bnekrasov]), scaled=st.booleans(),
           samples=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_interior_never_beats_vertices(self, n, matrix_seed, kind, scaled, samples, seed):
        rng = np.random.default_rng(matrix_seed)
        m = kind(n, rng)
        if scaled:
            m *= 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
        assert bnekrasov._profiles(m).p_class is not None
        vertices_only = oracle_max_norm(m, interior_samples=0).max_observed
        est = oracle_max_norm(m, interior_samples=samples, seed=seed)
        assert est.max_observed == pytest.approx(vertices_only, rel=1e-12)


def walk_every_vertex(m):
    """The walked norms of every vertex of ``m`` in binary order, and a mask
    of the vertices whose walker is flagged."""
    n = m.shape[0]
    w = max(0, min(oracle._WALK_BITS, n - oracle._WALK_BITS))
    walked, flagged = oracle._walk(m, np.arange(2 ** (n - w)), w)
    return walked.ravel(), np.repeat(flagged, 2**w)


class TestVertexWalk:
    # Rows i and i + 1 are equal at d_i = d_i+1 = 1.  Coordinates 4 and 5 are
    # walked: every anchor is nonsingular and every walker meets a singular
    # member, with a zero Sherman-Morrison denominator.  Coordinates 0 and 1
    # are anchored: LAPACK finds an exact zero pivot in a quarter of the anchors.
    @pytest.mark.parametrize("i, share", [(4, 1.0), (0, 0.25)])
    def test_singular_member_flags_its_walker(self, i, share):
        m = np.eye(6)
        m[i, i + 1] = m[i + 1, i] = 1.0
        assert walk_every_vertex(m)[1].mean() == share
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrix):
                oracle_max_norm(m, interior_samples=0)

    def test_stacks_stay_within_the_entry_bound(self, monkeypatch):
        # Three 9x9 members per chunk.  Every vertex of I's family ties, so
        # all 512 are evaluated again, in chunks of three.
        monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", 3 * 81)
        sizes = []

        def recording(stack, norms=None):
            sizes.append(stack.size)
            return _inverse_stack(stack, norms)

        monkeypatch.setattr(oracle, "_inverse_stack", recording)
        est = oracle_max_norm(np.eye(9), interior_samples=10)
        assert est.max_observed == 1.0
        np.testing.assert_array_equal(est.argmax_d, np.zeros(9))
        assert max(sizes) == 3 * 81

    @pytest.mark.parametrize("n", [1, 4, 5, 9])
    def test_cap_zero_sends_every_walker_to_lapack(self, monkeypatch, n):
        monkeypatch.setattr(oracle, "_WALK_COND_CAP", 0.0)
        rng = np.random.default_rng(n)
        for m in (random_nekrasov(n, rng), random_bnekrasov(max(n, 2), rng)):
            assert walk_every_vertex(m)[1].all()
            best, best_d = chunked_pointwise_max_norm(m, 0, 7)
            est = oracle_max_norm(m, interior_samples=0, seed=7)
            assert est.max_observed == best
            np.testing.assert_array_equal(est.argmax_d, best_d)

    @given(n=st.integers(1, 11), kind=st.sampled_from(["nekrasov", "b_nekrasov", "general"]),
           matrix_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_walked_norms_match_lapack(self, n, kind, matrix_seed):
        rng = np.random.default_rng(matrix_seed)
        if kind == "nekrasov":
            m = random_nekrasov(n, rng)
        elif kind == "b_nekrasov":
            m = random_bnekrasov(max(n, 2), rng)
        else:
            m = rng.uniform(-1.0, 1.0, (n, n)) + np.diag(rng.uniform(0.5, 3.0, n) + n / 2)
        walked, flagged = walk_every_vertex(m)
        assert not flagged.any()
        lapack = [norm_at_d(m, np.array(d)) for d in product((0.0, 1.0), repeat=m.shape[0])]
        np.testing.assert_allclose(walked, lapack, rtol=1e-12, atol=0.0)


class TestLemmaSuite:
    def test_example1_clean(self, ex1):
        report = lemma_property_suite(ex1, trials=300, seed=3)
        assert report.clean
        assert report.trials == 301  # includes the forced all-ones trial

    def test_diagonal_matrix_clean(self):
        report = lemma_property_suite(3.0 * np.eye(4), trials=50, seed=3)
        assert report.clean

    def test_bplus_of_example3_clean(self, ex3):
        report = lemma_property_suite(bplus_decompose(ex3).b_plus, trials=300, seed=3)
        assert report.clean

    def test_builds_no_members(self, ex1, monkeypatch):
        # The members are profiled from the rows of M; only the oracle's
        # inverses need them built.
        def refuse(m, d):
            raise AssertionError("a member was built")

        monkeypatch.setattr(oracle, "_scaled", refuse)
        report = lemma_property_suite(ex1, trials=300, seed=3)
        assert report.clean
        assert report.trials == 301

    def test_precondition(self, ex3):
        with pytest.raises(PreconditionFailed):
            lemma_property_suite(ex3, trials=10, seed=0)
        with pytest.raises(PreconditionFailed):
            lemma_property_suite([[-2.0, 0.5], [0.5, -2.0]], trials=10, seed=0)

    def test_negative_trials_or_seed_rejected(self, ex1):
        with pytest.raises(DomainError):
            lemma_property_suite(ex1, trials=-1, seed=0)
        with pytest.raises(DomainError):
            lemma_property_suite(ex1, trials=10, seed=-1)

    # 48 entries make chunks of three 4x4 members.
    @pytest.mark.parametrize("chunk_entries", [oracle._CHUNK_ENTRIES, 48])
    @pytest.mark.parametrize("slack", [oracle._LEMMA_SLACK, -0.05])
    def test_fixtures_match_per_trial_loop(self, ex1, ex2, ex3, ex4, monkeypatch,
                                           chunk_entries, slack):
        # A negative slack flags most rows, so the order of the report is tested too.
        monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", chunk_entries)
        monkeypatch.setattr(oracle, "_LEMMA_SLACK", slack)
        for m in (ex1, ex2, bplus_decompose(ex3).b_plus, bplus_decompose(ex4).b_plus):
            report = lemma_property_suite(m, trials=300, seed=5)
            assert_same_report(report, per_trial_suite(m, 300, 5))
            assert report.clean == (slack > 0)

    @pytest.mark.parametrize("slack", [oracle._LEMMA_SLACK, -0.05])
    def test_random_n11_spans_four_chunks(self, monkeypatch, slack):
        # 32768 // 11**2 = 270 members per chunk: the 1001 trials take four.
        assert -(-1001 // (oracle._CHUNK_ENTRIES // 121)) == 4
        # The suite's chunks hold _CHUNK_ENTRIES // (3 n) members (992 here),
        # so the entry bound is set to give the same 270.
        monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", 3 * 11 * 270)
        monkeypatch.setattr(oracle, "_LEMMA_SLACK", slack)
        rng = np.random.default_rng(11)
        for _ in range(3):
            m = random_nekrasov(11, rng)
            report = lemma_property_suite(m, trials=1000, seed=42)
            assert_same_report(report, per_trial_suite(m, 1000, 42))

    def test_failed_nekrasov_check_matches_per_trial_loop(self, monkeypatch):
        # Nekrasov, but its first diagonal entry is negative, so the members'
        # diagonal 1 - 3 d_1 crosses zero and many of them are not Nekrasov.
        # Lifting the precondition exercises every check of the suite.
        monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", 12)
        monkeypatch.setattr(oracle, "_positive_diagonal", lambda m: True)
        m = np.array([[-2.0, 0.5], [0.5, 2.0]])
        report = lemma_property_suite(m, trials=200, seed=1)
        assert {v.check for v in report.violations} >= {"nekrasov", "h_ratio"}
        assert_same_report(report, per_trial_suite(m, 200, 1))
