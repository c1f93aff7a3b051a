import warnings
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_bnekrasov, random_nekrasov
from lcpbounds import bnekrasov, linalg, nekrasov, oracle
from lcpbounds.bnekrasov import bplus_decompose, new_bnekrasov_bound
from lcpbounds.errors import DimensionTooLarge, PreconditionFailed, SingularMatrix
from lcpbounds.linalg import _inverse_stack, inf_norm, inverse
from lcpbounds.nekrasov import is_nekrasov, new_nekrasov_bound, scaled_matrix
from lcpbounds.oracle import lemma_property_suite, norm_at_d, oracle_max_norm


def pointwise_max_norm(m):
    """Reference oracle: one ``norm_at_d`` per vertex, strict ``>``, in
    ``itertools.product`` order, the oracle's binary order."""
    best, best_d = -np.inf, None
    for d in map(np.array, product((0.0, 1.0), repeat=m.shape[0])):
        value = norm_at_d(m, d)
        if value > best:
            best, best_d = value, d
    return best, best_d


def vertex_maxima(m):
    """Reference worst case of the scaling inequalities: every vertex member
    built with ``scaled_matrix`` and profiled with ``is_nekrasov``.  Returns
    the vertex maxima of z, z/diag and h/diag, and whether every member is
    Nekrasov."""
    n = m.shape[0]
    z = z_ratio = h_ratio = np.zeros(n)
    all_nekrasov = True
    for bits in product((0.0, 1.0), repeat=n):
        mt = scaled_matrix(m, np.array(bits))
        profile = is_nekrasov(mt)
        diag = np.diag(mt)
        z = np.maximum(z, profile.z)
        z_ratio = np.maximum(z_ratio, profile.z / diag)
        h_ratio = np.maximum(h_ratio, profile.h / diag)
        all_nekrasov = all_nekrasov and profile.is_nekrasov
    return z, z_ratio, h_ratio, all_nekrasov


def vertex_suite(m, eta):
    """Reference report: ``(check, row, lhs, rhs)`` for each row whose vertex
    maximum passes its side, ``eta`` or ``eta/min{m_ii, 1}``, by check, then row."""
    z, z_ratio, _, _ = vertex_maxima(m)
    sides = (("z_vs_eta", z, eta), ("z_ratio", z_ratio, eta / np.minimum(np.diag(m), 1.0)))
    return [(check, i + 1, lhs[i], rhs[i]) for check, lhs, rhs in sides
            for i in np.flatnonzero(lhs > rhs * (1.0 + oracle._LEMMA_SLACK))]


def assert_same_report(report, m, eta):
    """``report`` flags the rows that ``vertex_suite(m, eta)`` flags, in its order."""
    reference = vertex_suite(m, eta)
    assert report.trials == m.shape[0]
    assert [(v.check, v.row) for v in report.violations] == [r[:2] for r in reference]
    for got, (_, _, lhs, rhs) in zip(report.violations, reference):
        assert got.lhs == pytest.approx(lhs, rel=1e-12)
        assert got.rhs == pytest.approx(rhs, rel=1e-12)


@st.composite
def lemma_inputs(draw):
    """A matrix the lemma suite accepts, n <= 10: Nekrasov, Z, rows scaled by
    ``10**U(-1, 1)``, with a zero upper row, or ``B+`` of a B-Nekrasov matrix."""
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["nekrasov", "z", "scaled", "zero_upper_row", "bplus"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "bplus":
        return bplus_decompose(random_bnekrasov(max(n, 2), rng)).b_plus
    m = random_nekrasov(n, rng)
    diag = np.diag(np.diag(m))
    if kind == "z":
        m = diag - np.abs(m - diag)
    elif kind == "scaled":
        m *= 10.0 ** rng.uniform(-1.0, 1.0, (n, 1))
    elif kind == "zero_upper_row":
        i = rng.integers(n)
        m[i, i + 1 :] = 0.0
    return m


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
        est = oracle_max_norm(np.eye(3))
        assert est.max_observed == 1.0
        assert est.vertex_count == 8
        assert est.interior_samples == 0

    def test_deterministic(self, ex1):
        a = oracle_max_norm(ex1)
        b = oracle_max_norm(ex1)
        assert a.max_observed == b.max_observed
        np.testing.assert_array_equal(a.argmax_d, b.argmax_d)

    def test_argmax_reproduces_max(self, ex1, ex3):
        for m in (ex1, ex3):
            est = oracle_max_norm(m)
            assert norm_at_d(m, est.argmax_d) == pytest.approx(est.max_observed, rel=1e-12)

    def test_vertex_inclusion(self, ex1, ex2, ex3, ex4):
        for m in (ex1, ex2, ex3, ex4):
            est = oracle_max_norm(m)
            assert est.max_observed >= max(1.0, inf_norm(inverse(m))) * (1 - 1e-12)

    def test_dominated_by_bounds(self, ex1, ex3):
        est1 = oracle_max_norm(ex1)
        assert est1.max_observed <= new_nekrasov_bound(ex1).value * (1 + 1e-9)
        est3 = oracle_max_norm(ex3)
        assert est3.max_observed <= new_bnekrasov_bound(ex3).value * (1 + 1e-9)
        # Every applicable bound, the parameterized ones at their route's
        # midpoint epsilon included, is at least the exact vertex maximum.
        rng = np.random.default_rng(2016)
        for n in range(2, 11):
            for make in (random_nekrasov, random_bnekrasov):
                for _ in range(3):
                    m = make(n, rng)
                    exact = oracle_max_norm(m).max_observed
                    for report in bnekrasov.all_bounds(m):
                        if report.applicable:
                            assert report.value >= exact / (1 + 1e-9), (n, report.theorem)

    def test_too_large(self):
        with pytest.raises(DimensionTooLarge):
            oracle_max_norm(np.eye(21))

    # 48 entries make chunks of three 4x4 members, so the vertices span many.
    @pytest.mark.parametrize("chunk_entries", [oracle._CHUNK_ENTRIES, 48])
    def test_matches_pointwise_loop(self, ex1, ex2, ex3, ex4, monkeypatch, chunk_entries):
        monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", chunk_entries)
        non_p = np.array([[1.0, 2.0], [2.0, 1.0]])
        for m in (ex1, ex2, ex3, ex4, non_p):
            est = oracle_max_norm(m)
            best, best_d = pointwise_max_norm(m)
            assert est.max_observed == pytest.approx(best, rel=1e-12)
            np.testing.assert_array_equal(est.argmax_d, best_d)

    # 9 entries make one 3x3 member per chunk, so every tie crosses chunks.
    @pytest.mark.parametrize("chunk_entries", [oracle._CHUNK_ENTRIES, 9])
    def test_tie_keeps_first_vertex(self, monkeypatch, chunk_entries):
        monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", chunk_entries)
        # Every vertex except all-ones has norm 1; the zero vector comes first.
        est = oracle_max_norm(2.0 * np.eye(3))
        assert est.max_observed == 1.0
        np.testing.assert_array_equal(est.argmax_d, np.zeros(3))
        # Norm 2 wherever d_0 or d_1 is 1; in binary order, with d_0 the
        # most significant bit, (0, 1, 0) is the first such vertex.
        est = oracle_max_norm(np.diag([0.5, 0.5, 2.0]))
        assert est.max_observed == 2.0
        np.testing.assert_array_equal(est.argmax_d, [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("m", [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0 + 1e-15]]])
    def test_singular_member_raises(self, m):
        # The all-ones vertex is M itself.
        with pytest.raises(SingularMatrix):
            oracle_max_norm(m)

    def test_member_norm_counts_off_diagonal_row_sums(self):
        # [[1, a], [0, 1]] and its inverse both have norm 1 + a, so the
        # condition number (1 + a)**2 passes 1 / PIVOT_RTOL between these a.
        est = oracle_max_norm([[1.0, 9.9e6], [0.0, 1.0]])
        assert est.max_observed == 1.0 + 9.9e6
        with pytest.raises(SingularMatrix):
            oracle_max_norm([[1.0, 1e7], [0.0, 1.0]])

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
        est = oracle_max_norm(block(9.9e6))
        assert est.max_observed == 1.0 + 9.9e6
        with pytest.raises(SingularMatrix):
            oracle_max_norm(block(1e7))

    # Row i scaled by 10**13..10**14.5 puts the condition numbers of the
    # members with d_i = 1 on either side of 1 / PIVOT_RTOL; on I with one
    # diagonal entry a few ulps from 1 / PIVOT_RTOL, rounding alone decides.
    # Row i is walked or anchored, and n <= 2 walks nothing.
    @given(n=st.integers(1, 8), matrix_seed=st.integers(0, 2**32 - 1), diagonal=st.booleans(),
           exponent=st.floats(13.0, 14.5), ulps=st.integers(-2, 2))
    @settings(max_examples=80, deadline=None)
    def test_singular_exactly_where_a_vertex_inverse_is(self, n, matrix_seed, diagonal,
                                                        exponent, ulps):
        rng = np.random.default_rng(matrix_seed)
        i = int(rng.integers(n))
        if diagonal:
            threshold = 1.0 / linalg.PIVOT_RTOL
            m = np.eye(n)
            m[i, i] = threshold + ulps * np.spacing(threshold)
        else:
            m = random_nekrasov(n, rng)
            m[i] *= 10.0**exponent
        singular = False
        for d in product((0.0, 1.0), repeat=n):
            try:
                inverse(scaled_matrix(m, np.array(d)))
            except SingularMatrix:
                singular = True
                break
        if singular:
            with pytest.raises(SingularMatrix):
                oracle_max_norm(m)
        else:
            oracle_max_norm(m)

    # 48 entries split the walkers and the candidates into many
    # chunks, the last one short.  n = 9..13 has 32..128 walkers in one
    # default chunk; TestVertexWalk splits n = 14 and 16 into default chunks.
    @pytest.mark.parametrize("n, chunk_entries", [
        *((n, chunk_entries) for n in range(1, 12) for chunk_entries in (oracle._CHUNK_ENTRIES, 48)),
        (12, oracle._CHUNK_ENTRIES), (13, oracle._CHUNK_ENTRIES)])
    def test_bit_identical_to_pointwise_reference(self, monkeypatch, n, chunk_entries):
        monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", chunk_entries)
        rng = np.random.default_rng(n)
        general = rng.uniform(-1.0, 1.0, (n, n)) + np.diag(rng.uniform(0.5, 3.0, n))
        # Every member of I's family is I: a tie at every point, won by the first.
        for m in (random_nekrasov(n, rng), random_bnekrasov(max(n, 2), rng), general, np.eye(n)):
            best, best_d = pointwise_max_norm(m)
            est = oracle_max_norm(m)
            assert est.max_observed == best
            np.testing.assert_array_equal(est.argmax_d, best_d)

    # Both classes that put M in P, on M (Nekrasov) and on B+ (B-Nekrasov),
    # with rows scaled by factors in 1e-3..1e3, which keeps each class.  This
    # is why the oracle draws no interior point (see its module docstring).
    @given(n=st.integers(2, 7), matrix_seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from([random_nekrasov, random_bnekrasov]), scaled=st.booleans(),
           samples=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_interior_never_beats_vertices(self, n, matrix_seed, kind, scaled, samples, seed):
        rng = np.random.default_rng(matrix_seed)
        m = kind(n, rng)
        if scaled:
            m *= 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
        assert bnekrasov._profiles(m).route is not None
        vertices = oracle_max_norm(m).max_observed
        points = np.random.default_rng(seed).random((samples, n))
        assert max(norm_at_d(m, d) for d in points) <= vertices * (1 + 1e-12)

    def test_not_p_is_unbounded_inside_the_cube(self):
        # det(I - D + D M) = 1 - 4 t**2 at d = (t, t) vanishes at t = 1/2,
        # where the vertex maximum, 3, says nothing of the constant, +inf.
        m = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(SingularMatrix):
            norm_at_d(m, np.array([0.5, 0.5]))
        assert norm_at_d(m, np.full(2, 0.5 - 1e-9)) > 1e8
        assert oracle_max_norm(m).max_observed == 3.0


def walk_width(n):
    """The number of coordinates the oracle's walk flips at dimension n."""
    return oracle._walk_width(n)


def walk_every_vertex(m):
    """The walked norms of every vertex of ``m`` in binary order, and a mask
    of the vertices whose walker is flagged, under the walk's cap as it is
    when called."""
    n = m.shape[0]
    w = walk_width(n)
    cap = oracle._WALK_COND_CAP / max(1.0, inf_norm(m))
    walked, flagged = oracle._walk(m, np.arange(2 ** (n - w)), w, cap)
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
                oracle_max_norm(m)

    def test_stacks_stay_within_the_entry_bound(self, monkeypatch):
        # Three 9x9 members per chunk.  Every vertex of I's family ties, so
        # all 512 are evaluated again, in chunks of three.
        monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", 3 * 81)
        sizes = []

        def recording(stack):
            sizes.append(stack.size)
            return _inverse_stack(stack)

        monkeypatch.setattr(oracle, "_inverse_stack", recording)
        est = oracle_max_norm(np.eye(9))
        assert est.max_observed == 1.0
        np.testing.assert_array_equal(est.argmax_d, np.zeros(9))
        assert max(sizes) == 3 * 81

    def test_chunks_below_the_walked_maximum_send_nothing(self):
        # n = 16: 512 walkers in 32 chunks of 16.  Each chunk is compared with
        # the largest walked norm of the chunks so far; compared with its own
        # chunk's largest alone, 6172 vertices would go back to LAPACK.
        n, chunk = 16, 16
        m = random_nekrasov(n, np.random.default_rng(0))
        walker_chunks = -(-(2 ** (n - walk_width(n))) // chunk)
        candidates = sum(len(ds) for ds in oracle._vertex_candidates(m, chunk))
        assert 1 <= candidates <= walker_chunks

    def test_each_stack_is_summed_once(self, monkeypatch):
        # n = 16: 4 walker chunks.  Each chunk's stacked inverse sums its
        # anchors and their inverses, and nothing else in the walk sums a
        # stack; M is summed once per call, for the cap, no stack of flip
        # members is built, and the one vertex sent back to LAPACK takes one
        # more stacked inverse.  So the stacks hold the anchors and that vertex,
        # each summed with its inverse, and nothing more.
        n = 16
        m = random_nekrasov(n, np.random.default_rng(0))
        calls = []
        original = linalg._inf_norms

        def counted(stack):
            calls.append(stack.shape)
            return original(stack)

        monkeypatch.setattr(linalg, "_inf_norms", counted)
        monkeypatch.setattr(oracle, "_inf_norms", counted)
        oracle_max_norm(m)
        w, chunk = walk_width(n), max(1, oracle._CHUNK_ENTRIES // (n * n))
        walker_chunks = -(-(2 ** (n - w)) // chunk)
        assert len(calls) <= 2 * walker_chunks + 3
        assert calls.count((n, n)) == 1
        assert sum(shape[0] for shape in calls if len(shape) == 3) == 2 * (2 ** (n - w) + 1)

    def test_walkers_share_the_members_chunk(self, monkeypatch):
        # n = 14: 256 walkers, each holding one 14x14 inverse, so the 167
        # members of a LAPACK stack make a walker chunk too.
        n = 14
        m = random_nekrasov(n, np.random.default_rng(0))
        chunk = max(1, oracle._CHUNK_ENTRIES // (n * n))
        sizes = []

        def recording(stack):
            sizes.append(len(stack))
            return _inverse_stack(stack)

        monkeypatch.setattr(oracle, "_inverse_stack", recording)
        for _ in oracle._vertex_candidates(m, chunk):
            pass
        assert (chunk, sizes) == (167, [167, 89])

    @pytest.mark.parametrize("n", range(5, 14))
    def test_anchor_norms_are_lapack_norms(self, n):
        # Column 0 of the walked norms is the anchors' stacked inverse norms,
        # bit for bit, not summed again.
        rng = np.random.default_rng(n)
        m = rng.uniform(-1.0, 1.0, (n, n)) + np.diag(rng.uniform(0.5, 3.0, n) + n / 2)
        w = walk_width(n)
        walked, flagged = walk_every_vertex(m)
        anchors = oracle._vertices(np.arange(2 ** (n - w)) << w, n)
        _, anchor_norms, ok = _inverse_stack(nekrasov._scaled(m, anchors))
        assert ok.all() and not flagged.any()
        assert [x.hex() for x in walked[:: 2**w]] == [x.hex() for x in anchor_norms]

    @pytest.mark.parametrize("n", [1, 4, 5, 9])
    def test_cap_zero_sends_every_walker_to_lapack(self, monkeypatch, n):
        monkeypatch.setattr(oracle, "_WALK_COND_CAP", 0.0)
        rng = np.random.default_rng(n)
        for m in (random_nekrasov(n, rng), random_bnekrasov(max(n, 2), rng)):
            assert walk_every_vertex(m)[1].all()
            best, best_d = pointwise_max_norm(m)
            est = oracle_max_norm(m)
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

    # Wide walks: w = 6 at n = 14, and w = 7 at n = 16, 127 sequential flips
    # per walker.  Every vertex is compared with LAPACK's stacked norms.
    @pytest.mark.parametrize("n", [14, 16])
    @pytest.mark.parametrize("kind", [random_nekrasov, random_bnekrasov])
    def test_wide_walked_norms_match_lapack(self, n, kind):
        m = kind(n, np.random.default_rng(n))
        walked, flagged = walk_every_vertex(m)
        assert not flagged.any()
        ks, chunk = np.arange(2**n), max(1, oracle._CHUNK_ENTRIES // (n * n))
        for i in range(0, 2**n, chunk):
            ds = oracle._vertices(ks[i : i + chunk], n)
            _, lapack, ok = _inverse_stack(nekrasov._scaled(m, ds))
            assert ok.all()
            np.testing.assert_allclose(walked[i : i + chunk], lapack, rtol=1e-12, atol=0.0)

    @pytest.mark.xfail(strict=True, reason=(
        "FOUND 52 and 76: every vertex within _WALK_RTOL of the walked maximum goes "
        "back to LAPACK, so near-ties send nearly all of them (ROADMAP direction 13)"))
    def test_ties_stay_within_the_walk_budget(self, monkeypatch):
        # Its maximum is 1 + 7 ulps, and 4095 of its 4096 vertices tie within
        # _WALK_RTOL.  The budget is CI's: the anchors and one walker's vertices.
        n = 12
        m = random_bnekrasov(n, np.random.default_rng(2))
        sizes = []

        def recording(stack):
            sizes.append(len(stack))
            return _inverse_stack(stack)

        monkeypatch.setattr(oracle, "_inverse_stack", recording)
        oracle_max_norm(m)
        w = walk_width(n)
        assert sum(sizes) <= 2 ** (n - w) + 2**w


class TestLemmaSuite:
    def test_example1_clean(self, ex1):
        report = lemma_property_suite(ex1)
        assert report.clean
        assert report.trials == 4  # one per row checked

    def test_diagonal_matrix_clean(self):
        report = lemma_property_suite(3.0 * np.eye(4))
        assert report.clean

    def test_bplus_of_example3_clean(self, ex3):
        report = lemma_property_suite(bplus_decompose(ex3).b_plus)
        assert report.clean

    def test_builds_no_members(self, ex1, monkeypatch):
        # The worst case is read from the rows of M; only the oracle's
        # inverses need the members built.
        def refuse(m, d):
            raise AssertionError("a member was built")

        monkeypatch.setattr(oracle, "_scaled", refuse)
        report = lemma_property_suite(ex1)
        assert report.clean
        assert report.trials == 4

    def test_precondition(self, ex3):
        with pytest.raises(PreconditionFailed):
            lemma_property_suite(ex3)
        with pytest.raises(PreconditionFailed):
            lemma_property_suite([[-2.0, 0.5], [0.5, -2.0]])

    def test_faulted_route(self, ex3):
        # Example 3 is B-Nekrasov, not Nekrasov: its M route carries the fault.
        route = bnekrasov._profiles(ex3).m_route
        assert route.fault == "NotNekrasov"
        with pytest.raises(PreconditionFailed):
            lemma_property_suite(route)

    @given(lemma_inputs())
    @settings(max_examples=60, deadline=None)
    def test_suprema_are_the_vertex_maxima(self, m):
        sup_z, sup_z_ratio = oracle._suprema(m)
        z, z_ratio, h_ratio, all_nekrasov = vertex_maxima(m)
        np.testing.assert_allclose(sup_z, z, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(sup_z_ratio, z_ratio, rtol=1e-12, atol=0.0)
        # h/diag peaks at d = 1, which is M: the checks the suite leaves out.
        profile = is_nekrasov(m)
        np.testing.assert_allclose(h_ratio, profile.h / np.diag(m), rtol=1e-12, atol=0.0)
        assert all_nekrasov
        assert lemma_property_suite(m).clean

    @given(lemma_inputs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_no_sample_exceeds_the_suprema(self, m, seed):
        sup_z, sup_z_ratio = oracle._suprema(m)
        for d in np.random.default_rng(seed).random((200, m.shape[0])):
            mt = scaled_matrix(m, d)
            z = is_nekrasov(mt).z
            assert np.all(z <= sup_z * (1.0 + 1e-12))
            assert np.all(z / np.diag(mt) <= sup_z_ratio * (1.0 + 1e-12))

    def test_tight_inputs_with_large_eta_are_clean(self):
        # With every m_jj <= 1 the z_ratio check is tight: its two sides are
        # equal in exact arithmetic, and past 1e5 they differ by rounding
        # far beyond an absolute slack of 1e-12.
        rng = np.random.default_rng(16)
        largest, past_absolute = 0.0, 0
        for _ in range(2000):
            n = int(rng.integers(2, 11))
            m = random_nekrasov(n, rng)
            m *= (10.0 ** rng.uniform(-5.0, -3.0, n) / np.diag(m))[:, None]
            ratio = is_nekrasov(m).ratios[2]
            sup_z_ratio = oracle._suprema(m)[1]
            np.testing.assert_allclose(sup_z_ratio, ratio, rtol=1e-12, atol=0.0)
            largest = max(largest, ratio.max())
            past_absolute += np.any(sup_z_ratio > ratio + 1e-12)
            assert lemma_property_suite(m).clean
        assert largest > 1e5
        assert past_absolute > 0

    def test_zero_entry_below_an_overflowed_row(self):
        # Nekrasov with positive diagonal: q_2* passes the float range, and
        # row 3 does not use it (no 0 * inf = nan).
        m = np.array([[1e-11, 0.0, 0.0], [1e300, 1e-11, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(oracle._suprema(m), [[1.0, np.inf, 1.0],
                                                           [1e11, np.inf, 1.0]])
        report = lemma_property_suite(m)
        assert report.clean

    # A negative slack flags most rows, so the order of the report is tested too.
    @pytest.mark.parametrize("slack", [oracle._LEMMA_SLACK, -0.05])
    def test_fixtures_match_vertex_reference(self, ex1, ex2, ex3, ex4, monkeypatch, slack):
        monkeypatch.setattr(oracle, "_LEMMA_SLACK", slack)
        for m in (ex1, ex2, bplus_decompose(ex3).b_plus, bplus_decompose(ex4).b_plus):
            report = lemma_property_suite(m)
            assert_same_report(report, m, is_nekrasov(m).eta)
            assert report.clean == (slack > 0)

    @pytest.mark.parametrize("slack", [oracle._LEMMA_SLACK, -0.05])
    def test_random_n11_matches_vertex_reference(self, monkeypatch, slack):
        monkeypatch.setattr(oracle, "_LEMMA_SLACK", slack)
        rng = np.random.default_rng(11)
        for _ in range(3):
            m = random_nekrasov(11, rng)
            report = lemma_property_suite(m)
            assert_same_report(report, m, is_nekrasov(m).eta)
            assert report.clean == (slack > 0)

    def test_lowered_eta_flags_the_reference_rows(self, ex1, ex2, monkeypatch):
        def lowered(a):
            route = nekrasov._m_route(a)
            profile = route.profile
            eta, ratios = 0.8 * profile.eta, profile.ratios.copy()
            ratios[2] *= 0.8
            return replace(route, profile=replace(profile, eta=eta, ratios=ratios))

        monkeypatch.setattr(oracle, "_m_route", lowered)
        rng = np.random.default_rng(8)
        bplus = bplus_decompose(random_bnekrasov(8, rng)).b_plus
        for m in (ex1, ex2, random_nekrasov(8, rng), bplus):
            report = lemma_property_suite(m)
            assert not report.clean
            assert_same_report(report, m, 0.8 * is_nekrasov(m).eta)

    def test_violations_rebuild_their_lhs(self, ex1, ex2, ex3, monkeypatch):
        # A slack of -1 flags every row of both checks.
        monkeypatch.setattr(oracle, "_LEMMA_SLACK", -1.0)
        rng = np.random.default_rng(9)
        for m in (ex1, ex2, bplus_decompose(ex3).b_plus, random_nekrasov(9, rng)):
            n = m.shape[0]
            report = lemma_property_suite(m)
            assert len(report.violations) == 2 * n
            for v in report.violations:
                assert set(v.d) <= {0.0, 1.0}
                mt = scaled_matrix(m, v.d)
                z = is_nekrasov(mt).z[v.row - 1]
                value = z if v.check == "z_vs_eta" else z / mt[v.row - 1, v.row - 1]
                assert value == pytest.approx(v.lhs, rel=1e-12)
