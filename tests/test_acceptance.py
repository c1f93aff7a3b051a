"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see them)."""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import conftest
from lcpbounds.bnekrasov import (
    all_bounds,
    bplus_decompose,
    classify,
    gp_bnekrasov_bound,
    new_bnekrasov_bound,
)
from lcpbounds.cli import main
from lcpbounds.lcp import (
    LcpInstance,
    certify_error_bound,
    feasible_bases,
    is_p_matrix,
    solve_lcp,
    trial_points,
)
from lcpbounds.linalg import inf_norm, inverse
from lcpbounds.nekrasov import (
    gp_nekrasov_bound,
    h_vector,
    is_nekrasov,
    kolotilina_bound,
    new_nekrasov_bound,
)
from lcpbounds.oracle import lemma_property_suite, oracle_max_norm


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def applicable_bounds(m):
    """The worst-case-norm bounds that apply to ``m``; parameterized ones are
    evaluated at the midpoint of their admissible interval."""
    return [r for r in all_bounds(m) if r.applicable]


def test_criterion_1_example1_h_and_new_bound(ex1):
    with criterion("1 (example 1: h vector and parameter-free bound)"):
        np.testing.assert_allclose(h_vector(ex1), [1.1000, 0.6220, 0.2411, 0.3410], atol=5e-5)
        assert new_nekrasov_bound(ex1).value == pytest.approx(3.6414, abs=5e-5)


def test_criterion_2_example1_epsilon_sweep(ex1, data_dir, capsys):
    with criterion("2 (example 1: epsilon sweep of the parameterized bound)"):
        code = main(["sweep", "--matrix", str(data_dir / "example1.txt"), "--grid", "101"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 101
        new_value = new_nekrasov_bound(ex1).value
        assert float(rows[0][1]) > new_value
        assert float(rows[-1][1]) > new_value
        assert gp_nekrasov_bound(ex1, 1e-6).value > 1e4
        w = gp_nekrasov_bound(ex1, 0.25).intermediates["w"]
        np.testing.assert_allclose(w, [0.2200, 0.3110, 0.1607, 0.2842 + 0.25], atol=5e-5)


def test_criterion_3_example2(ex2):
    with criterion("3 (example 2: zero upper row and bound 15)"):
        report = gp_nekrasov_bound(ex2, 0.1)
        assert not report.applicable
        assert report.reason == "ZeroUpperRow(3)"
        assert new_nekrasov_bound(ex2).value == pytest.approx(15.0, abs=1e-9 * 15)


def test_criterion_4_example3(ex3, data_dir, capsys):
    with criterion("4 (example 3: classification, W diagonal, bound 126, grid)"):
        flags = classify(ex3)
        assert not flags.is_h_matrix
        assert not flags.is_b_matrix
        assert flags.is_b_nekrasov
        eps = 0.05
        w = gp_bnekrasov_bound(ex3, eps).intermediates["w"]
        np.testing.assert_allclose(w, [2 / 3, 3 / 4, 5 / 6, 5 / 6 + eps], atol=1e-12)
        assert new_bnekrasov_bound(ex3).value == pytest.approx(126.0, abs=1e-6)
        code = main(["sweep", "--matrix", str(data_dir / "example3.txt"), "--grid", "101"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 101
        assert 0.0 < float(rows[0][0]) and float(rows[-1][0]) < 1 / 6
        assert all(float(r[1]) > 126.0 for r in rows)


def test_criterion_5_example4(ex4):
    with criterion("5 (example 4: B+ h vector, strict-entry clause, bound 126/5)"):
        b_plus = bplus_decompose(ex4).b_plus
        np.testing.assert_allclose(h_vector(b_plus), [0.0, 3 / 5, 1 / 6, 1 / 24], atol=1e-12)
        report = gp_bnekrasov_bound(ex4, 0.1)
        assert not report.applicable
        assert report.reason == "NoStrictEntry(1)"
        assert new_bnekrasov_bound(ex4).value == pytest.approx(25.2, abs=1e-9 * 25.2)


def test_criterion_6_oracle_domination(ex1, ex2, ex3, ex4):
    with criterion("6 (oracle domination on all four fixtures)"):
        start = time.perf_counter()
        for m in (ex1, ex2, ex3, ex4):
            bounds = applicable_bounds(m)
            assert bounds
            estimate = oracle_max_norm(m)
            for report in bounds:
                assert estimate.max_observed <= report.value * (1 + 1e-9)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"oracle domination took {elapsed:.2f}s"


def test_criterion_7_lemma_suite(ex1, ex2, ex3, ex4):
    with criterion("7 (scaling-inequality suite and scalar checks)"):
        targets = [ex1, ex2, bplus_decompose(ex3).b_plus, bplus_decompose(ex4).b_plus]
        for m in targets:
            report = lemma_property_suite(m)
            assert report.clean, report.violations[:3]
        rng = np.random.default_rng(42)
        gamma = rng.uniform(1e-6, 10.0, 100000)
        eta = rng.uniform(0.0, 10.0, 100000)
        x = rng.uniform(0.0, 1.0, 100000)
        denom = 1.0 - x + gamma * x
        assert np.all(1.0 / denom <= 1.0 / np.minimum(gamma, 1.0) * (1 + 1e-12))
        assert np.all(eta * x / denom <= eta / gamma * (1 + 1e-12) + 1e-300)


def test_criterion_8_error_certificates(ex1, ex2, ex3, ex4):
    with criterion("8 (end-to-end error certificates and uniqueness)"):
        q = np.array([-1.0, -1.0, -1.0, -1.0])
        for m in (ex1, ex2, ex3, ex4):
            inst = LcpInstance(m, q)
            solution = solve_lcp(inst)
            assert solution.complementarity_gap <= 1e-9
            assert is_p_matrix(m)
            assert len(feasible_bases(inst)) == 1
            best = min(applicable_bounds(m), key=lambda r: r.value)
            for x in trial_points(solution.x_star, 100, seed=42):
                assert certify_error_bound(inst, x, best).holds


def test_criterion_9_random_instance_soak():
    with criterion("9 (random Nekrasov soak: recognition and domination)"):
        start = time.perf_counter()
        rng = np.random.default_rng(20250842)
        sizes = [2 + k % 7 for k in range(200)]
        for n in sizes:
            a = conftest.random_nekrasov(n, rng)
            assert is_nekrasov(a).is_nekrasov
            kol = kolotilina_bound(a)
            assert kol.applicable
            assert inf_norm(inverse(a)) <= kol.value * (1 + 1e-9)
            new = new_nekrasov_bound(a)
            assert new.applicable
            estimate = oracle_max_norm(a)
            assert estimate.max_observed <= new.value * (1 + 1e-9)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"soak took {elapsed:.2f}s"
