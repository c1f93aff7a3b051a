import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcpbounds
from conftest import random_bnekrasov, random_nekrasov
from lcpbounds import bnekrasov, nekrasov
from lcpbounds.cli import _emit, main
from lcpbounds.errors import DomainError
from lcpbounds.matrixio import format_matrix, parse_matrix
from lcpbounds.oracle import oracle_max_norm


def run(capsys, *argv):
    """stdout and exit code of one command; a usage error's ``SystemExit``
    gives its code, as the console script would exit with."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return capsys.readouterr().out, code


def run_fresh(*argv):
    """One command in a fresh interpreter, so that a traceback reaches stderr."""
    src = str(Path(lcpbounds.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "lcpbounds.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )


def bound_by_name(payload, name):
    return next(b for b in payload["bounds"] if b["theorem"] == name)


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.txt"
    path.write_text(format_matrix(np.eye(3)))
    return str(path)


# Neither Nekrasov nor B-Nekrasov, and not P (det = -3): no bound applies.
NOT_P = np.array([[1.0, 2.0], [2.0, 1.0]])


@pytest.fixture
def not_p_file(tmp_path):
    path = tmp_path / "not_p.txt"
    path.write_text(format_matrix(NOT_P))
    return str(path)


class TestBound:
    def test_example2(self, capsys, data_dir):
        out, code = run(capsys, "bound", "--matrix", str(data_dir / "example2.txt"))
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 4
        gp = bound_by_name(payload, "gp_nekrasov")
        assert gp["applicable"] is False
        assert gp["reason"] == "ZeroUpperRow(3)"
        new = bound_by_name(payload, "new_nekrasov")
        assert new["value"] == pytest.approx(15.0, rel=1e-12)
        assert payload["classification"]["is_nekrasov"] is True

    def test_example4(self, capsys, data_dir):
        out, code = run(capsys, "bound", "--matrix", str(data_dir / "example4.txt"))
        assert code == 0
        payload = json.loads(out)
        assert bound_by_name(payload, "new_bnekrasov")["value"] == pytest.approx(25.2, rel=1e-9)
        assert bound_by_name(payload, "gp_bnekrasov")["reason"] == "NoStrictEntry(1)"

    def test_identity(self, capsys, identity_file):
        out, code = run(capsys, "bound", "--matrix", identity_file)
        assert code == 0
        payload = json.loads(out)
        assert bound_by_name(payload, "new_nekrasov")["value"] == 1.0

    @pytest.mark.parametrize("text", [",,,", ", ,\n,\n"], ids=["commas", "commas_and_lines"])
    def test_separators_only_matrix_exit_1(self, capsys, tmp_path, text):
        path = tmp_path / "m.txt"
        path.write_text(text)
        code = main(["bound", "--matrix", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"error: {path} contains no data\n")

    def test_explicit_epsilon_recorded(self, capsys, data_dir):
        out, code = run(capsys, "bound", "--matrix", str(data_dir / "example1.txt"),
                        "--epsilon", "0.3")
        assert code == 0
        gp = bound_by_name(json.loads(out), "gp_nekrasov")
        assert gp["applicable"] is True
        assert gp["epsilon"] == 0.3

    def test_no_applicable_bound_exit_2(self, capsys, tmp_path):
        path = tmp_path / "swap.txt"
        path.write_text("2\n0 1\n1 0\n")
        _, code = run(capsys, "bound", "--matrix", str(path))
        assert code == 2

    def test_theorem_filter(self, capsys, data_dir):
        out, code = run(capsys, "bound", "--matrix", str(data_dir / "example2.txt"),
                        "--theorem", "new-nekrasov")
        assert code == 0
        payload = json.loads(out)
        assert [b["theorem"] for b in payload["bounds"]] == ["new_nekrasov"]

    def test_gp_theorem_without_epsilon_takes_the_midpoint(self, capsys, data_dir):
        argv = ("bound", "--matrix", str(data_dir / "example1.txt"))
        out, code = run(capsys, *argv, "--theorem", "gp-nekrasov")
        everything, _ = run(capsys, *argv, "--theorem", "all")
        entries = json.loads(out)["bounds"]
        assert code == 0
        assert entries == [bound_by_name(json.loads(everything), "gp_nekrasov")]
        m = parse_matrix(str(data_dir / "example1.txt"))
        assert entries[0]["epsilon"] == bnekrasov._profiles(m).m_route.upper / 2

    def test_missing_file_exit_1(self, capsys, tmp_path):
        _, code = run(capsys, "bound", "--matrix", str(tmp_path / "nope.txt"))
        assert code == 1

    def test_csv_with_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "export.csv"
        path.write_bytes(b"\xef\xbb\xbf4,-1\r\n-1,4\r\n")
        out, code = run(capsys, "bound", "--matrix", str(path))
        assert code == 0
        assert json.loads(out)["classification"]["is_nekrasov"] is True

    # Nekrasov Z-matrices with eta_n = 21**(n-1); the gp bounds stay finite.
    # At n = 250 eta, and so both new bounds, pass the float range.  At
    # n = 234 eta is finite, about 1.2e308, and only the B-Nekrasov bound's
    # factor n - 1 overflows.
    @pytest.mark.parametrize("n, overflowed", [
        (250, ("new_nekrasov", "new_bnekrasov")),
        (234, ("new_bnekrasov",)),
    ])
    def test_overflowed_bound_is_strict_json(self, tmp_path, n, overflowed):
        m = np.full((n, n), -20.0)
        np.fill_diagonal(m, 5000.0)
        path = tmp_path / "m.txt"
        path.write_text(format_matrix(m))
        proc = run_fresh("bound", "--matrix", str(path))
        assert proc.returncode == 0
        assert proc.stderr == ""

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(proc.stdout, parse_constant=reject)
        for name in ("new_nekrasov", "new_bnekrasov"):
            entry = bound_by_name(payload, name)
            if name in overflowed:
                assert entry == {"theorem": name, "applicable": False, "reason": "Overflow"}
            else:
                assert entry["applicable"] is True
        assert bound_by_name(payload, "gp_nekrasov")["applicable"] is True

    def test_csv_format_rejected_outside_sweep(self, capsys, data_dir):
        _, code = run(capsys, "bound", "--matrix", str(data_dir / "example2.txt"),
                      "--format", "csv")
        assert code == 1


class TestSweep:
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_json_and_text_formats_rejected(self, capsys, data_dir, fmt):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--matrix", str(data_dir / "example1.txt"), "--format", fmt])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice" in captured.err

    def test_csv_format_is_the_default_output(self, capsys, data_dir):
        argv = ("sweep", "--matrix", str(data_dir / "example1.txt"), "--grid", "5")
        plain, code = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--format", "csv") == (plain, 0)

    def test_example1_grid(self, capsys, data_dir):
        out, code = run(capsys, "sweep", "--matrix", str(data_dir / "example1.txt"),
                        "--grid", "101")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "epsilon,gp_bound,new_bound"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 101
        eps = [float(r[0]) for r in rows]
        assert eps == sorted(eps) and len(set(eps)) == 101
        assert 0.0 < eps[0] and eps[-1] < 0.71585
        new_values = {r[2] for r in rows}
        assert len(new_values) == 1
        assert float(new_values.pop()) == pytest.approx(3.6414, abs=5e-5)
        gp = [float(r[1]) for r in rows]
        assert gp[0] > 3.6414 and gp[-1] > 3.6414

    def test_grid_2(self, capsys, data_dir):
        out, code = run(capsys, "sweep", "--matrix", str(data_dir / "example3.txt"),
                        "--grid", "2")
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_example2_gp_rows_na(self, capsys, data_dir):
        out, code = run(capsys, "sweep", "--matrix", str(data_dir / "example2.txt"),
                        "--grid", "5")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert all(r[1] == "n/a" for r in rows)
        assert all(float(r[2]) == pytest.approx(15.0, rel=1e-12) for r in rows)

    @pytest.mark.parametrize("name, gp", [("example1", nekrasov.gp_nekrasov_bound),
                                          ("example3", bnekrasov.gp_bnekrasov_bound)])
    def test_rows_match_public_bound(self, capsys, data_dir, name, gp):
        path = str(data_dir / f"{name}.txt")
        out, code = run(capsys, "sweep", "--matrix", path, "--grid", "7")
        assert code == 0
        m = parse_matrix(path)
        for line in out.strip().splitlines()[1:]:
            epsilon, gp_text, _ = line.split(",")
            report = gp(m, float(epsilon))
            assert gp_text == (repr(report.value) if report.applicable else "n/a")

    def test_not_applicable_exit_2(self, capsys, tmp_path):
        path = tmp_path / "swap.txt"
        path.write_text("2\n0 1\n1 0\n")
        _, code = run(capsys, "sweep", "--matrix", str(path))
        assert code == 2

    def test_only_na_values_exit_2(self, capsys, tmp_path):
        # Nekrasov with positive diagonal, so sweep takes the M route, but the
        # parameterized bound fails ZeroUpperRow(1) and the new bound overflows.
        path = tmp_path / "m.txt"
        path.write_text("2\n1e-10 0\n1e300 1\n")
        out, code = run(capsys, "sweep", "--matrix", str(path), "--grid", "2")
        header, *rows = out.splitlines()
        assert header == "epsilon,gp_bound,new_bound" and len(rows) == 2
        assert all(row.split(",")[1:] == ["n/a", "n/a"] for row in rows)
        assert code == 2
        _, code = run(capsys, "bound", "--matrix", str(path))
        assert code == 2

    def test_bad_grid_exit_1(self, capsys, data_dir):
        _, code = run(capsys, "sweep", "--matrix", str(data_dir / "example1.txt"),
                      "--grid", "1")
        assert code == 1

    def test_stdout_closed_early_is_an_error_line(self, data_dir):
        # 5000 rows outgrow the pipe's buffer, so the write meets the closed pipe.
        src = str(Path(lcpbounds.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "lcpbounds.cli", "sweep",
             "--matrix", str(data_dir / "example1.txt"), "--grid", "5000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.readline() == "epsilon,gp_bound,new_bound\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert "Traceback" not in stderr
        assert stderr.startswith("error: ") and stderr.count("\n") == 1


class TestVerify:
    def test_example1(self, capsys, data_dir):
        out, code = run(capsys, "verify", "--matrix", str(data_dir / "example1.txt"))
        assert code == 0
        payload = json.loads(out)
        new = bound_by_name(payload, "new_nekrasov")
        assert new["dominated"] is True
        assert payload["oracle"]["max_observed"] <= new["value"] * (1 + 1e-9)
        assert payload["lemma_suite"] == {"target": "M", "trials": 4, "violations": 0}
        assert payload["kolotilina"]["dominates_inverse_norm"] is True

    def test_example3(self, capsys, data_dir):
        out, code = run(capsys, "verify", "--matrix", str(data_dir / "example3.txt"))
        assert code == 0
        payload = json.loads(out)
        assert bound_by_name(payload, "new_bnekrasov")["dominated"] is True
        assert payload["lemma_suite"] == {"target": "B+", "trials": 4, "violations": 0}

    @pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4"])
    def test_p_by_class_reads_the_vertex_maximum(self, capsys, data_dir, name):
        # Each fixture is P by class: the oracle block is the vertex maximum,
        # its argmax and the vertex count.
        path = str(data_dir / f"{name}.txt")
        out, code = run(capsys, "verify", "--matrix", path)
        assert code == 0
        est = oracle_max_norm(parse_matrix(path))
        assert json.loads(out)["oracle"] == {"max_observed": est.max_observed,
                                             "argmax_d": est.argmax_d.tolist(),
                                             "vertex_count": est.vertex_count}

    # Inputs on which no bound applies: two singular ones, where the oracle
    # would raise SingularMatrix, one whose inverse does (Kolotilina's check),
    # one whose row sums pass the float range, and the not-P NOT_P.
    @pytest.mark.parametrize("m", [
        [[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]], [[1e15, 0.0], [0.0, -1.0]],
        [[1e308, 1e308], [1e308, 1e308]], NOT_P,
    ], ids=["swap", "zero_row", "diag_1e15_minus_1", "plus_1e308", "not_p"])
    def test_no_bound_checks_nothing(self, capsys, tmp_path, m):
        path = tmp_path / "m.txt"
        path.write_text(format_matrix(np.array(m)))
        codes = []
        for command in ("bound", "verify"):
            codes.append(main([command, "--matrix", str(path)]))
            captured = capsys.readouterr()
            assert captured.err == ""
        payload = json.loads(captured.out, parse_constant=_reject_constant)
        assert codes == [2, 2]
        assert (payload["oracle"], payload["lemma_suite"]) == (None, None)
        assert not any("dominated" in entry for entry in payload["bounds"])
        assert "inverse_norm" not in payload["kolotilina"]

    # verify accepts both options and reads neither: the oracle draws no
    # interior point.
    @pytest.mark.parametrize("option", [("--samples", "-1"), ("--samples", "0"),
                                        ("--samples", "20"), ("--seed", "-1"),
                                        ("--seed", str(2**128))],
                             ids=["samples_-1", "samples_0", "samples_20", "seed_-1",
                                  "seed_2_pow_128"])
    @pytest.mark.parametrize("matrix", ["example1", "not_p"])
    def test_unread_options_change_nothing(self, capsys, data_dir, not_p_file, option, matrix):
        path = not_p_file if matrix == "not_p" else str(data_dir / f"{matrix}.txt")
        plain = run(capsys, "verify", "--matrix", path)
        assert plain[1] == (2 if matrix == "not_p" else 0)
        assert run(capsys, "verify", "--matrix", path, *option) == plain

    def test_identity(self, capsys, identity_file):
        out, code = run(capsys, "verify", "--matrix", identity_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle"]["max_observed"] == 1.0
        assert bound_by_name(payload, "new_nekrasov")["dominated"] is True


class TestLcp:
    def test_identity(self, capsys, tmp_path):
        mpath = tmp_path / "m.txt"
        mpath.write_text("2\n1 0\n0 1\n")
        qpath = tmp_path / "q.txt"
        qpath.write_text("-1 -1\n")
        out, code = run(capsys, "lcp", "--matrix", str(mpath), "--q", str(qpath),
                        "--trials", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["x_star"] == [1.0, 1.0]
        assert payload["all_hold"] is True

    def test_example2(self, capsys, data_dir):
        out, code = run(capsys, "lcp", "--matrix", str(data_dir / "example2.txt"),
                        "--q", str(data_dir / "q_minus_ones.txt"), "--trials", "20")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"]["value"] == pytest.approx(15.0, rel=1e-12)
        assert payload["complementarity_gap"] <= 1e-9
        assert len(payload["certificates"]) == 20
        assert all(c["holds"] for c in payload["certificates"])

    def test_parameterized_bounds_compete(self, capsys, tmp_path):
        # At its M route's midpoint epsilon, GP-Nekrasov (8.999) is below
        # new-Nekrasov (9.184), with --epsilon set to the midpoint or without it.
        m = random_nekrasov(5, np.random.default_rng(1))
        matrix, q = tmp_path / "m.txt", tmp_path / "q.txt"
        matrix.write_text(format_matrix(m))
        q.write_text("-1 -1 -1 -1 -1\n")
        eps = bnekrasov._profiles(m).m_route.upper / 2
        gp = nekrasov.gp_nekrasov_bound(m, eps).value
        assert gp < nekrasov.new_nekrasov_bound(m).value
        for extra in [("--epsilon", repr(eps)), ()]:
            out, code = run(capsys, "lcp", "--matrix", str(matrix), "--q", str(q),
                            "--trials", "5", *extra)
            bound = json.loads(out)["bound"]
            assert (code, bound["theorem"], bound["value"], bound["epsilon"]) == (
                0, "gp_nekrasov", gp, eps)

    def test_smallest_bound_certifies_random_inputs(self, capsys, tmp_path):
        # Without --epsilon every applicable bound competes, the parameterized
        # ones at their midpoints, and the smallest certifies every trial.
        rng = np.random.default_rng(7)
        matrix, q = tmp_path / "m.txt", tmp_path / "q.txt"
        for n in range(2, 11):
            for make in (random_nekrasov, random_bnekrasov):
                m = make(n, rng)
                matrix.write_text(format_matrix(m))
                q.write_text(" ".join(map(repr, rng.standard_normal(n).tolist())) + "\n")
                out, code = run(capsys, "lcp", "--matrix", str(matrix), "--q", str(q),
                                "--trials", "5")
                payload = json.loads(out)
                best = min((r for r in bnekrasov.all_bounds(m) if r.applicable),
                           key=lambda r: r.value)
                assert (code, payload["all_hold"]) == (0, True), (n, make)
                assert (payload["bound"]["theorem"], payload["bound"]["value"]) == (
                    best.theorem.value, best.value)

    def test_overflowing_residual_writes_no_stderr(self, tmp_path):
        # x* = (0, 1e108): trial points near it take M x past the float range.
        matrix, q = tmp_path / "m.txt", tmp_path / "q.txt"
        matrix.write_text(format_matrix(1e200 * np.eye(2)))
        q.write_text("1e308 -1e308\n")
        proc = run_fresh("lcp", "--matrix", str(matrix), "--q", str(q), "--trials", "5")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["all_hold"] is True

    def test_row_sum_past_the_float_range(self, capsys, tmp_path):
        # Not Nekrasov, B-Nekrasov or P by class: the answer, basis [0], is
        # reported with no bound (exit 2).
        matrix, q = tmp_path / "m.txt", tmp_path / "q.txt"
        matrix.write_text("2\n1e308 1e308\n0 1\n")
        q.write_text("-1 1\n")
        out, code = run(capsys, "lcp", "--matrix", str(matrix), "--q", str(q), "--trials", "2")
        assert code == 2
        assert json.loads(out)["basis"] == [0]

    # Diagonal M attains its bound 1/m_ii, and every class test is scale-free,
    # so tiny and huge scales certify as the unit scale does.  The last case
    # has w* = -1e-13 at basis (): infeasible at the scale of M and q.
    @pytest.mark.parametrize("m, q", [
        ([[1e-13]], [-1.0]), ([[1e-13]], [-1e13]), ([[1e-13]], [-1e200]),
        ([[1e-300]], [-1.0]), (1e-200 * np.eye(2), [-1.0, -1.0]),
        (1e-8 * np.eye(2), [-1.0, -1.0]), ([[1e-13]], [-1e-13]),
        (1e-13 * np.eye(2), [-1.0, -1.0]),
    ])
    def test_attained_bound_at_any_scale_holds(self, capsys, tmp_path, m, q):
        matrix, q_path = tmp_path / "m.txt", tmp_path / "q.txt"
        matrix.write_text(format_matrix(np.array(m)))
        q_path.write_text(" ".join(repr(v) for v in q) + "\n")
        for seed in range(8):
            out, code = run(capsys, "lcp", "--matrix", str(matrix), "--q", str(q_path),
                            "--trials", "20", "--seed", str(seed))
            payload = json.loads(out)
            assert (code, payload["all_hold"]) == (0, True), seed
            np.testing.assert_allclose(payload["x_star"], np.linalg.solve(m, -np.array(q)))

    def test_nonnegative_q_takes_the_empty_basis(self, capsys, data_dir, tmp_path):
        # q >= 0, a signed zero included, is solved by x* = 0.
        q = tmp_path / "q.txt"
        q.write_text("1 -0 0 2\n")
        out, code = run(capsys, "lcp", "--matrix", str(data_dir / "example1.txt"),
                        "--q", str(q), "--trials", "5")
        payload = json.loads(out)
        assert (code, payload["basis"], payload["x_star"]) == (0, [], [0.0] * 4)

    def test_trial_points_past_memory_exit_1(self, capsys, data_dir, monkeypatch):
        # The allocation fails as numpy's would for 10**12 points, without
        # asking for the 30 TB.
        class NoMemory:
            def uniform(self, low, high, size):
                raise MemoryError(f"Unable to allocate an array with shape {size}")

        monkeypatch.setattr(np.random, "default_rng", lambda seed: NoMemory())
        code = main(["lcp", "--matrix", str(data_dir / "example1.txt"),
                     "--q", str(data_dir / "q_minus_ones.txt"), "--trials", "1000000000000"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: cannot draw 1000000000000 trial points: Unable to allocate")
        assert err.count("\n") == 1

    def test_trial_points_past_the_array_size_exit_1(self, capsys, data_dir):
        code = main(["lcp", "--matrix", str(data_dir / "example1.txt"),
                     "--q", str(data_dir / "q_minus_ones.txt"), "--trials", str(2**62)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: cannot draw {2**62} trial points: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_dimension_mismatch_exit_1(self, capsys, data_dir, tmp_path):
        qpath = tmp_path / "q.txt"
        qpath.write_text("-1 -1\n")
        _, code = run(capsys, "lcp", "--matrix", str(data_dir / "example2.txt"),
                      "--q", str(qpath))
        assert code == 1

    def test_missing_q_exit_1(self, capsys, data_dir):
        _, code = run(capsys, "lcp", "--matrix", str(data_dir / "example2.txt"))
        assert code == 1

    @pytest.mark.parametrize("text", [",,,", ", \n ,"], ids=["commas", "commas_and_lines"])
    def test_separators_only_q_exit_1(self, capsys, data_dir, tmp_path, text):
        qpath = tmp_path / "q.txt"
        qpath.write_text(text)
        code = main(["lcp", "--matrix", str(data_dir / "example2.txt"), "--q", str(qpath)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {qpath} contains no data\n"


class TestClassify:
    def test_example3(self, capsys, data_dir):
        out, code = run(capsys, "classify", "--matrix", str(data_dir / "example3.txt"))
        assert code == 0
        flags = json.loads(out)["classification"]
        assert flags["is_h_matrix"] is False
        assert flags["is_b_matrix"] is False
        assert flags["is_b_nekrasov"] is True

    def test_text_format(self, capsys, data_dir):
        out, code = run(capsys, "classify", "--matrix", str(data_dir / "example2.txt"),
                        "--format", "text")
        assert code == 0
        assert "is_nekrasov: True" in out

    @pytest.mark.parametrize("command", ["classify", "bound", "sweep", "verify"])
    def test_overflowing_b_plus_is_an_error(self, capsys, tmp_path, command):
        # The entries are finite, but B+ = [[0, 0], [0, -inf]], or b_13 =
        # -1e308 - r_1 with r_1 = 1e308 above the diagonal: the command ends
        # in one error line, with no warning and nothing on stdout.
        path = tmp_path / "m.txt"
        for text in ("2\n0 0\n1e308 -1e308\n", "3\n1 1e308 -1e308\n0 1 0\n0 0 1\n"):
            path.write_text(text)
            code = main([command, "--matrix", str(path)])
            captured = capsys.readouterr()
            assert code == 1
            assert (captured.out, captured.err) == (
                "", "error: the B+ splitting overflows: an entry of B+ is past the float range\n")

    @pytest.mark.parametrize("command", ["bound", "classify"])
    def test_large_entries_are_p(self, tmp_path, command):
        # Neither Nekrasov (h_1 = 2e200) nor B-Nekrasov (b_11 < 0), so the
        # P-test runs on it, and no bound applies (exit 2).
        path = tmp_path / "m.txt"
        path.write_text("2\n1e200 2e200\n0 1e200\n")
        proc = run_fresh(command, "--matrix", str(path))
        assert proc.returncode == (2 if command == "bound" else 0)
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["classification"]["is_p_matrix"] is True

    def test_singular_comparison_matrix_writes_no_stderr(self, tmp_path):
        # ||<M>||_inf ||<M>^{-1}||_inf = 1e400, but the H-test reads the
        # row-scaled <M>, here I: a positive diagonal matrix is H.
        path = tmp_path / "m.txt"
        path.write_text("2\n1e200 0\n0 1e-200\n")
        proc = run_fresh("classify", "--matrix", str(path))
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["classification"]["is_h_matrix"] is True

    # The class tests read row-scaled quantities, so their flags hold at any
    # scale.  I + 10 triu(1) at n = 16 is P and in neither class, so the
    # P-test runs on it (its row-scaled minors fall to 2**-45).
    @pytest.mark.parametrize("m, flags", [
        (np.diag([1e15, 1.0]), ["is_h_matrix", "is_p_matrix"]),
        (1e-13 * np.eye(2), ["is_sdd", "is_z_matrix", "is_nekrasov", "is_b_matrix",
                             "is_b_nekrasov", "is_h_matrix", "is_p_matrix"]),
        (np.eye(16) + 10.0 * np.triu(np.ones((16, 16)), 1), ["is_p_matrix"]),
    ], ids=["diag_1e15_1", "1e-13_identity", "triu_n16"])
    def test_flags_at_any_scale(self, capsys, tmp_path, m, flags):
        path = tmp_path / "m.txt"
        path.write_text(format_matrix(m))
        out, code = run(capsys, "classify", "--matrix", str(path))
        classification = json.loads(out)["classification"]
        assert code == 0
        assert [classification[flag] for flag in flags] == [True] * len(flags)
        assert "skipped" not in classification["notes"]

    @pytest.mark.parametrize("command", ["bound", "classify"])
    @pytest.mark.parametrize("n", [4, 21], ids=["p_tested", "p_skipped"])
    def test_classification_keys_in_order(self, capsys, tmp_path, command, n):
        path = tmp_path / "m.txt"
        path.write_text(format_matrix(4.0 * np.eye(n) - 1.0))
        out, _ = run(capsys, command, "--matrix", str(path))
        assert list(json.loads(out)["classification"]) == [
            "is_sdd", "is_z_matrix", "is_nekrasov", "is_b_matrix", "is_b_nekrasov",
            "is_h_matrix", "is_p_matrix", "notes",
        ]


def render_text(value, indent=0):
    """The text format by its definition: ``key: value`` leaves (an empty list
    or dict among them), ``-`` list items, each nested block indented two more
    spaces under its key or ``-``."""
    pad = "  " * indent
    items = ([(f"{key}:", item) for key, item in value.items()] if isinstance(value, dict)
             else [("-", item) for item in value])
    lines = []
    for label, item in items:
        if isinstance(item, (dict, list)) and item:
            lines += [pad + label, render_text(item, indent + 1)]
        else:
            lines.append(f"{pad}{label} {item}")
    return "\n".join(lines)


class TestTextFormat:
    """``--format text`` prints the values of ``--format json``."""

    @pytest.mark.parametrize("argv, matrix, expected_code", [
        (("classify",), "example1", 0), (("bound",), "example1", 0),
        (("verify",), "example1", 0), (("lcp", "--trials", "2"), "example1", 0),
        (("lcp", "--trials", "0"), "example1", 0), (("verify",), "not_p", 2),
    ], ids=["classify", "bound", "verify", "lcp", "lcp_no_trials", "verify_exit_2"])
    def test_text_renders_the_json_values(self, capsys, data_dir, not_p_file, argv, matrix,
                                          expected_code):
        path = not_p_file if matrix == "not_p" else str(data_dir / f"{matrix}.txt")
        q = ("--q", str(data_dir / "q_minus_ones.txt")) if argv[0] == "lcp" else ()
        argv = (*argv, "--matrix", path, *q)
        json_out, json_code = run(capsys, *argv, "--format", "json")
        text_out, text_code = run(capsys, *argv, "--format", "text")
        assert text_code == json_code == expected_code
        assert text_out == render_text(json.loads(json_out)) + "\n"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_non_finite_value_is_an_error(self, fmt):
        with pytest.raises(DomainError, match="float range"):
            _emit({"value": float("nan")}, fmt)


class TestProfileOnce:
    """A command profiles M and B+ once each, however many bounds, grid
    points and class tests read the profiles."""

    @pytest.fixture
    def profile_calls(self, monkeypatch):
        calls = []
        original = nekrasov._profile

        def counted(m):
            calls.append(m.shape)
            return original(m)

        monkeypatch.setattr(nekrasov, "_profile", counted)
        return calls

    @pytest.mark.parametrize("argv", [("bound",), ("sweep", "--grid", "101")],
                             ids=["bound", "sweep"])
    @pytest.mark.parametrize("name", ["example1", "example3"])
    def test_two_profiles(self, capsys, data_dir, profile_calls, argv, name):
        _, code = run(capsys, *argv, "--matrix", str(data_dir / f"{name}.txt"))
        assert code == 0
        assert profile_calls == [(4, 4), (4, 4)]

    @pytest.mark.parametrize("name", ["example1", "example3"])
    def test_verify_two_profiles(self, capsys, data_dir, profile_calls, name):
        # The lemma suite reads the profile of its route (M or B+) and takes
        # no other.
        _, code = run(capsys, "verify", "--matrix", str(data_dir / f"{name}.txt"))
        assert code == 0
        assert profile_calls == [(4, 4), (4, 4)]


class TestCopyOnce:
    """``bound`` and ``classify`` validate and copy M once, where they enter
    ``bnekrasov._profiles``; the routes and the class tests read that copy.
    Only an input in neither class takes a second: the P-test
    ``lcp.is_p_matrix`` copies its M, at most 20 x 20, as ``as_matrix``
    does everywhere, a small cost next to its recursion."""

    # The fixtures and the n = 21 inputs are P by class; I + 10 triu(1) at
    # n = 8 is in neither class, so the P-test runs on it, and bound exits 2.
    WRITTEN = {"nekrasov": 4.0 * np.eye(21) - 0.15, "b_nekrasov": np.eye(21) + 1.0,
             "neither": np.eye(8) + 10.0 * np.triu(np.ones((8, 8)), 1)}

    @pytest.mark.parametrize("command", ["bound", "classify"])
    @pytest.mark.parametrize("source", [*WRITTEN, "example1", "example2", "example3", "example4"])
    def test_one_as_matrix_call(self, capsys, tmp_path, monkeypatch, data_dir, command, source):
        if source in self.WRITTEN:
            path = tmp_path / "m.txt"
            path.write_text(format_matrix(self.WRITTEN[source]))
        else:
            path = data_dir / f"{source}.txt"
        n = parse_matrix(path).shape[0]
        original, calls = lcpbounds.linalg.as_matrix, []

        def counted(a):
            calls.append(np.shape(a))
            return original(a)

        for module in vars(lcpbounds).values():
            if getattr(module, "as_matrix", None) is original:
                monkeypatch.setattr(module, "as_matrix", counted)
        _, code = run(capsys, command, "--matrix", str(path))
        assert code == (2 if (command, source) == ("bound", "neither") else 0)
        assert calls == [(n, n)] * (2 if source == "neither" else 1)


class TestDefaults:
    """An option left out takes the one default its ``add_argument`` names."""

    @staticmethod
    def check_classify(out, m):
        assert json.loads(out)["n"] == 4  # JSON, not text

    @staticmethod
    def check_bound(out, m):
        payload = json.loads(out)
        assert [b["theorem"] for b in payload["bounds"]] == [
            "gp_nekrasov", "new_nekrasov", "gp_bnekrasov", "new_bnekrasov"]
        # --theorem all, each parameterized bound at the midpoint of its interval
        assert bound_by_name(payload, "gp_nekrasov")["epsilon"] == (
            nekrasov.epsilon_interval_upper(m) / 2)
        assert bound_by_name(payload, "gp_bnekrasov")["epsilon"] == (
            bnekrasov.epsilon_interval_upper(m) / 2)

    @staticmethod
    def check_sweep(out, m):
        lines = out.strip().splitlines()
        assert lines[0] == "epsilon,gp_bound,new_bound" and len(lines) == 1 + 101

    @staticmethod
    def check_verify(out, m):
        payload = json.loads(out)
        assert list(payload["oracle"]) == ["max_observed", "argmax_d", "vertex_count"]
        # no --epsilon: each parameterized bound at the midpoint of its interval
        assert bound_by_name(payload, "gp_nekrasov")["epsilon"] == (
            nekrasov.epsilon_interval_upper(m) / 2)

    @staticmethod
    def check_lcp(out, m):
        assert len(json.loads(out)["certificates"]) == 100

    @pytest.mark.parametrize("command", ["classify", "bound", "sweep", "verify", "lcp"])
    def test_default(self, capsys, data_dir, command):
        path = str(data_dir / "example1.txt")
        q = ("--q", str(data_dir / "q_minus_ones.txt")) if command == "lcp" else ()
        out, code = run(capsys, command, "--matrix", path, *q)
        assert code == 0
        getattr(self, f"check_{command}")(out, parse_matrix(path))


class TestOneParser:
    """The parser built at import serves every call; no option carries over."""

    def test_epsilon_does_not_carry_over(self, capsys, data_dir):
        argv = ("bound", "--matrix", str(data_dir / "example1.txt"))
        fresh = run(capsys, *argv)
        assert run(capsys, *argv, "--epsilon", "0.1") != fresh
        assert run(capsys, *argv) == fresh

    def test_seed_does_not_carry_over(self, capsys, data_dir):
        argv = ("lcp", "--matrix", str(data_dir / "example1.txt"),
                "--q", str(data_dir / "q_minus_ones.txt"), "--trials", "2")
        fresh = run(capsys, *argv)
        assert run(capsys, *argv, "--seed", "3") != fresh
        assert run(capsys, *argv) == fresh


class TestUsageErrorExit1:
    """Usage errors exit 1, as operational errors do; 2 means that no bound applies."""

    @pytest.mark.parametrize("argv", [
        ["bound"],
        ["bound", "--matrix", "m.txt", "--epsilon", "abc"],
        [],
        ["lcp", "--matrix", "m.txt"],
    ], ids=["bound_without_matrix", "epsilon_not_a_number", "no_subcommand",
            "lcp_without_q"])
    def test_exit_1_with_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: lcp-certify") and "error: " in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: lcp-certify")


class TestFaultyFileExit1:
    """Input faults that Python or numpy itself rejects end in an error line,
    not a traceback: the command runs in a fresh interpreter and its stderr
    is read."""

    @staticmethod
    def assert_error_line(*argv):
        proc = run_fresh(*argv)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        return proc.stderr

    @pytest.mark.parametrize("content", [
        b"2\n1,0\n\xe9,1\n",
        b"1" + b"0" * 4400 + b"\n1 2\n",
        b"2\n1 0\n0 1" + b"0" * 400 + b"/3\n",
    ], ids=["not_utf8", "over_4300_digits", "fraction_overflows_double"])
    def test_error_line(self, tmp_path, content):
        path = tmp_path / "bad.txt"
        path.write_bytes(content)
        self.assert_error_line("bound", "--matrix", str(path))

    # On example 2 a bound applies and lcp draws trial points; on the not-P
    # matrix none applies, and lcp rejects the options all the same.  Each
    # line names the command's options, not the library's parameters.
    @pytest.mark.parametrize("argv, not_p, line", [
        (("lcp", "--trials", "-1"), False, "trials and seed must be nonnegative"),
        (("lcp", "--seed", "-1"), False, "trials and seed must be nonnegative"),
        (("lcp", "--trials", "-1"), True, "trials and seed must be nonnegative"),
        (("lcp", "--seed", "-1"), True, "trials and seed must be nonnegative"),
    ], ids=["lcp_negative_trials", "lcp_negative_seed", "lcp_negative_trials_not_p",
            "lcp_negative_seed_not_p"])
    def test_argument_error_line(self, data_dir, tmp_path, not_p_file, argv, not_p, line):
        matrix, q = str(data_dir / "example2.txt"), data_dir / "q_minus_ones.txt"
        if not_p:
            matrix, q = not_p_file, tmp_path / "q.txt"
            q.write_text("-1 -1\n")
        q_option = ("--q", str(q)) if argv[0] == "lcp" else ()
        assert self.assert_error_line(*argv, "--matrix", matrix, *q_option) == f"error: {line}\n"

    def test_lcp_seed_2_pow_128(self, capsys, data_dir):
        # lcp's trial points seed default_rng, which takes any nonnegative integer.
        _, code = run(capsys, "lcp", "--matrix", str(data_dir / "example2.txt"),
                      "--q", str(data_dir / "q_minus_ones.txt"), "--trials", "5",
                      "--seed", str(2**128))
        assert code == 0

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_solution_past_the_float_range(self, tmp_path, fmt):
        # Basis {0} gives x* = (1e300, 0), where w*_2 = 1e500: no float solution.
        matrix, q = tmp_path / "m.txt", tmp_path / "q.txt"
        matrix.write_text("2\n1e-100 0\n1e200 1\n")
        q.write_text("-1e200 1\n")
        self.assert_error_line("lcp", "--matrix", str(matrix), "--q", str(q), "--trials", "2",
                               "--format", fmt)

    def test_trial_range_overflow(self, tmp_path):
        # M = I: x* = (0, 1e308), so the trial range 3(1 + ||x*||_inf) is inf.
        matrix, q = tmp_path / "m.txt", tmp_path / "q.txt"
        matrix.write_text(format_matrix(np.eye(2)))
        q.write_text("1e308 -1e308\n")
        self.assert_error_line("lcp", "--matrix", str(matrix), "--q", str(q))

    # Every row sum of |M| is past the float range: M is not SDD, its
    # comparison matrix counts as singular, no bound applies, and no warning
    # reaches stderr.
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
    @pytest.mark.parametrize("command, code", [("classify", 0), ("bound", 2), ("verify", 2)])
    def test_row_sums_past_the_float_range(self, tmp_path, command, code, sign):
        path = tmp_path / "m.txt"
        path.write_text(format_matrix(np.full((2, 2), sign * 1e308)))
        proc = run_fresh(command, "--matrix", str(path))
        assert (proc.returncode, proc.stderr) == (code, "")
        payload = json.loads(proc.stdout, parse_constant=_reject_constant)
        if command == "classify":
            flags = payload["classification"]
            assert not (flags["is_sdd"] or flags["is_h_matrix"])


# Exact and inexact, tiny, huge and past-the-square-root magnitudes: the
# inputs on which overflow, 0 * inf and ill-conditioning show.
_FUZZ_ENTRIES = st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e-13, -1e-13, 1e13, -1e13,
                                 1e200, -1e200, 1e308, -1e308, 1e-300])
# Each command with its options, and the values drawn for each (None: the
# option is left out).  The pairs in _OUT_OF_RANGE are usage errors; an
# epsilon out of a bound's interval makes that bound not applicable, which is
# not an error.
_FUZZ_COMMANDS = (("classify",), ("bound", "--theorem", "--epsilon"), ("sweep", "--grid"),
                  ("verify", "--epsilon"),
                  ("lcp", "--epsilon", "--trials", "--seed"))
_FUZZ_OPTIONS = {"--grid": (1, 2, 3), "--trials": (-1, 0, 3),
                 "--seed": (-1, 0, 42), "--theorem": ("all", "gp-nekrasov", "new-bnekrasov"),
                 "--epsilon": (None, 0.25, 2.0)}
_OUT_OF_RANGE = {("--grid", 1), ("--trials", -1), ("--seed", -1)}


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@st.composite
def lcp_inputs(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.lists(_FUZZ_ENTRIES, min_size=n * n, max_size=n * n))
    q = draw(st.lists(_FUZZ_ENTRIES, min_size=n, max_size=n))
    return np.array(m).reshape(n, n), np.array(q)


class TestContractFuzz:
    """Every command ends in exit 0, 1 or 2, and in 1 when a numeric option is
    out of range.  On 0 or 2 stdout is strict JSON (CSV for sweep) and stderr
    is empty; on 1 stderr is one ``error:`` line.  A warning fails the run
    (see pyproject.toml), as it would reach stderr.  ``verify`` exits 2
    exactly where ``bound --theorem all`` does, at the same ``--epsilon``."""

    @given(lcp_inputs(), st.fixed_dictionaries(
        {option: st.sampled_from(values) for option, values in _FUZZ_OPTIONS.items()}))
    @settings(max_examples=50, deadline=None)
    def test_exit_codes_and_output(self, drawn, options):
        m, q = drawn
        with tempfile.TemporaryDirectory() as tmp:
            matrix, q_path = Path(tmp) / "m.txt", Path(tmp) / "q.txt"
            matrix.write_text(format_matrix(m))
            q_path.write_text(" ".join(repr(float(v)) for v in q) + "\n")
            codes = {}
            for name, *named in _FUZZ_COMMANDS:
                argv = [name, "--matrix", str(matrix)]
                for option in named:
                    if options[option] is not None:
                        argv += [option, str(options[option])]
                if name == "lcp":
                    argv += ["--q", str(q_path)]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                out, err = out.getvalue(), err.getvalue()
                codes[name] = code
                assert code in (0, 1, 2), argv
                if any((option, options[option]) in _OUT_OF_RANGE for option in named):
                    assert code == 1, argv
                if code == 1:
                    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
                    continue
                assert err == "", (argv, err)
                if name != "sweep":
                    json.loads(out, parse_constant=_reject_constant)
                elif code == 0:
                    header, *rows = list(csv.reader(out.splitlines()))
                    assert header == ["epsilon", "gp_bound", "new_bound"]
                    for row in rows:
                        assert all(v == "n/a" or np.isfinite(float(v)) for v in row), row
            if options["--theorem"] == "all":
                assert (codes["verify"] == 2) == (codes["bound"] == 2), (m, options, codes)
