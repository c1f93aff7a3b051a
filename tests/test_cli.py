import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lcpbounds
from lcpbounds import bnekrasov, nekrasov
from lcpbounds.cli import main
from lcpbounds.matrixio import format_matrix, parse_matrix


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

    def test_gp_theorem_requires_epsilon(self, capsys, data_dir):
        _, code = run(capsys, "bound", "--matrix", str(data_dir / "example1.txt"),
                      "--theorem", "gp-nekrasov")
        assert code == 1

    def test_missing_file_exit_1(self, capsys, tmp_path):
        _, code = run(capsys, "bound", "--matrix", str(tmp_path / "nope.txt"))
        assert code == 1

    def test_csv_with_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "export.csv"
        path.write_bytes(b"\xef\xbb\xbf4,-1\r\n-1,4\r\n")
        out, code = run(capsys, "bound", "--matrix", str(path))
        assert code == 0
        assert json.loads(out)["classification"]["is_nekrasov"] is True

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

    def test_bad_grid_exit_1(self, capsys, data_dir):
        _, code = run(capsys, "sweep", "--matrix", str(data_dir / "example1.txt"),
                      "--grid", "1")
        assert code == 1


class TestVerify:
    def test_example1(self, capsys, data_dir):
        out, code = run(capsys, "verify", "--matrix", str(data_dir / "example1.txt"),
                        "--samples", "500")
        assert code == 0
        payload = json.loads(out)
        new = bound_by_name(payload, "new_nekrasov")
        assert new["dominated"] is True
        assert payload["oracle"]["max_observed"] <= new["value"] * (1 + 1e-9)
        assert payload["lemma_suite"]["violations"] == 0
        assert payload["lemma_suite"]["target"] == "M"
        assert payload["kolotilina"]["dominates_inverse_norm"] is True

    def test_example3(self, capsys, data_dir):
        out, code = run(capsys, "verify", "--matrix", str(data_dir / "example3.txt"),
                        "--samples", "500")
        assert code == 0
        payload = json.loads(out)
        assert bound_by_name(payload, "new_bnekrasov")["dominated"] is True
        assert payload["lemma_suite"]["target"] == "B+"

    def test_identity(self, capsys, identity_file):
        out, code = run(capsys, "verify", "--matrix", identity_file, "--samples", "100")
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
        assert captured.err == "error: vector file contains no data\n"


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

    @pytest.mark.parametrize("command", ["bound", "classify"])
    def test_large_entries_are_p(self, tmp_path, command):
        path = tmp_path / "m.txt"
        path.write_text("2\n1e200 0\n0 1e200\n")
        proc = run_fresh(command, "--matrix", str(path))
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["classification"]["is_p_matrix"] is True

    @pytest.mark.parametrize("command", ["bound", "classify"])
    @pytest.mark.parametrize("n", [4, 13], ids=["p_tested", "p_skipped"])
    def test_classification_keys_in_order(self, capsys, tmp_path, command, n):
        path = tmp_path / "m.txt"
        path.write_text(format_matrix(4.0 * np.eye(n) - 1.0))
        out, _ = run(capsys, command, "--matrix", str(path))
        assert list(json.loads(out)["classification"]) == [
            "is_sdd", "is_z_matrix", "is_nekrasov", "is_b_matrix", "is_b_nekrasov",
            "is_h_matrix", "is_p_matrix", "notes",
        ]


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
        # The lemma suite reads the profile of its route (M or B+); only the
        # profiles of its scaled members, from (k, n) arrays of scalings, are new.
        _, code = run(capsys, "verify", "--samples", "10",
                      "--matrix", str(data_dir / f"{name}.txt"))
        assert code == 0
        assert [shape for shape in profile_calls if len(shape) == 2] == [(4, 4), (4, 4)]


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
        oracle = json.loads(out)["oracle"]
        assert (oracle["samples"], oracle["seed"]) == (10000, 42)

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
        argv = ("verify", "--matrix", str(data_dir / "example1.txt"), "--samples", "10")
        out, _ = run(capsys, *argv, "--seed", "3")
        assert json.loads(out)["oracle"]["seed"] == 3
        out, _ = run(capsys, *argv)
        assert json.loads(out)["oracle"]["seed"] == 42


class TestUsageErrorExit1:
    """Usage errors exit 1, as operational errors do; 2 means that no bound applies."""

    @pytest.mark.parametrize("argv", [
        ["bound"],
        ["bound", "--matrix", "m.txt", "--epsilon", "abc"],
        [],
        ["bound", "--matrix", "m.txt", "--theorem", "gp-nekrasov"],
        ["lcp", "--matrix", "m.txt"],
    ], ids=["bound_without_matrix", "epsilon_not_a_number", "no_subcommand",
            "gp_theorem_without_epsilon", "lcp_without_q"])
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

    @pytest.mark.parametrize("content", [
        b"2\n1,0\n\xe9,1\n",
        b"1" + b"0" * 4400 + b"\n1 2\n",
        b"2\n1 0\n0 1" + b"0" * 400 + b"/3\n",
    ], ids=["not_utf8", "over_4300_digits", "fraction_overflows_double"])
    def test_error_line(self, tmp_path, content):
        path = tmp_path / "bad.txt"
        path.write_bytes(content)
        self.assert_error_line("bound", "--matrix", str(path))

    @pytest.mark.parametrize("argv", [
        ("lcp", "--trials", "-1"),
        ("lcp", "--seed", "-1"),
        ("verify", "--seed", "-1"),
        ("verify", "--seed", str(2**128)),
    ], ids=["lcp_negative_trials", "lcp_negative_seed", "verify_negative_seed",
            "verify_seed_2_pow_128"])
    def test_argument_error_line(self, data_dir, argv):
        q = ("--q", str(data_dir / "q_minus_ones.txt")) if argv[0] == "lcp" else ()
        self.assert_error_line(*argv, "--matrix", str(data_dir / "example2.txt"), *q)
