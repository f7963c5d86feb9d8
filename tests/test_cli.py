"""End-to-end command-line behaviour: files, summaries, exit codes."""

import json
from pathlib import Path

import pytest

from ramseymult.cli import _epsilon_ladder, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def read_config_line(path):
    first = Path(path).read_text().splitlines()[0]
    assert first.startswith("# config = ")
    return json.loads(first[len("# config = "):])


class TestArtifacts:
    def test_recurrence_csv(self, capsys):
        code, out, _ = run(capsys, "recurrence", "--t-max", "6")
        assert code == 0
        assert "negLog M[6,6]" in out
        lines = Path("recurrence.csv").read_text().splitlines()
        assert lines[1] == "k,l,neglog_value"
        assert lines[2] == "1,1,0.0"
        assert len(lines) == 2 + 36
        cfg = read_config_line("recurrence.csv")
        assert cfg["t_max"] == 6 and cfg["subcommand"] == "recurrence"

    def test_thresholds(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--t-max", "5", "--format", "json")
        assert code == 0
        doc = json.loads(Path("thresholds.json").read_text())
        assert doc["columns"] == ["i", "j", "threshold"]
        first = doc["rows"][0]
        assert first == [2, 2, 0.5]

    def test_dp_and_ramsey(self, capsys):
        code, out, _ = run(
            capsys, "dp", "--k", "5", "--l", "4", "--thresholds", "optimal"
        )
        assert code == 0 and "negLog S[5,4]" in out
        code, out, _ = run(capsys, "ramsey", "--k", "5", "--l", "5")
        assert code == 0 and "R[5,5] = 128.0" in out
        rows = Path("ramsey.csv").read_text().splitlines()
        assert rows[-1] == "5,5,128.0"

    def test_ode_trajectory(self, capsys):
        code, out, _ = run(
            capsys, "ode", "--epsilon", "0.01", "--tol", "1e-8", "--out", "tr.csv"
        )
        assert code == 0
        lines = Path("tr.csv").read_text().splitlines()
        assert lines[1].startswith("# t1 = 0.699")
        assert lines[2] == "x,t"
        assert lines[3] == "0.0,0.01"

    def test_constants(self, capsys):
        code, out, _ = run(
            capsys, "constants", "--eps-min", "1e-4", "--tol", "1e-9",
            "--format", "json",
        )
        assert code == 0 and "C = 2.18" in out
        doc = json.loads(Path("constants.json").read_text())
        assert 2.15 <= doc["c"] <= 2.21
        assert [r[0] for r in doc["rows"]] == [1e-2, 1e-3, 1e-4]
        # emitted c must recompute bit-for-bit from the emitted limit
        limit = doc["t1_limit"]
        assert doc["c"] == (limit * (1 - limit)) ** -0.5

    def test_patch(self, capsys):
        code, out, _ = run(capsys, "patch", "--t-max", "20", "--w", "4")
        assert code == 0 and "w=4" in out
        cfg = read_config_line("patch.csv")
        assert cfg["w"] == 4

    def test_multicolor_and_alpha(self, capsys):
        code, out, _ = run(capsys, "multicolor", "--q", "3", "--t-max", "4")
        assert code == 0
        lines = Path("multicolor.csv").read_text().splitlines()
        assert lines[1] == "i1,i2,i3,neglog_value"
        assert len(lines) == 2 + 64
        code, out, _ = run(capsys, "alpha", "--q", "2", "--t", "20")
        assert code == 0 and "alpha(q=2, t=20)" in out

    def test_bruteforce_json(self, capsys):
        code, out, _ = run(
            capsys, "bruteforce", "--n", "6", "--t", "3", "--format", "json"
        )
        assert code == 0 and "k_3(6) = 2" in out
        doc = json.loads(Path("bruteforce.json").read_text())
        assert doc["witness"]["kmin"] == 2
        assert doc["witness"]["witness_mask"] == "0x3bc"
        assert doc["rows"][0][3] == "1/10"

    def test_ratios(self, capsys):
        code, out, _ = run(capsys, "ratios", "--t", "3", "--n-max", "7")
        assert code == 0 and "4/35" in out
        lines = Path("ratios.csv").read_text().splitlines()
        assert lines[-1] == "7,4,4/35"
        assert lines[-2] == "6,2,1/10"

    def test_sample(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--n", "10", "--t", "3", "--samples", "200",
            "--seed", "1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(Path("sample.json").read_text())
        assert doc["report"]["samples"] == 200
        assert doc["config"]["seed"] == 1

    def test_crosscheck_agreement(self, capsys):
        code, out, _ = run(
            capsys, "crosscheck", "--t-max", "80", "--eps-min", "1e-4",
            "--tol", "1e-9",
        )
        assert code == 0
        assert "|diff|" in out


class TestConfig:
    def test_namespace_leaks_no_key(self, capsys):
        assert run(capsys, "ramsey", "--k", "10", "--l", "10")[0] == 0
        cfg = read_config_line("ramsey.csv")
        assert set(cfg) == {"subcommand", "out", "format", "k", "l", "thresholds"}
        assert cfg["out"] == "ramsey.csv"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("recurrence", "--t-max", "8"),
            ("thresholds", "--t-max", "6", "--format", "json"),
            ("ode", "--epsilon", "0.01", "--tol", "1e-8"),
            ("bruteforce", "--n", "5", "--t", "3", "--format", "json"),
            ("sample", "--n", "8", "--t", "3", "--samples", "100", "--seed", "3"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        name = f"{argv[0]}.json" if "--format" in argv else f"{argv[0]}.csv"
        assert main([*argv]) == 0
        first = Path(name).read_bytes()
        assert main([*argv]) == 0
        assert Path(name).read_bytes() == first


class TestExitCodes:
    def test_validation_errors_exit_two(self, capsys):
        code, _, err = run(capsys, "bruteforce", "--n", "9", "--t", "3")
        assert code == 2 and "invalid request" in err
        code, _, err = run(capsys, "bruteforce", "--n", "8", "--t", "3")
        assert code == 2
        code, _, err = run(capsys, "ode", "--epsilon", "2.0")
        assert code == 2
        code, _, err = run(capsys, "multicolor", "--q", "4", "--t-max", "100")
        assert code == 2
        code, _, err = run(capsys, "dp", "--k", "5", "--l", "4", "--mode", "max",
                           "--thresholds", "patched", "--epsilon", "0.0")
        assert code == 2

    def test_numeric_errors_exit_three(self, capsys):
        # a 30-deep table has no usable default fit window
        code, _, err = run(capsys, "crosscheck", "--t-max", "30",
                           "--eps-min", "1e-3", "--tol", "1e-9")
        assert code == 3 and "numeric failure" in err

    def test_ramsey_beyond_float_range_exits_three(self, capsys, in_tmp):
        # R[k,l] = 2**(k+l-3) first leaves float range at (427, 600)
        code, _, err = run(capsys, "ramsey", "--k", "600", "--l", "600")
        assert code == 3 and "numeric failure" in err and "R[427,600]" in err
        assert not any(in_tmp.iterdir())  # no artifact, so no "inf" in one

    def test_crosscheck_disagreement_exits_three(self, capsys):
        code, out, err = run(
            capsys, "crosscheck", "--t-max", "80", "--eps-min", "1e-4",
            "--tol", "1e-9", "--max-diff", "1e-9",
        )
        assert code == 3
        assert "disagree" in err

    def test_sample_budget_exits_two_before_drawing(self, capsys, in_tmp):
        # 200000 x C(64, 2) = 403 MB, beyond the 2**28-byte budget
        code, _, err = run(capsys, "sample", "--n", "64", "--t", "3",
                           "--samples", "200000")
        assert code == 2 and "403200000 bytes" in err
        assert not any(in_tmp.iterdir())

    def test_argparse_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dp", "--bogus", "1"])
        assert exc.value.code == 2


class TestLadder:
    def test_decades(self):
        assert _epsilon_ladder(1e-4) == [1e-2, 1e-3, 1e-4]
        assert _epsilon_ladder(3e-4) == [1e-2, 1e-3, 3e-4]
        assert _epsilon_ladder(1e-2) == [1e-2]
        assert _epsilon_ladder(0.5) == [0.5]

    def test_validation(self):
        with pytest.raises(ValueError):
            _epsilon_ladder(0.0)
