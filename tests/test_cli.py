"""End-to-end command-line behaviour: files, summaries, exit codes."""

import json
import tracemalloc
from argparse import Namespace
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from ramseymult import analytic, cli, lattice, recurrence
from ramseymult.cli import (
    _BLOCK_ROWS,
    _emit,
    _epsilon_ladder,
    _table_columns,
    _threshold_table,
    build_parser,
    main,
)


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


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _json_cell(v):
    return f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else v


def reference_emit(cfg, columns, rows, extras) -> str:
    """The row-wise writer the column writer replaced: the whole artefact
    as one string, every cell through ``_fmt`` or ``json.dumps``."""
    config = {k: v for k, v in vars(cfg).items() if v is not None}
    if cfg.format == "csv":
        lines = [f"# config = {json.dumps(config, sort_keys=True)}"]
        for key in sorted(extras):
            lines.append(f"# {key} = {_fmt(extras[key])}")
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        return "\n".join(lines) + "\n"
    payload = {
        "config": config,
        "columns": columns,
        "rows": [[_json_cell(v) for v in row] for row in rows],
    }
    payload.update(extras)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _table_rows(table):
    """(k, l, stored entry) of a BoundTable, row-major, cell by cell."""
    return [
        (k, l, float(table.table[k, l]))
        for k in range(1, table.rows + 1)
        for l in range(1, table.cols + 1)
    ]


def _wedge_rows(thr, j_min):
    return [
        (i, j, thr.lookup(i, j))
        for i in range(2, thr.size + 1)
        for j in range(j_min, i + 1)
    ]


def reference_artifact(argv) -> str:
    """The artefact of ``argv`` as the row-wise writer wrote it, from rows
    built cell by cell with the library's scalar accessors."""
    cfg = build_parser().parse_args(argv)
    cfg.out = cfg.out or f"{cfg.subcommand}.{cfg.format}"
    extras = {}
    if cfg.subcommand == "recurrence":
        columns = ["k", "l", "neglog_value"]
        rows = _table_rows(recurrence.build_table(cfg.t_max))
    elif cfg.subcommand == "thresholds":
        columns = ["i", "j", "threshold"]
        thr = recurrence.optimal_thresholds(recurrence.build_table(cfg.t_max))
        rows = _wedge_rows(thr, 2)
    elif cfg.subcommand == "patch":
        columns = ["i", "j", "threshold"]
        thr = analytic.assemble_patched_thresholds(cfg.epsilon, cfg.t_max, cfg.w, cfg.tol)
        rows = _wedge_rows(thr, 1)
        extras = {"w": cfg.w if cfg.w is not None else analytic.default_patch_width(cfg.t_max)}
    elif cfg.subcommand == "dp":
        columns = ["k", "l", "neglog_value"]
        thr = _threshold_table(cfg, max(cfg.k, cfg.l))
        rows = _table_rows(lattice.dp_min_weight(cfg.k, cfg.l, thr, exponent=cfg.mode))
    elif cfg.subcommand == "ramsey":
        columns = ["k", "l", "value"]
        table = lattice.ramsey_table(cfg.k, cfg.l, _threshold_table(cfg, max(cfg.k, cfg.l)))
        rows = [(k, l, table.value(k, l)) for k, l, _ in _table_rows(table)]
    elif cfg.subcommand == "multicolor":
        columns = [f"i{d + 1}" for d in range(cfg.q)] + ["neglog_value"]
        neg = recurrence.multicolor_table(cfg.q, cfg.t_max).neglog_array
        rows = [
            idx + (float(neg[idx]),)
            for idx in product(range(1, cfg.t_max + 1), repeat=cfg.q)
        ]
    else:
        raise ValueError(cfg.subcommand)
    return reference_emit(cfg, columns, rows, extras)


@pytest.fixture
def small_spans(monkeypatch):
    """Spans of 1500 rows written in blocks of 400: the test tables cross
    both boundaries several times, and no span is a whole number of blocks."""
    monkeypatch.setattr(cli, "_SPAN_ROWS", 1500)
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 400)


_TABLE_CALLS = [
    ("recurrence", "--t-max", "100"),
    ("thresholds", "--t-max", "130"),
    ("patch", "--t-max", "128", "--epsilon", "1e-2"),
    *[
        ("dp", "--k", "95", "--l", "90", "--mode", mode, "--thresholds", kind)
        for mode in ("a", "b", "max")
        for kind in ("uniform", "erdos-szekeres", "optimal", "patched")
    ],
    ("ramsey", "--k", "100", "--l", "90", "--thresholds", "uniform"),
    ("ramsey", "--k", "100", "--l", "90", "--thresholds", "erdos-szekeres"),
    ("multicolor", "--q", "3", "--t-max", "21"),
    ("multicolor", "--q", "4", "--t-max", "10"),
]

class TestColumnWriter:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", _TABLE_CALLS, ids=" ".join)
    def test_matches_row_wise_writer(self, capsys, small_spans, argv, fmt):
        argv = [*argv, "--format", fmt]
        assert main(argv) == 0
        text = Path(f"{argv[0]}.{fmt}").read_text()
        assert text.count("\n") > 5 * cli._SPAN_ROWS
        assert text == reference_artifact(argv)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("spans", ["default", "small"])
    @pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_formats_like_row_wise_writer(self, tmp_path, monkeypatch, n, spans, fmt):
        if spans == "small":  # every float value recurs in span after span
            monkeypatch.setattr(cli, "_SPAN_ROWS", 7)
            monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)
        other_nan = np.array([0xFFF8_0000_0000_0001], dtype=np.uint64).view(np.float64)[0]
        signalling_nan = np.array([0x7FF0_0000_0000_0001], dtype=np.uint64).view(np.float64)[0]
        floats = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e16, 1e-5, 5e-324, 2.0**1023, other_nan,
                  signalling_nan, -2.2250738585072014e-308]
        # a NUL in a list cell is text like any other, not padding
        mixed = [Fraction(1, 3), "0x3bc", 7, 1.5, float("nan"), "\0nul\0"]
        data = [
            np.arange(n) - 3,
            np.resize(np.array(floats), n),
            [mixed[r % len(mixed)] for r in range(n)],
        ]
        cfg = Namespace(subcommand="x", format=fmt, out=str(tmp_path / f"x.{fmt}"), w=None)
        columns, extras = ["i", "v", "o"], {"w": 3, "c": -0.0}
        assert _emit(cfg, columns, data, extras) == cfg.out
        rows = [(int(i), float(v), o) for i, v, o in zip(*data)]
        assert Path(cfg.out).read_text() == reference_emit(cfg, columns, rows, extras)

    def test_memory_bounded_by_span(self, tmp_path, monkeypatch):
        # the writer holds one span of texts, never a whole column
        monkeypatch.setattr(cli, "_SPAN_ROWS", 4096)
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 1024)
        peaks = []
        for t in (300, 600):
            data = _table_columns(recurrence.build_table(t).table[1:, 1:])
            cfg = Namespace(subcommand="x", format="csv", out=str(tmp_path / f"{t}.csv"))
            tracemalloc.start()
            try:
                _emit(cfg, ["k", "l", "v"], data, {})
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


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
        for fmt in ("csv", "json"):
            code, out, err = run(capsys, "ramsey", "--k", "600", "--l", "600", "--format", fmt)
            assert code == 3 and out == ""
            assert err == (
                "ramseymult ramsey: numeric failure: "
                "R[427,600] = 2**1024.0 is beyond float range\n"
            )
            assert not any(in_tmp.iterdir())  # no artifact, so no "inf" in one

    @pytest.mark.parametrize(
        "argv",
        [
            ("recurrence", "--t-max", "100000"),
            ("recurrence", "--t-max", "4472"),  # the smallest refused size
            ("thresholds", "--t-max", "4472"),
            ("dp", "--k", "4472", "--l", "4472"),
            ("ramsey", "--k", "10000000", "--l", "1"),  # (k + 1)(l + 1) = 20000002
            ("dp", "--k", "4472", "--l", "4472", "--thresholds", "optimal"),
            ("dp", "--k", "4472", "--l", "4472", "--thresholds", "patched"),
            ("ramsey", "--k", "100000", "--l", "100000"),
            ("ramsey", "--k", "4472", "--l", "4472", "--thresholds", "erdos-szekeres"),
            ("patch", "--t-max", "4472"),
            ("crosscheck", "--t-max", "4472"),
            ("multicolor", "--q", "3", "--t-max", "271"),  # 272^3 = 20123648
        ],
        ids=" ".join,
    )
    def test_table_budget_exits_two(self, capsys, in_tmp, argv):
        # (4472 + 1)^2 cells is the first square past the 20-million budget
        code, _, err = run(capsys, *argv)
        assert code == 2 and "cells exceeds the budget of 20000000" in err
        assert not any(in_tmp.iterdir())

    def test_dp_budget_counts_its_own_cells(self, capsys, in_tmp):
        # a long thin DP is small whatever its longer side
        code, _, _ = run(capsys, "dp", "--k", "2", "--l", "4472",
                         "--thresholds", "erdos-szekeres", "--out", "es.csv")
        assert code == 0
        code, _, _ = run(capsys, "dp", "--k", "4472", "--l", "2", "--out", "long.csv")
        assert code == 0
        code, _, _ = run(capsys, "dp", "--k", "300", "--l", "2", "--out", "short.csv")
        assert code == 0
        long_rows = Path("long.csv").read_text().splitlines()[2:]
        short_rows = Path("short.csv").read_text().splitlines()[2:]
        assert len(long_rows) == 4472 * 2
        assert long_rows[: len(short_rows)] == short_rows

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
