"""End-to-end command-line behaviour: files, summaries, exit codes."""

import ast
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from argparse import Namespace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from conftest import traced_peak

from ramseymult import analytic, cli, lattice, numerics, oracle, recurrence
from ramseymult.cli import (
    _BLOCK_ROWS,
    _Decoded,
    _emit,
    _span_texts,
    _table_columns,
    _threshold_table,
    build_parser,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def substitute(monkeypatch, name, handler):
    """Make ``handler`` run in place of subcommand ``name``'s own."""
    monkeypatch.setitem(cli._SUBCOMMANDS, name, (handler, *cli._SUBCOMMANDS[name][1:]))


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


SRC = str(Path(__file__).resolve().parents[1] / "src")


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

    @pytest.mark.parametrize(
        "sub, kind",
        [("dp", k) for k in ("uniform", "erdos-szekeres", "optimal", "patched")]
        + [("ramsey", k) for k in ("uniform", "erdos-szekeres")],
    )
    def test_one_by_one_corner(self, capsys, sub, kind):
        # the corner is its own boundary cell: weight 1, R = 1
        code, _, err = run(capsys, sub, "--k", "1", "--l", "1", "--thresholds", kind)
        assert (code, err) == (0, "")
        want = ["k,l,neglog_value", "1,1,0.0"] if sub == "dp" else ["k,l,value", "1,1,1.0"]
        assert Path(f"{sub}.csv").read_text().splitlines()[-2:] == want

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

    def test_crosscheck_writes_each_routes_estimate(self, capsys):
        # each route keeps c and ln_c as it computes them: the fit of ln C
        # takes exp, the ODE's C from t(1) takes log
        rec = recurrence.estimate_growth_constant(80)
        ode, _ = analytic.estimate_limit_constants(1e-4, 1e-9)
        assert rec.c == math.exp(rec.ln_c)
        assert ode.ln_c == math.log(ode.c)
        assert ode.c == analytic.constant_from_limit(ode.terms["t1_limit"])
        code, _, _ = run(
            capsys, "crosscheck", "--t-max", "80", "--eps-min", "1e-4", "--tol", "1e-9"
        )
        assert code == 0
        lines = Path("crosscheck.csv").read_text().splitlines()
        routes = {"recurrence": rec, "ode": ode}
        assert lines[-3:] == ["route,c,ln_c"] + [
            f"{name},{est.c!r},{est.ln_c!r}" for name, est in routes.items()
        ]
        gaps = [abs(a.c - b.c) for a in routes.values() for b in routes.values()]
        assert f"# abs_diff = {max(gaps)!r}" in lines


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


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
        "rows": [list(row) for row in rows],
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
        if cfg.thresholds == "optimal":  # from the full square recurrence
            thr = recurrence.optimal_thresholds(recurrence.build_table(max(cfg.k, cfg.l)))
        else:
            thr = _threshold_table(cfg)
        rows = _table_rows(lattice.dp_min_weight(cfg.k, cfg.l, thr, exponent=cfg.mode))
    elif cfg.subcommand == "ramsey":
        columns = ["k", "l", "value"]
        table = lattice.ramsey_table(cfg.k, cfg.l, _threshold_table(cfg))
        rows = [(k, l, table.value(k, l)) for k, l, _ in _table_rows(table)]
    elif cfg.subcommand == "multicolor":
        columns = [f"i{d + 1}" for d in range(cfg.q)] + ["neglog_value"]
        neg = recurrence.multicolor_table(cfg.q, cfg.t_max).table
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
    # thin optimal DPs fill only the recurrence block they read
    ("dp", "--k", "300", "--l", "37", "--thresholds", "optimal"),
    ("dp", "--k", "37", "--l", "300", "--thresholds", "optimal"),
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
                  signalling_nan, -2.2250738585072014e-308, 9999999999999998.0, 1e-4,
                  123456789012345680.0, 1743829569681555.2, -np.nan, 1.7976931348623157e308]
        random_bits = np.random.default_rng(5).integers(0, 2**64, 4000, dtype=np.uint64)
        floats += random_bits.view(np.float64).tolist()
        mixed = ["0x3bc", 7, 1.5, float("nan"), "a/b"]
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
            table = recurrence.build_table(t)
            cfg = Namespace(subcommand="x", format="csv", out=str(tmp_path / f"{t}.csv"))
            _, peak = traced_peak(lambda: _emit(cfg, ["k", "l", "v"], _table_columns(table), {}))
            peaks.append(peak)
        assert peaks[1] <= 1.1 * peaks[0]

    def test_memory_of_one_default_span(self, tmp_path):
        # a 500 x 500 table is one span at the default sizes; with a sorted
        # copy searched block by block the writer's traced peak was 5.61 MiB,
        # and the span's int32 inverse (about 1 MiB) is all that may add to
        # it: an np.unique inverse with its int64 temporaries adds about 7
        cfg = Namespace(subcommand="x", format="csv", out=str(tmp_path / "x.csv"))
        columns = ["k", "l", "v"]
        _emit(cfg, columns, _table_columns(recurrence.build_table(20)), {})  # loads the formatter
        table = recurrence.build_table(500)
        assert table.table[1:, 1:].size <= cli._SPAN_ROWS
        _, peak = traced_peak(_emit, cfg, columns, _table_columns(table), {})
        assert peak <= (5.61 + 1.25) * 2**20

    @pytest.mark.parametrize(
        "argv, shape",  # shape with index 0 of each axis
        [
            (("recurrence", "--t-max", "600"), (601, 601)),
            (("ramsey", "--k", "600", "--l", "400"), (601, 401)),
        ],
        ids=["recurrence", "ramsey"],
    )
    def test_whole_call_memory_near_the_table(self, monkeypatch, argv, shape):
        # fill, columns and writer together hold the table and span- and
        # block-sized temporaries, no column or copy the size of the table;
        # 1024-row blocks keep the formatter's fixed block temporaries
        # (about 220 bytes a value) small beside it
        monkeypatch.setattr(cli, "_SPAN_ROWS", 4096)
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 1024)
        small = [argv[0]] + [a if a.startswith("-") else "20" for a in argv[1:]]
        assert main(small) == 0  # imports and constant tables, outside the count
        code, peak = traced_peak(main, list(argv))
        assert code == 0
        assert peak <= 1.5 * 8 * math.prod(shape)


class TestSpanTexts:
    # one span of several default blocks, the last one short, read from a
    # strided view so its cells are read in row-major order
    lo = 5
    hi = lo + 3 * _BLOCK_ROWS + 7

    def column(self, pool):
        rng = np.random.default_rng(3)
        grid = np.zeros((self.hi, 3), pool.dtype)
        grid[:, 1:] = pool[rng.integers(0, len(pool), (self.hi, 2))]
        return grid[:, 1:]

    def texts_by_block(self, mat, rows_of):
        for a in range(self.lo, self.hi, _BLOCK_ROWS):
            rows = rows_of(a, min(a + _BLOCK_ROWS, self.hi))
            assert rows.dtype == np.int32
            yield [bytes(row).rstrip(b"\0").decode() for row in mat[rows]]

    @pytest.mark.parametrize("decoded", [False, True], ids=["plain", "decoded"])
    def test_floats_one_text_per_bit_pattern(self, decoded):
        other_nan = np.array([0xFFF8_0000_0000_0001], np.uint64).view(np.float64)[0]
        pool = np.concatenate([
            [0.0, -0.0, np.nan, other_nan, np.inf, 5e-324],
            np.random.default_rng(4).standard_normal(500),
        ])
        col = self.column(pool)
        cells = col.ravel()[self.lo : self.hi]
        bits = set(cells.view(np.int64).tolist())
        assert set(pool[:4].view(np.int64).tolist()) <= bits  # both zeros, both NaNs
        seen = []

        def decode(x):
            seen.extend(x.view(np.int64).tolist())
            return -x

        arg = _Decoded(col, decode) if decoded else col
        mat, rows_of = _span_texts(arg, self.lo, self.hi, "csv")
        assert len(mat) == len(bits)
        if decoded:  # each distinct value decoded once
            assert sorted(seen) == sorted(bits)
            cells = -cells
        blocks = list(self.texts_by_block(mat, rows_of))
        assert len(blocks) == 4
        assert sum(blocks, []) == [repr(v) for v in cells.tolist()]

    def test_integers_one_text_per_value(self):
        pool = np.random.default_rng(5).integers(-(2**62), 2**62, 300)
        col = self.column(pool)
        cells = col.ravel()[self.lo : self.hi]
        mat, rows_of = _span_texts(col, self.lo, self.hi, "csv")
        assert len(mat) == len(set(cells.tolist()))
        blocks = list(self.texts_by_block(mat, rows_of))
        assert sum(blocks, []) == [str(v) for v in cells.tolist()]


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


class TestPinnedBytes:
    """sha256 of the t = 500 tables artifacts, taken from the writer that
    ravelled whole columns, of the ODE route's artifacts, taken before
    its records and epsilon ladder were trimmed, of the oracle, JSON and
    patch artifacts, taken while their records were still dataclasses,
    of the n = 8 scans, taken while the scan held its whole weight
    table, and of `alpha --q 3 --t 60`, `--q 4 --t 20` and `--q 3 --t 150
    --format json`, taken while alpha filled the whole q-colour table
    (Linux x86-64, numpy 2.4.6); the sample artifact's pin is of the
    random.Random word stream (CPython 3.11), and the constants pin is of
    its extras after ``error_bar`` was renamed ``t1_spread``, the spread of
    t1 in t1 units rather than a bar on C; the two patched pins (``dp
    --thresholds patched``, ``patch``) are of the profile read from the
    solver's dense output.  Reruns of one version
    agree by construction; these pins hold the bytes across versions of
    the writer, the solvers, the records and the formatter."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("recurrence", "--t-max", "500", "--out", "recurrence.csv"),
                "70f69a47f1c9ae8e47c48c1a540b18da7f0f0665649ea8600cc1c95898dabd9e",
            ),
            (
                ("dp", "--k", "500", "--l", "500", "--thresholds", "optimal", "--out", "dp-optimal.csv"),
                # ac19fb51…30ef7b while an upper-wedge cell took -log(1 - (1 - t))
                "c13559ae86cc3df349ef790845e12836fc08956412d7b2f2288ba4ee76f33d8c",
            ),
            (
                ("dp", "--k", "500", "--l", "500", "--thresholds", "patched", "--out", "dp-patched.csv"),
                # 2bf741dd…cdbbd6 while the profile was read off a PCHIP of the samples
                "90a45c382832f9072fa691655447436d282dca4fca0497196c4ab81d443fc1ec",
            ),
            (
                ("ramsey", "--k", "500", "--l", "500", "--out", "ramsey.csv"),
                "8ee27eff293d292b39a5ffb14ee24aa288a7567dc8b495905491ec46413a9eb0",
            ),
            (
                ("constants", "--out", "constants.csv"),
                # 8023be4b…736bd6 while the t1 spread was named error_bar
                "503ea8d1fe10bc6a5ced4ca11307cbba208fd34c84e75b49ef3863931a1b5a5c",
            ),
            (
                ("crosscheck", "--t-max", "400", "--out", "crosscheck.csv"),
                "b96ac44da9bcecec13783f2836b7a99c95297f986122376eb2279cfc7519fc97",
            ),
            (
                ("ode", "--epsilon", "1e-6", "--out", "ode.csv"),
                "86cc37fc9e4939621aba7c6ffe31131e1e166b665f4d433df3cc7fb2dcbd8740",
            ),
            (
                ("bruteforce", "--n", "6", "--t", "3", "--format", "json", "--out", "bruteforce.json"),
                "511714ee9617ddc6f8aa394b88362bcc3b164d55149e4f0ea5452e697c3aa8bd",
            ),
            (
                ("ratios", "--t", "3", "--n-max", "6", "--out", "ratios.csv"),
                "ed42db37b15d66ef82dbd53b62476a41ddfdcd6ba7c65af93dcc82721505ea1a",
            ),
            (
                (
                    "sample", "--n", "10", "--t", "3", "--samples", "2000", "--seed", "1",
                    "--format", "json", "--out", "sample.json",
                ),
                # 670ea544…a47a0 while numpy's generator drew one uint8 per edge,
                # 8a431836…2c83b while the report echoed a complement flag
                "ea0258aa206b86cdffaae24e5ea1b8be9965ce00e671c47f8ad65ade0cdf5a81",
            ),
            (
                ("patch", "--t-max", "100", "--out", "patch.csv"),
                # 8672533f…a2e1f while the profile was read off a PCHIP of the samples
                "0017aad5f5309aed2679d34fabaf8ff2a679fce3b261f04f692beae44d09a354",
            ),
            (
                ("bruteforce", "--n", "8", "--t", "3", "--large", "--format", "json", "--out", "bruteforce8.json"),
                "2f2a06aa7fef783ebb22a06d3251d5bdb6c0b3a290f51f34960311f6db889b75",
            ),
            (
                ("bruteforce", "--n", "8", "--t", "4", "--large", "--format", "json", "--out", "bruteforce8t4.json"),
                "5c8b0060ccf5bde0acd4a0331f1f5673b4db75b97ef37164b119779010120ae2",
            ),
            (
                ("ratios", "--t", "4", "--n-max", "8", "--large", "--out", "ratios8.csv"),
                "a18085593b2ab47dc3dd7a83b583f43d8f4e0638176c6f72de4e74cc5d9d8c3f",
            ),
            (
                ("alpha", "--q", "3", "--t", "60", "--out", "alpha3.csv"),
                "30eff5b84ac19082affe950c137edc7ad3892f78a547dc2fec31ec312a070154",
            ),
            (
                ("alpha", "--q", "4", "--t", "20", "--out", "alpha4.csv"),
                "b6c38e5c078eb073fce7ce39a971b59b65ca4c931789fe3099915b07234265ac",
            ),
            (
                ("alpha", "--q", "3", "--t", "150", "--format", "json", "--out", "alpha3.json"),
                "2778a1ce5f08a5976c527649527f257f7608b9d51410206f3db8c4021635e609",
            ),
        ],
        ids=[
            "recurrence", "dp-optimal", "dp-patched", "ramsey", "constants", "crosscheck", "ode",
            "bruteforce-json", "ratios", "sample-json", "patch",
            "bruteforce8-json", "bruteforce8t4-json", "ratios8",
            "alpha3", "alpha4", "alpha3-json",
        ],
    )
    def test_table_artifact_sha256(self, capsys, argv, digest):
        assert main(list(argv)) == 0
        assert hashlib.sha256(Path(argv[-1]).read_bytes()).hexdigest() == digest


class TestExitCodes:
    def test_validation_errors_exit_two(self, capsys):
        code, _, err = run(capsys, "bruteforce", "--n", "9", "--t", "3")
        assert code == 2 and "invalid request" in err
        code, _, err = run(capsys, "bruteforce", "--n", "8", "--t", "3")
        assert code == 2 and "--large" in err  # the flag a user can type
        code, _, err = run(capsys, "ratios", "--t", "3", "--n-max", "8")
        assert code == 2 and "--large" in err
        code, _, err = run(capsys, "ode", "--epsilon", "2.0")
        assert code == 2
        code, _, err = run(capsys, "multicolor", "--q", "4", "--t-max", "100")
        assert code == 2
        code, _, err = run(capsys, "dp", "--k", "5", "--l", "4", "--mode", "max",
                           "--thresholds", "patched", "--epsilon", "0.0")
        assert code == 2

    @pytest.mark.parametrize(
        "exc, code",
        [
            (lattice.TooMany, 2),
            (lattice.OutOfRange, 2),
            (oracle.TooLarge, 2),
            (oracle.CheckFailed, 3),
            (analytic.InvalidEpsilon, 2),
            (numerics.BudgetExceeded, 2),
            (numerics.SingularField, 3),
            (numerics.NoBracket, 3),
            (numerics.Degenerate, 3),
            (analytic.Overflow, 3),
            (recurrence.WindowTooSmall, 2),
            (OverflowError, 3),
            (ZeroDivisionError, None),  # not the CLI's to classify
        ],
    )
    def test_exit_code_of_each_exception(self, capsys, monkeypatch, in_tmp, exc, code):
        def handler(cfg):
            raise exc("raised by the handler")

        substitute(monkeypatch, "alpha", handler)
        if code is None:
            with pytest.raises(exc):
                main(["alpha"])
            return
        got, out, err = run(capsys, "alpha")
        why = "invalid request" if code == 2 else "numeric failure"
        assert got == code and out == ""
        assert err == f"ramseymult alpha: {why}: raised by the handler\n"
        assert not any(in_tmp.iterdir())

    def test_numeric_errors_exit_three(self, capsys):
        # R[k,l] = 2**(k+l-3) leaves float range inside the 600 x 600 table
        code, _, err = run(capsys, "ramsey", "--k", "600", "--l", "600")
        assert code == 3 and "numeric failure" in err

    def test_step_floor_follows_x(self, capsys):
        # the first steps from t(0) = 1e-11 or 1e-12 are near 1e-14, and x
        # there is no larger, so an absolute floor of 1e-14 refused them
        def t1(epsilon):
            code, _, err = run(capsys, "ode", "--epsilon", epsilon, "--format", "json")
            assert (code, err) == (0, "")
            return json.loads(Path("ode.json").read_text())["t1"]

        reference = t1("1e-10")
        for epsilon in ("1e-11", "1e-12"):
            assert abs(t1(epsilon) - reference) <= 1e-12
        # from 1e-13 the field's denominator floor refuses the start
        code, _, err = run(capsys, "ode", "--epsilon", "1e-13")
        assert code == 2 and "invalid request" in err

    def test_oracle_self_check_exits_three(self, capsys, monkeypatch, in_tmp):
        # a failed self-check leaves a minimum the oracle cannot vouch for
        monkeypatch.setattr(oracle, "_goodman_minimum", lambda n: -1)
        code, out, err = run(capsys, "bruteforce", "--n", "5", "--t", "3")
        assert (code, out) == (3, "")
        assert err == (
            "ramseymult bruteforce: numeric failure: "
            "scan minimum disagrees with Goodman's closed form\n"
        )
        assert not any(in_tmp.iterdir())

    @pytest.mark.parametrize("t_max", ["2", "39"])
    def test_unrunnable_fit_window_exits_two_before_the_fill(
        self, capsys, in_tmp, monkeypatch, t_max
    ):
        # a diagonal shorter than 40 has no default fit window, which is
        # known before any work: a refused request, not a numeric failure
        def diagonal(*args):
            raise AssertionError("streamed the diagonal of an unrunnable window")

        monkeypatch.setattr(recurrence, "diagonal", diagonal)
        code, out, err = run(capsys, "crosscheck", "--t-max", t_max)
        assert (code, out) == (2, "")
        assert err == (
            f"ramseymult crosscheck: invalid request: "
            f"t_max={t_max} leaves no stable default fit window\n"
        )
        assert not any(in_tmp.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ("constants", "--eps-min", "0.05"),
            ("constants", "--eps-min", "1e-2"),
            ("crosscheck", "--t-max", "80", "--eps-min", "1e-2"),
        ],
    )
    def test_one_rung_ladder_exits_two(self, capsys, in_tmp, argv):
        # a ladder of one epsilon has no spread, so no honest error bar
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "invalid request" in err
        assert "at least two rungs" in err
        assert not any(in_tmp.iterdir())

    @pytest.mark.parametrize(
        "eps_min, why",
        [
            ("0.05", "at least two rungs"),
            ("1e-2", "at least two rungs"),
            # no solve starts below the field's denominator floor
            ("1e-13", "eps-min must lie in [1e-12, 1), got 1e-13"),
        ],
        ids=["0.05", "1e-2", "1e-13"],
    )
    def test_crosscheck_refuses_its_ladder_before_the_fill(
        self, capsys, in_tmp, monkeypatch, eps_min, why
    ):
        def diagonal(*args):
            raise AssertionError("streamed the diagonal before checking the ladder")

        monkeypatch.setattr(recurrence, "diagonal", diagonal)
        code, out, err = run(capsys, "crosscheck", "--t-max", "3000", "--eps-min", eps_min)
        assert code == 2 and out == "" and why in err
        assert not any(in_tmp.iterdir())

    def test_crosscheck_budget_still_comes_before_the_ode(self, capsys, in_tmp):
        # the streaming bound refuses before any solve of a ladder that runs
        code, _, err = run(capsys, "crosscheck", "--t-max", "20001", "--eps-min", "1e-11")
        assert code == 2 and "exceeds the streaming bound t <= 20000" in err
        assert not any(in_tmp.iterdir())

    @pytest.mark.parametrize("argv", ["crosscheck --t-max 20001", "alpha --q 2 --t 20001"])
    def test_streaming_bound_exits_two_before_work(self, capsys, monkeypatch, in_tmp, argv):
        # the diagonal is streamed in O(t) memory, so t, not the cell
        # budget, bounds it; nothing is filled or solved before the refusal
        def never(*args, **kwargs):
            raise AssertionError("worked on a refused request")

        monkeypatch.setattr(recurrence, "wavefront_fill", never)
        monkeypatch.setattr(analytic, "solve_threshold_ode", never)
        argv = argv.split()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"ramseymult {argv[0]}: invalid request: "
            "a diagonal to t = 20001 exceeds the streaming bound t <= 20000\n"
        )
        assert not any(in_tmp.iterdir())

    @pytest.mark.parametrize(
        "argv, why",
        [
            ("alpha --q 3 --t 737", "a diagonal to t = 737 exceeds the streaming bound t <= 736"),
            ("alpha --q 4 --t 101", "a diagonal to t = 101 exceeds the streaming bound t <= 100"),
            ("alpha --q 4 --t 142", "a diagonal to t = 142 exceeds the streaming bound t <= 100"),
            ("alpha --q 17 --t 2", "a diagonal to t = 2 exceeds the streaming bound t <= 1"),
            (
                "multicolor --q 10000 --t-max 2",
                "q = 10000 colours need at least 2^q cells, over the budget of 20000000",
            ),
            (
                "alpha --q 10000 --t 2",
                "q = 10000 colours need at least 2^q cells, over the budget of 20000000",
            ),
        ],
        ids=[
            "alpha --q 3 --t 737",
            "alpha --q 4 --t 101",
            "alpha --q 4 --t 142",
            "alpha --q 17 --t 2",
            "multicolor --q 10000",
            "alpha --q 10000",
        ],
    )
    def test_every_q_is_refused_at_once(self, capsys, monkeypatch, in_tmp, argv, why):
        # t^q <= 20000^2 bounds a stream's time (t <= 736 at q = 3); from
        # q = 4 its memory budget binds first, and the one refusal names
        # the edge of both (t <= 100 at q = 4, no t >= 2 from q = 17); a
        # q of 25 or more is refused before any q-long shape or 3^q count
        def never(*args, **kwargs):
            raise AssertionError("called back on a refused request")

        monkeypatch.setattr(recurrence, "_recurrence_weights", never)
        monkeypatch.setattr(recurrence, "_recurrence_cell", never)
        argv = argv.split()
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 0.5
        assert (code, out) == (2, "")
        assert err == f"ramseymult {argv[0]}: invalid request: {why}\n"
        assert not any(in_tmp.iterdir())

    def test_crosscheck_past_the_cell_budget_holds_o_t_memory(self, capsys):
        # (4472 + 1)^2 cells, the first square past the budget, would be a
        # 160 MB table; the streamed fill holds a few antidiagonals
        assert run(capsys, "crosscheck", "--t-max", "60")[0] == 0  # imports, outside the count
        (code, out, err), peak = traced_peak(run, capsys, "crosscheck", "--t-max", "4472")
        assert code == 0 and err == "" and out.startswith("C(recurrence) = ")
        assert peak <= 1000 * 4472

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

    def test_ramsey_overflow_found_before_the_file_is_opened(self, capsys, in_tmp):
        # erdos-szekeres values first leave float range at (394, 700), far
        # from the corner: the whole table is scanned before any byte is
        # written, and the first cell in row-major order is named
        code, out, err = run(
            capsys, "ramsey", "--k", "700", "--l", "700", "--thresholds", "erdos-szekeres"
        )
        assert code == 3 and out == ""
        assert err == (
            "ramseymult ramsey: numeric failure: "
            "R[394,700] = 2**1024.528137273551 is beyond float range\n"
        )
        assert not any(in_tmp.iterdir())

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
            ("multicolor", "--q", "3", "--t-max", "271"),  # 272^3 = 20123648
        ],
        ids=" ".join,
    )
    def test_table_budget_exits_two(self, capsys, in_tmp, argv):
        # (4472 + 1)^2 cells is the first square past the 20-million budget
        code, _, err = run(capsys, *argv)
        assert code == 2 and "cells exceeds the budget of 20000000" in err
        assert not any(in_tmp.iterdir())

    @pytest.mark.parametrize(
        "k, l, thresholds, why",
        [
            (0, 5, "optimal", "table corner must have k >= 1 and l >= 1"),
            (0, 5, "patched", "table corner must have k >= 1 and l >= 1"),
            (5, -1, "erdos-szekeres", "table corner must have k >= 1 and l >= 1"),
            (4472, 4472, "optimal", "4473 x 4473 table = 20007729 cells exceeds the budget of 20000000"),
            (4472, 4472, "patched", "4473 x 4473 table = 20007729 cells exceeds the budget of 20000000"),
        ],
        ids=["corner-optimal", "corner-patched", "corner-erdos-szekeres", "cells-optimal", "cells-patched"],
    )
    def test_dp_refuses_before_any_thresholds(
        self, capsys, in_tmp, monkeypatch, k, l, thresholds, why
    ):
        def never(*args, **kwargs):
            raise AssertionError("built thresholds for a refused DP")

        monkeypatch.setattr(analytic, "solve_threshold_ode", never)
        monkeypatch.setattr(recurrence, "build_table", never)
        monkeypatch.setattr(lattice.ThresholdSequence, "erdos_szekeres", never)
        argv = ["dp", "--k", str(k), "--l", str(l), "--thresholds", thresholds]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"ramseymult dp: invalid request: {why}\n"
        assert not any(in_tmp.iterdir())

    @pytest.mark.parametrize(
        "argv, why",
        [
            ("dp --k 5 --l 5 --thresholds patched --w 5", "patch width 5 must satisfy 1 <= w < max(k, l, 2) = 5"),
            ("dp --k 1 --l 1 --thresholds patched --w 3", "patch width 3 must satisfy 1 <= w < max(k, l, 2) = 2"),
            ("patch --t-max 5 --w 5", "patch width 5 must satisfy 1 <= w < t_max"),
        ],
    )
    def test_patch_width_refusal_names_the_options(self, capsys, in_tmp, argv, why):
        # dp has no --t-max: its patched table has size max(k, l, 2)
        argv = argv.split()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"ramseymult {argv[0]}: invalid request: {why}\n"
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

    @pytest.mark.parametrize("k, l", [(300, 2), (2, 300), (4472, 2), (2, 4472)])
    def test_thin_optimal_dp_reads_a_thin_recurrence(self, capsys, k, l):
        # (4472 + 1)^2 cells would be refused; the DP reads a 4473 x 3 block
        argv = ["dp", "--k", str(k), "--l", str(l), "--thresholds", "optimal"]
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        text = Path("dp.csv").read_text()
        assert len(text.splitlines()) == 2 + k * l
        if max(k, l) < 1000:  # the square reference is cheap here
            assert text == reference_artifact(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            "constants --tol inf",
            "ode --tol inf",
            "ode --tol nan",
            "ode --tol 0",
            "patch --tol=-1e-9",
            "dp --k 5 --l 5 --thresholds patched --tol inf",
            "crosscheck --t-max 3000 --tol nan",
            "crosscheck --max-diff nan",
            "crosscheck --max-diff -1",
            "crosscheck --max-diff inf",
        ],
    )
    def test_unusable_tolerance_exits_two_before_work(self, capsys, monkeypatch, in_tmp, argv):
        def never(cfg):
            raise AssertionError("handler ran")

        argv = argv.split()
        flag = "--max-diff" if "--max-diff" in argv else "--tol"
        substitute(monkeypatch, argv[0], never)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(f"ramseymult {argv[0]}: invalid request: {flag} must be ")
        assert not any(in_tmp.iterdir())

    def test_crosscheck_disagreement_exits_three(self, capsys):
        code, out, err = run(
            capsys, "crosscheck", "--t-max", "80", "--eps-min", "1e-4",
            "--tol", "1e-9", "--max-diff", "1e-9",
        )
        assert code == 3
        assert "disagree" in err

    def test_sample_budget_exits_two_before_drawing(self, capsys, in_tmp):
        # 200000 x C(64, 2) = 403 M edge draws, beyond the budget of 2**28
        code, _, err = run(capsys, "sample", "--n", "64", "--t", "3",
                           "--samples", "200000")
        assert code == 2 and "403200000 edge draws" in err and "32 MiB of packed planes" in err
        assert not any(in_tmp.iterdir())

    def test_negative_seed_exits_two_before_drawing(self, capsys, in_tmp):
        # random.Random would fold -1 onto 1; the sampler refuses it instead
        code, out, err = run(capsys, "sample", "--n", "10", "--t", "3", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == (
            "ramseymult sample: invalid request: "
            "seed must be a non-negative integer, got -1\n"
        )
        assert not any(in_tmp.iterdir())

    @pytest.mark.parametrize(
        "out, why", [(".", "is a directory"), ("missing/x.csv", "no directory missing")]
    )
    def test_unwritable_out_exits_two_before_work(self, capsys, monkeypatch, out, why):
        def never(cfg):
            raise AssertionError("handler ran")

        substitute(monkeypatch, "recurrence", never)
        code, out_text, err = run(capsys, "recurrence", "--out", out)
        assert code == 2 and out_text == ""
        assert err.count("\n") == 1 and why in err

    def test_write_failure_exits_two(self, capsys, monkeypatch, in_tmp):
        # the directory goes away while the handler runs
        (in_tmp / "gone").mkdir()
        real = cli._SUBCOMMANDS["alpha"][0]

        def remove_then_run(cfg):
            (in_tmp / "gone").rmdir()
            return real(cfg)

        substitute(monkeypatch, "alpha", remove_then_run)
        code, out, err = run(capsys, "alpha", "--t", "5", "--out", "gone/a.csv")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "cannot write --out gone/a.csv" in err
        assert not any(in_tmp.iterdir())

    def test_argparse_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dp", "--bogus", "1"])
        assert exc.value.code == 2


_VALID = {
    "recurrence": ["--t-max", "8"],
    "thresholds": ["--t-max", "6", "--format", "json"],
    "dp": ["--k", "3", "--l", "3", "--thresholds", "patched", "--w", "1"],
    "ramsey": ["--k", "3", "--l", "3", "--thresholds", "erdos-szekeres"],
    "ode": ["--epsilon", "0.01", "--tol", "1e-8"],
    "constants": ["--eps-min", "1e-3"],
    "patch": ["--t-max", "10", "--out", "p.csv"],
    "multicolor": ["--q", "3", "--t-max", "5"],
    "alpha": ["--q", "2", "--t", "5"],
    "bruteforce": ["--n", "5", "--t", "3", "--large"],
    "ratios": ["--t", "3", "--n-max", "5"],
    "sample": ["--n", "6", "--t", "3", "--samples", "50"],
    "crosscheck": ["--t-max", "60", "--max-diff", "0.1"],
}


def _parse(capsys, parser, argv):
    """The namespace of ``argv``, or the exit code and output of a parse
    that exits."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err


class TestOneSubparser:
    """A call names its subcommand first, and only that subparser is built;
    it parses, helps and fails as the full parser does."""

    def test_every_subcommand_has_a_handler(self):
        assert set(_VALID) == set(cli._SUBCOMMANDS)

    @pytest.mark.parametrize("name", list(_VALID))
    def test_same_parse_help_and_errors_as_the_full_parser(self, capsys, name):
        one = build_parser(name)
        assert list(one._subparsers._group_actions[0].choices) == [name]
        valid = [name, *_VALID[name]]
        mistakes = [
            [name],  # a missing required option where the subcommand has one
            [name, "--format", "xml"],  # a bad choice
            [name, "--bogus", "1"],  # an unknown option
            [*valid, "extra"],  # an extra positional, in top-level usage
            [name, "--out"],  # an option without its value
        ]
        for argv in [valid, [name, "-h"], *mistakes]:
            want = _parse(capsys, build_parser(), argv)
            assert _parse(capsys, one, argv) == want, argv
        # the extra positional's usage line names every subcommand
        code, _, err = _parse(capsys, one, [*valid, "extra"])
        assert code == 2 and "{" + ",".join(cli._SUBCOMMANDS) + "}" in err

    def test_main_builds_only_the_named_subparser(self, capsys, monkeypatch):
        built = []

        def spy(subcommand=None):
            built.append(subcommand)
            return build_parser(subcommand)

        monkeypatch.setattr(cli, "build_parser", spy)
        assert main(["dp", "--k", "2", "--l", "2"]) == 0
        for argv in ([], ["-h"], ["nope"], ["--format", "json", "dp"]):
            with pytest.raises(SystemExit):
                main(argv)
        assert built == ["dp", None, None, None, None]

    @pytest.mark.parametrize(
        "argv, code, stream, text",
        [
            ([], 2, "err", "error: the following arguments are required: subcommand\n"),
            (["-h"], 0, "out", "\npositional arguments:\n  {recurrence,thresholds,dp,"),
            (["nope"], 2, "err", "error: argument subcommand: invalid choice: 'nope' (choose from"),
        ],
    )
    def test_top_level_calls_keep_the_full_parser(self, capsys, argv, code, stream, text):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == code
        shown = getattr(out, stream)
        assert shown.startswith("usage: ramseymult [-h]") and text in shown
        assert "{" + ",".join(cli._SUBCOMMANDS) + "}" in shown


def _python(code: str, *args: str, env_extra: dict | None = None):
    """``code`` run in a new interpreter on the source tree with ``args``
    as ``sys.argv[1:]``, with no ``OPENBLAS_NUM_THREADS`` unless
    ``env_extra`` sets it."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(PYTHONPATH=SRC, **(env_extra or {}))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )


def _fresh_python(code: str, env_extra: dict | None = None) -> str:
    """stdout of ``code`` in a new interpreter, which must exit 0."""
    done = _python(code, env_extra=env_extra)
    done.check_returncode()
    return done.stdout


# The two ways a process enters the CLI, each printing the freeze count
# of the collector as the process exits: the ``ramseymult`` console script
# (the wrapper that setuptools writes calls ``sys.exit(main())``) and
# ``python -m ramseymult.cli``, whose ``__main__`` block runs as runpy runs it.
_ENTRY = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
    "sys.argv[0] = 'ramseymult'\n"
)
_ENTRIES = {
    "script": _ENTRY + "from ramseymult.cli import main\nsys.exit(main())\n",
    "module": _ENTRY + "import runpy\nrunpy.run_module('ramseymult.cli', run_name='__main__')\n",
}


class TestStartup:
    @pytest.mark.parametrize(
        "argv, unloaded",
        [
            (
                ["bruteforce", "--n", "5", "--t", "3"],
                {
                    "ramseymult.analytic", "ramseymult.lattice", "ramseymult.recurrence",
                    "numpy.random",
                },
            ),
            (["constants", "--eps-min", "1e-3"], {"ramseymult.oracle", "ramseymult.lattice"}),
            # np.unique would import numpy.ma, about 11 ms of the call
            (["crosscheck", "--t-max", "60"], {"ramseymult.oracle", "numpy.ma"}),
            # no exhaustive floor at n > 8, so no Fraction and no decimal; the
            # planes are random.Random words, so no numpy.random, whose
            # import loads secrets and with it hashlib and OpenSSL
            (
                ["sample", "--n", "10", "--t", "3"],
                {"fractions", "decimal", "numpy.random", "secrets", "hashlib"},
            ),
            # integer texts are trimmed without np.strings
            (["dp", "--k", "20", "--l", "20"], {"numpy.strings"}),
        ],
    )
    def test_subcommand_loads_only_its_solvers(self, in_tmp, argv, unloaded):
        probe = (
            "import sys\n"
            "from ramseymult import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(' '.join(sys.modules))\n"
        )
        last = _fresh_python(probe).splitlines()[-1]  # after the summary line
        loaded = set(last.split())
        # records are NamedTuples or __slots__ classes: a dataclass costs
        # about 0.6 ms to create in a fresh process
        assert "ramseymult.cli" in loaded and not loaded & (unloaded | {"dataclasses"})

    def test_mode_choices_are_the_lattice_modes(self):
        dp = build_parser()._subparsers._group_actions[0].choices["dp"]
        (mode,) = [a for a in dp._actions if a.dest == "mode"]
        assert tuple(mode.choices) == lattice.EXPONENT_MODES

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
        reason="needs /proc/self/task and two CPUs",
    )
    def test_one_blas_thread_unless_the_caller_sets_it(self):
        probe = "import os, ramseymult.cli, numpy; print(len(os.listdir('/proc/self/task')))"
        assert _fresh_python(probe) == "1\n"
        assert _fresh_python(probe, {"OPENBLAS_NUM_THREADS": "2"}) == "2\n"

    @pytest.mark.parametrize("caller", [None, "2"])
    def test_import_leaves_the_environment_unchanged(self, caller):
        # a child process of the CLI sees the caller's environment
        probe = (
            "import os\n"
            "before = dict(os.environ)\n"
            "import ramseymult.cli\n"
            "print(dict(os.environ) == before, os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        )
        extra = {} if caller is None else {"OPENBLAS_NUM_THREADS": caller}
        assert _fresh_python(probe, extra) == f"True {caller}\n"

    def test_library_call_freezes_nothing(self, capsys):
        before = gc.get_freeze_count()
        assert run(capsys, "ramsey", "--k", "10", "--l", "10")[0] == 0
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("entry", list(_ENTRIES))
    @pytest.mark.parametrize(
        "argv",
        [["ramsey", "--k", "10", "--l", "10"], ["bruteforce", "--n", "6", "--t", "3"]],
        ids=["ramsey", "bruteforce"],
    )
    def test_process_entry_freezes_and_writes_the_same_bytes(self, capsys, in_tmp, entry, argv):
        done = _python(_ENTRIES[entry], *argv)
        *summary, frozen = done.stdout.splitlines(keepends=True)
        assert frozen.startswith("frozen ") and int(frozen.split()[1]) > 0
        artifact = in_tmp / f"{argv[0]}.csv"
        script_bytes = artifact.read_bytes()
        artifact.unlink()
        assert (done.returncode, "".join(summary), done.stderr) == run(capsys, *argv)
        assert artifact.read_bytes() == script_bytes

    @pytest.mark.parametrize("entry", list(_ENTRIES))
    @pytest.mark.parametrize(
        "argv",
        [["dp", "--bogus", "1"], ["nope"], ["bruteforce", "--n", "8", "--t", "3"]],
        ids=["unknown-option", "unknown-subcommand", "refused-size"],
    )
    def test_process_entry_refuses_with_the_same_text(self, capsys, in_tmp, entry, argv):
        done = _python(_ENTRIES[entry], *argv)
        try:
            want = run(capsys, *argv)
        except SystemExit as exc:  # argparse's refusal
            out = capsys.readouterr()
            want = exc.code, out.out, out.err
        assert want[0] == 2 and want[2].startswith(("usage: ramseymult", "ramseymult "))
        assert (done.returncode, done.stdout.split("frozen ")[0], done.stderr) == want
        assert not any(in_tmp.iterdir())

    def test_console_script_is_cli_main(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        project = tomllib.loads(Path(SRC).with_name("pyproject.toml").read_text())["project"]
        assert project["scripts"] == {"ramseymult": "ramseymult.cli:main"}

    def test_module_entry_calls_main_without_argv(self):
        # main() freezes the heap only when it reads the process's own argv
        tree = ast.parse(Path(SRC, "ramseymult", "cli.py").read_text())
        (block,) = [
            node for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        assert [ast.unparse(node) for node in block.body] == ["sys.exit(main())"]


class TestPublicSurface:
    def test_every_public_name_is_read(self):
        # each public name, a def, class or assigned name at a module's top
        # level, serves a subcommand, a solver or an acceptance criterion:
        # some module or criterion reads it in code, not only in a docstring
        # or a comment, and a definition, assignment or import is no read
        files = [p for p in Path(SRC, "ramseymult").glob("*.py") if p.name != "__init__.py"]
        public, read = {}, set()
        for path in files:
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    public[node.name] = path.stem
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for name in (n for t in targets for n in ast.walk(t)):
                        if isinstance(name, ast.Name):
                            public[name.id] = path.stem
        for path in [*files, Path(__file__).with_name("test_acceptance.py")]:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
        public = {name: module for name, module in public.items() if not name.startswith("_")}
        assert set(public.values()) == {p.stem for p in files}  # no module is skipped
        assert sorted(f"{public[name]}.{name}" for name in set(public) - read) == []

    # one base call per store_true option; with the flag added, the call
    # must end otherwise: in its exit code, its stdout or its artifact
    _FLAG_CALLS = {
        ("bruteforce", "--large"): ["--n", "8", "--t", "2"],
        ("ratios", "--large"): ["--t", "2", "--n-max", "8"],
        ("sample", "--large"): ["--n", "8", "--t", "3", "--samples", "64", "--format", "json"],
    }

    def test_every_flag_has_a_call(self):
        flags = {
            (name, flag)
            for name, (_, _, options) in cli._SUBCOMMANDS.items()
            for flag, kwargs in options.items()
            if kwargs.get("action") == "store_true"
        }
        assert set(self._FLAG_CALLS) == flags

    @pytest.mark.parametrize("name, flag", list(_FLAG_CALLS))
    def test_every_flag_changes_an_outcome(self, capsys, name, flag):
        def leaves(doc, path=()):
            items = doc.items() if isinstance(doc, dict) else enumerate(doc)
            for key, value in items:
                if isinstance(value, (dict, list)):
                    yield from leaves(value, (*path, key))
                else:
                    yield (*path, key), value

        def outcome(*extra):
            # the artifact's values without its config, which echoes every option
            out = Path("flag.out")
            code, stdout, _ = run(capsys, name, *self._FLAG_CALLS[name, flag], *extra,
                                  "--out", str(out))
            doc = []
            if out.exists():
                text = out.read_text()
                out.unlink()
                if text.startswith("{"):
                    doc = json.loads(text)
                    del doc["config"]
                else:
                    doc = [line for line in text.splitlines() if not line.startswith("# config = ")]
            return code, stdout, dict(leaves(doc))

        (code, stdout, plain), (flag_code, flag_stdout, flagged) = outcome(), outcome(flag)
        changed = {(plain.get(k), flagged.get(k)) for k in plain.keys() | flagged.keys()
                   if plain.get(k) != flagged.get(k)}
        # a field that reads False without the flag and True with it is its echo
        assert (code, stdout) != (flag_code, flag_stdout) or changed - {(False, True)}

    # perfbench passes or reads them; ROADMAP item 3
    _UNREAD_PARAMETERS = {
        ("oracle", "exact_min", "workers"),
        ("oracle", "_worker_count", "requested"),
        ("oracle", "_worker_count", "chunks"),
    }

    def test_every_parameter_is_read(self):
        # a parameter no body reads leaves every result unchanged
        unread = set()
        for path in Path(SRC, "ramseymult").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                read = {
                    name.id
                    for stmt in node.body
                    for name in ast.walk(stmt)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
                }
                unread |= {
                    (path.stem, node.name, arg.arg)
                    for arg in params
                    if arg is not None and arg.arg not in read
                }
        assert unread == self._UNREAD_PARAMETERS


class TestLadder:
    def test_decades(self):
        ladder = analytic.epsilon_ladder
        assert ladder(1e-4) == (1e-2, 1e-3, 1e-4)
        assert ladder(3e-4) == (1e-2, 1e-3, 3e-4)
        # every decade is the literal: dividing by 10.0 again and again
        # drifts, 1e-2 / 10 / 10 / 10 / 10 != 1e-6
        assert ladder(1e-7) == (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
        assert ladder(1e-9) == (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9)
        assert ladder(1e-11) == (
            1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11
        )
        assert ladder(3e-7) == (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 3e-7)

    @pytest.mark.parametrize("eps_min", [1e-2, 0.05, 0.5])
    def test_one_rung_refused(self, eps_min):
        with pytest.raises(
            analytic.InvalidEpsilon,
            match=r"^epsilon ladder needs at least two rungs for a spread, got 1$",
        ):
            analytic.epsilon_ladder(eps_min)

    @pytest.mark.parametrize("eps_min", ["1e-4", "1e-7"])
    def test_crosscheck_solves_one_ode(self, capsys, monkeypatch, eps_min):
        # crosscheck writes only the last rung's C; constants writes each rung
        solves, solve = [], analytic.solve_threshold_ode

        def counted(epsilon, tol):
            solves.append(epsilon)
            return solve(epsilon, tol)

        monkeypatch.setattr(analytic, "solve_threshold_ode", counted)
        flags = ["--eps-min", eps_min, "--tol", "1e-9"]
        assert run(capsys, "crosscheck", "--t-max", "80", *flags)[0] == 0
        assert solves == [float(eps_min)]
        solves.clear()
        assert run(capsys, "constants", *flags)[0] == 0
        assert solves == list(analytic.epsilon_ladder(float(eps_min)))

    def test_constants_writes_the_literals(self, capsys):
        code, _, _ = run(capsys, "constants", "--tol", "1e-9")
        assert code == 0
        rows = Path("constants.csv").read_text().splitlines()[5:]
        assert [r.split(",")[0] for r in rows] == [
            "0.01", "0.001", "0.0001", "1e-05", "1e-06", "1e-07"
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            analytic.epsilon_ladder(0.0)
        with pytest.raises(analytic.InvalidEpsilon, match=r"^eps-min must lie in \[1e-12, 1\)"):
            analytic.epsilon_ladder(1e-13)
        assert analytic.epsilon_ladder(1e-12)[-1] == 1e-12
