"""Command-line front end.

Every subcommand computes one artefact, writes it to ``--out`` (CSV by
default, JSON on request), and prints a one-line summary.  The resolved
configuration is embedded in the output, as a ``# config = {...}`` comment
line in CSV and a top-level key in JSON, so results are reproducible from
the file alone.  Outputs are byte-deterministic for a fixed configuration.

Exit codes: 0 on success, 2 for validation problems (bad arguments,
out-of-range queries, refused sizes, an unwritable ``--out``), 3 for
numeric failures (singular fields, lost brackets, degenerate fits, blown
budgets of the solvers, values beyond float range).  The exception types
carry that split: every refusal is a ``ValueError``, every numeric failure
a ``numerics.NumericFailure`` (or Python's ``OverflowError``).

A call builds the parser of its own subcommand alone, and each handler
imports the solver modules it runs, so a call loads only those.  A process
that enters through ``main()`` without argv (``python -m ramseymult.cli``,
the ``ramseymult`` script) first freezes what the imports made, so neither
the collector nor the exit-time sweep walks that heap again; a library
call ``main([...])`` leaves the caller's heap as it is.

Handlers return columns, and a filled table as it is: each index column
is the range of one axis (``_Axis``), the value column a view of the
table.  The writer reads them span by span and block by block, so beside
the table a call holds only temporaries bounded by the span.
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys
from argparse import ArgumentParser, Namespace
from typing import Callable, NamedTuple

# Each CLI process is short-lived, and an idle OpenBLAS worker thread
# would spin beside the main one for most of it, while the BLAS calls
# (the oracle's float32 products, crosscheck's least squares) are small.
# So one thread, unless the caller's environment says otherwise.
# OpenBLAS reads the variable once, when numpy first loads it, so the
# default is removed again and no child process inherits it.
_BLAS_DEFAULT = "OPENBLAS_NUM_THREADS" not in os.environ
if _BLAS_DEFAULT:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

if _BLAS_DEFAULT:
    del os.environ["OPENBLAS_NUM_THREADS"]

from .numerics import NumericFailure, check_cells

_SPAN_ROWS = 1 << 18  # rows whose equal values share one text
_BLOCK_ROWS = 8192  # rows assembled and written at a time
_JSON_FLOATS = ((b"nan", b"NaN"), (b"inf", b"Infinity"), (b"-inf", b"-Infinity"))
# (row open, cell separator, row close, row separator) as bytes
_ROW_LAYOUT = {
    "csv": (b"", b",", b"\n", b""),
    "json": (b"[\n      ", b",\n      ", b"\n    ]", b",\n    "),
}


class _Axis(NamedTuple):
    """The 1-based index column of one axis of a table of ``size`` cells,
    read in row-major order: row r holds (r // stride) % length + 1."""

    size: int
    length: int
    stride: int


class _Decoded(NamedTuple):
    """A float column written as ``decode`` of its cells: ``decode`` maps
    float64 arrays to float64 arrays, and sees each distinct value of a
    span once."""

    array: np.ndarray
    decode: Callable[[np.ndarray], np.ndarray]


def _length(col) -> int:
    return len(col) if isinstance(col, list) else col.size


def _padded(texts: np.ndarray) -> np.ndarray:
    """A bytes array of texts without NULs as a matrix, one row per text,
    NUL-padded and trimmed to the longest.  The texts are left-aligned,
    so the longest ends at the last column any text reaches."""
    mat = texts.view(np.uint8).reshape(len(texts), -1)
    return mat[:, : np.count_nonzero(mat.any(axis=0))].copy()


def _float_texts(x: np.ndarray, decode: Callable | None, fmt: str) -> np.ndarray:
    """The text matrix of float64 values, ``_BLOCK_ROWS`` at a time
    decoded and formatted by ``float_reprs`` straight into their rows of
    one ``WIDTH``-wide matrix, which is then trimmed in place."""
    from .shortest import WIDTH, float_reprs

    n = len(x)
    buf = np.empty(n * WIDTH, np.uint8)
    mat, width = buf.reshape(n, WIDTH), 1
    for lo in range(0, n, _BLOCK_ROWS):
        chunk = x[lo : lo + _BLOCK_ROWS]
        rows = mat[lo : lo + len(chunk)]
        texts = float_reprs(decode(chunk) if decode else chunk, out=rows)
        if fmt == "json":
            for text, json_text in _JSON_FLOATS:
                texts[texts == text] = json_text
        while width < WIDTH and rows[:, width].any():  # texts are left-aligned
            width += 1
    # each row moves down to its trimmed place, read before it is overwritten
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        buf[lo * width : hi * width] = mat[lo:hi, :width].ravel()
    return buf[: n * width].reshape(n, width)


def _span_texts(col, lo: int, hi: int, fmt: str):
    """(text matrix, rows_of) of rows lo to hi of a column, where
    ``rows_of(a, b)`` gives the matrix row of each of rows a to b.

    An index column formats the steps of its axis that the span crosses.
    A numeric array, read in row-major order, is formatted once per
    distinct value of the span: floats, told apart by bit pattern (so -0.0
    keeps its sign and every NaN reads "nan"), by ``float_reprs``,
    integers by numpy's conversion, which gives ``repr``'s digits.  One
    sort of the span's copy finds them, and its permutation scatters each
    cell's rank among them into an int32 inverse (a span holds at most
    2^18 rows), so a block's rows are a slice of it.  The sorted copy and
    the permutation are freed before any text is formatted; the distinct
    values and the inverse stay.  A list is formatted cell by cell."""
    if isinstance(col, _Axis):
        length, stride = col.length, col.stride
        first = lo // stride
        steps = first + np.arange(min((hi - 1) // stride - first + 1, length))
        return _padded((steps % length + 1).astype("S21")), (
            lambda a, b: (np.arange(a, b) // stride - first) % length
        )
    if isinstance(col, list):
        raw = [s.encode() for s in map(str if fmt == "csv" else json.dumps, col[lo:hi])]
        return _padded(np.array(raw)), lambda a, b: np.arange(a - lo, b - lo)
    array, decode = (col.array, col.decode) if isinstance(col, _Decoded) else (col, None)
    floats = array.dtype == np.float64
    # each row's rank among the distinct values; made first, so that the
    # sort's temporaries lie above it on the heap, which shrinks once they go
    inv = np.empty(hi - lo, np.int32)
    keys = array.flat[lo:hi]  # a copy
    if floats:
        keys = keys.view(np.int64)
    order = np.argsort(keys)
    keys = keys[order]
    new = np.empty(len(keys), bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    distinct = keys[new]
    del keys
    inv[order] = np.cumsum(new, dtype=np.int32) - 1
    del order, new
    if floats:
        mat = _float_texts(distinct.view(np.float64), decode, fmt)
    else:
        mat = _padded(distinct.astype("S21"))
    return mat, lambda a, b: inv[a - lo : b - lo]


def _write_rows(f, data: list, fmt: str) -> None:
    """Write every row, ``_BLOCK_ROWS`` at a time, each block assembled as
    one byte matrix: separator columns from a template row, cell texts
    gathered from the span's text matrices, padding masked out."""
    opening, cell_sep, closing, row_sep = _ROW_LAYOUT[fmt]
    n = _length(data[0])
    for span in range(0, n, _SPAN_ROWS):
        end = min(span + _SPAN_ROWS, n)
        texts = [_span_texts(col, span, end, fmt) for col in data]
        widths = [mat.shape[1] for mat, _ in texts]
        template, starts = bytearray(opening), []
        for c, width in enumerate(widths):
            template += cell_sep if c else b""
            starts.append(len(template))
            template += bytes(width)
        template += closing + row_sep
        block = np.tile(np.frombuffer(template, np.uint8), (min(_BLOCK_ROWS, end - span), 1))
        for lo in range(span, end, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, end)
            for (mat, rows_of), start, width in zip(texts, starts, widths):
                block[: hi - lo, start : start + width] = mat.take(rows_of(lo, hi), axis=0)
            part = block[: hi - lo]
            out = part[part != 0]
            if hi == n:  # the last row takes no separator
                out = out[: len(out) - len(row_sep)]
            f.write(out)


def _emit(cfg: Namespace, columns: list[str], data: list, extras: dict) -> str:
    """Write the artefact in the configured format; returns the path.

    ``data`` holds one entry per column, all of one length: a numpy array
    of integers or floats of any shape, its cells read in row-major order
    (a table is handed over as it is, never ravelled), an ``_Axis`` index
    column, a ``_Decoded`` float column, or a list for short object
    columns.
    """
    config = {k: v for k, v in vars(cfg).items() if v is not None}
    if cfg.format == "csv":
        lines = [f"# config = {json.dumps(config, sort_keys=True)}"]
        for key in sorted(extras):
            lines.append(f"# {key} = {extras[key]}")
        lines.append(",".join(columns))
        head, tail = "\n".join(lines) + "\n", ""
    else:
        # json.dumps lays out all but the rows; no config value or extra
        # can hold this marker of where they go
        marker = "\0rows"
        payload = {"config": config, "columns": columns, "rows": marker}
        payload.update(extras)
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        head, _, tail = text.partition(json.dumps(marker))
        if _length(data[0]):
            head, tail = head + "[\n    ", "\n  ]" + tail
        else:
            head += "[]"
    with open(cfg.out, "wb") as f:
        f.write(head.encode())
        _write_rows(f, data, cfg.format)
        f.write(tail.encode())
    return cfg.out


def _check_out(path: str) -> None:
    """Refuse an ``--out`` that is a directory or lies in a missing one,
    before any work is done; the file itself is not touched."""
    if os.path.isdir(path):
        raise ValueError(f"--out {path} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"--out {path}: no directory {parent}")


def _check_limits(cfg: Namespace) -> None:
    """Refuse a ``--tol`` that is not positive and finite, or a
    ``--max-diff`` that is not finite and >= 0, before any work: neither
    could be honoured by a solve or a comparison."""
    tol, max_diff = getattr(cfg, "tol", None), getattr(cfg, "max_diff", None)
    if tol is not None and not 0.0 < tol < math.inf:
        raise ValueError(f"--tol must be positive and finite, got {tol!r}")
    if max_diff is not None and not 0.0 <= max_diff < math.inf:
        raise ValueError(f"--max-diff must be finite and at least 0, got {max_diff!r}")


def _threshold_table(cfg: Namespace):
    """The --thresholds table of a --k x --l DP; only ``patched`` reads
    --epsilon, --w, --tol.  ``optimal`` fills only the recurrence's
    max(k, l) x min(k, l) block, all the DP reads.  Every table has size
    at least 2, so a 1 x 1 corner, which reads none, still gets one."""
    from . import lattice

    kind, size = cfg.thresholds, max(cfg.k, cfg.l, 2)
    if kind == "uniform":
        return lattice.ThresholdSequence.uniform(size)
    if kind == "erdos-szekeres":
        return lattice.ThresholdSequence.erdos_szekeres(size)
    if kind == "optimal":
        from . import recurrence

        return recurrence.optimal_thresholds(recurrence.build_table(size, min(cfg.k, cfg.l)))
    from . import analytic  # patched, the last of the parser's choices

    if cfg.w is not None and not 1 <= cfg.w < size:
        # dp has no --t-max, so the bound is named by the options it has
        raise ValueError(f"patch width {cfg.w} must satisfy 1 <= w < max(k, l, 2) = {size}")
    return analytic.assemble_patched_thresholds(cfg.epsilon, size, cfg.w, cfg.tol)


def _table_columns(table) -> list:
    """Index columns (1-based, row-major) and the value column of the
    cells of a ``BoundTable``, without the padding index 0 of any axis:
    one ``_Axis`` per axis and a view of the table, nothing copied."""
    values = table.table[(slice(1, None),) * table.table.ndim]
    shape = values.shape
    axes = [_Axis(values.size, n, math.prod(shape[a + 1 :])) for a, n in enumerate(shape)]
    return [*axes, values]


def _cmd_recurrence(cfg: Namespace) -> tuple[list, list, dict, str]:
    from . import recurrence

    table = recurrence.build_table(cfg.t_max)
    corner = table.neglog(cfg.t_max, cfg.t_max)
    return (
        ["k", "l", "neglog_value"],
        _table_columns(table),
        {},
        f"recurrence table to t_max={cfg.t_max}; negLog M[{cfg.t_max},{cfg.t_max}] = {corner!r}",
    )


def _cmd_thresholds(cfg: Namespace) -> tuple[list, list, dict, str]:
    from . import recurrence

    thr = recurrence.optimal_thresholds(recurrence.build_table(cfg.t_max))
    return (
        ["i", "j", "threshold"],
        list(thr.wedge(2)),
        {},
        f"optimal thresholds to size {cfg.t_max}; t[{cfg.t_max},2] = {thr.lookup(cfg.t_max, 2)!r}",
    )


def _cmd_dp(cfg: Namespace) -> tuple[list, list, dict, str]:
    from . import lattice

    lattice.check_corner(cfg.k, cfg.l)  # before any thresholds are built
    thr = _threshold_table(cfg)
    table = lattice.dp_min_weight(cfg.k, cfg.l, thr, exponent=cfg.mode)
    corner = table.neglog(cfg.k, cfg.l)
    return (
        ["k", "l", "neglog_value"],
        _table_columns(table),
        {},
        f"min-weight DP ({cfg.thresholds} thresholds, mode {cfg.mode}); "
        f"negLog S[{cfg.k},{cfg.l}] = {corner!r}",
    )


def _exp2(v: np.ndarray) -> np.ndarray:
    """2.0 ** v by Python's pow: np.power and np.exp2 can differ from it
    in the last bit."""
    return np.fromiter(map((2.0).__pow__, v.tolist()), np.float64, len(v))


def _cmd_ramsey(cfg: Namespace) -> tuple[list, list, dict, str]:
    from . import lattice

    thr = _threshold_table(cfg)
    table = lattice.ramsey_table(cfg.k, cfg.l, thr)
    k, l, log2 = _table_columns(table)
    if log2.max() >= 1024.0:
        # 2.0 ** v overflows from v = 1024 on: BoundTable.value names the
        # first such cell in row-major order, before the file is opened
        first = np.unravel_index(np.argmax(log2 >= 1024.0), log2.shape)
        table.value(*(int(i) + 1 for i in first))
    return (
        ["k", "l", "value"],
        [k, l, _Decoded(log2, _exp2)],
        {},
        f"max-form bound ({cfg.thresholds} thresholds); R[{cfg.k},{cfg.l}] = "
        f"{table.value(cfg.k, cfg.l)!r}",
    )


def _cmd_ode(cfg: Namespace) -> tuple[list, list, dict, str]:
    from . import analytic

    traj = analytic.solve_threshold_ode(cfg.epsilon, cfg.tol)
    return (
        ["x", "t"],
        [traj.xs, traj.ys],
        {"t1": traj.final_value},
        f"threshold profile from epsilon={cfg.epsilon!r}: "
        f"t(1) = {traj.final_value!r} over {len(traj.xs)} samples",
    )


def _cmd_constants(cfg: Namespace) -> tuple[list, list, dict, str]:
    from . import analytic

    est, series = analytic.estimate_limit_constants(cfg.eps_min, cfg.tol)
    return (
        ["epsilon", "t1"],
        [list(col) for col in zip(*series)],
        {"c": est.c, **est.terms},
        f"profile limit t1 = {est.terms['t1_limit']!r}, C = {est.c!r} "
        f"(spread {est.terms['t1_spread']:.2e})",
    )


def _cmd_patch(cfg: Namespace) -> tuple[list, list, dict, str]:
    from . import analytic

    check_cells((cfg.t_max + 1) ** 2, "(t_max + 1)^2")  # the wedge it writes
    thr = analytic.assemble_patched_thresholds(
        cfg.epsilon, cfg.t_max, w=cfg.w, tol=cfg.tol
    )
    k = cfg.t_max
    w_eff = cfg.w if cfg.w is not None else analytic.default_patch_width(k)
    return (
        ["i", "j", "threshold"],
        list(thr.wedge(1)),
        {"w": w_eff},
        f"patched thresholds to size {k} (w={w_eff}); "
        f"a_w = {thr.lookup(k, k - w_eff)!r}, t[{k},1] = {thr.lookup(k, 1)!r}",
    )


def _cmd_multicolor(cfg: Namespace) -> tuple[list, list, dict, str]:
    from . import recurrence

    table = recurrence.multicolor_table(cfg.q, cfg.t_max)
    columns = [f"i{d + 1}" for d in range(cfg.q)] + ["neglog_value"]
    diag = table.neglog(*(cfg.t_max,) * cfg.q)
    return (
        columns,
        _table_columns(table),
        {},
        f"{cfg.q}-colour table to t_max={cfg.t_max}; "
        f"negLog M[diag] = {diag!r}",
    )


def _cmd_alpha(cfg: Namespace) -> tuple[list, list, dict, str]:
    from . import recurrence

    value = recurrence.alpha_estimate(cfg.q, cfg.t)
    return (
        ["q", "t", "alpha"],
        [[cfg.q], [cfg.t], [value]],
        {},
        f"alpha(q={cfg.q}, t={cfg.t}) = {value!r}",
    )


def _ratio_text(r) -> str:
    """A Fraction as "n/d", its denominator written even when it is 1."""
    return f"{r.numerator}/{r.denominator}"


def _cmd_bruteforce(cfg: Namespace) -> tuple[list, list, dict, str]:
    from . import oracle

    rep = oracle.exact_min(cfg.n, cfg.t, large=cfg.large)
    witness = format(rep.witness.red_mask, "#x")
    return (
        ["n", "t", "kmin", "ratio", "witness_mask"],
        [[rep.n], [rep.t], [rep.kmin], [_ratio_text(rep.ratio)], [witness]],
        {"witness": rep.to_payload()} if cfg.format == "json" else {},
        f"exhaustive minimum k_{cfg.t}({cfg.n}) = {rep.kmin} "
        f"(ratio {rep.ratio}, witness {witness})",
    )


def _cmd_ratios(cfg: Namespace) -> tuple[list, list, dict, str]:
    from . import oracle

    series = oracle.ratio_series(cfg.t, cfg.n_max, large=cfg.large)
    ns, kmins, ratios = zip(*series)
    last = ratios[-1]
    return (
        ["n", "kmin", "ratio"],
        [list(ns), list(kmins), list(map(_ratio_text, ratios))],
        {},
        f"minimum ratios for t={cfg.t} up to n={cfg.n_max}; "
        f"last = {last} ({float(last):.6f})",
    )


def _cmd_sample(cfg: Namespace) -> tuple[list, list, dict, str]:
    from . import oracle

    rep = oracle.sample_against_bounds(
        cfg.n,
        cfg.t,
        samples=cfg.samples,
        seed=cfg.seed,
        large=cfg.large,
    )
    columns = ["n", "t", "samples", "mean_fraction", "expected_fraction", "stderr", "min_count"]
    return (
        columns,
        [[getattr(rep, name)] for name in columns],
        {"report": rep._asdict()} if cfg.format == "json" else {},
        f"sampled mono fraction {rep.mean_fraction:.6f} vs expected "
        f"{rep.expected_fraction:.6f} (stderr {rep.stderr:.2e})",
    )


def _cmd_crosscheck(cfg: Namespace) -> tuple[list, list, dict, str]:
    from . import analytic, recurrence

    analytic.epsilon_ladder(cfg.eps_min)  # refuses a bad ladder before the fill
    routes = {
        "recurrence": recurrence.estimate_growth_constant(cfg.t_max),  # a streamed diagonal
        "ode": analytic.limit_constant(cfg.eps_min, cfg.tol),
    }
    cs = [est.c for est in routes.values()]
    diff = max(cs) - min(cs)  # the largest gap between two routes
    summary = ", ".join(f"C({name}) = {est.c!r}" for name, est in routes.items())
    return (
        ["route", "c", "ln_c"],
        [list(routes), cs, [est.ln_c for est in routes.values()]],
        {"abs_diff": diff, "max_diff": cfg.max_diff},
        f"{summary}, |diff| = {diff:.2e} (allowed {cfg.max_diff})",
    )


_INT, _FLOAT, _FLAG = {"type": int}, {"type": float}, {"action": "store_true"}
# subcommand: (handler, help, its options beyond --out and --format)
_SUBCOMMANDS = {
    "recurrence": (
        _cmd_recurrence,
        "optimal-threshold recurrence table",
        {"--t-max": {**_INT, "default": 400}},
    ),
    "thresholds": (
        _cmd_thresholds,
        "optimal thresholds implied by the recurrence",
        {"--t-max": {**_INT, "default": 400}},
    ),
    "dp": (
        _cmd_dp,
        "minimum path-weight dynamic program",
        {
            "--k": {**_INT, "required": True},
            "--l": {**_INT, "required": True},
            # lattice.EXPONENT_MODES, spelled out so that parsing loads no solver
            "--mode": {"choices": ("a", "b", "max"), "default": "max"},
            "--thresholds": {
                "choices": ("uniform", "erdos-szekeres", "optimal", "patched"),
                "default": "uniform",
            },
            "--epsilon": {**_FLOAT, "default": 1e-3},
            "--w": {**_INT, "default": None},
            "--tol": {**_FLOAT, "default": 1e-10},
        },
    ),
    "ramsey": (
        _cmd_ramsey,
        "max-form Ramsey-number bound table",
        {
            "--k": {**_INT, "required": True},
            "--l": {**_INT, "required": True},
            "--thresholds": {"choices": ("uniform", "erdos-szekeres"), "default": "uniform"},
        },
    ),
    "ode": (
        _cmd_ode,
        "threshold profile trajectory",
        {"--epsilon": {**_FLOAT, "default": 1e-3}, "--tol": {**_FLOAT, "default": 1e-10}},
    ),
    "constants": (
        _cmd_constants,
        "profile limit and growth constant",
        {"--eps-min": {**_FLOAT, "default": 1e-7}, "--tol": {**_FLOAT, "default": 1e-10}},
    ),
    "patch": (
        _cmd_patch,
        "assembled threshold table (ODE profile + patch)",
        {
            "--epsilon": {**_FLOAT, "default": 1e-3},
            "--t-max": {**_INT, "default": 100},
            "--w": {**_INT, "default": None},
            "--tol": {**_FLOAT, "default": 1e-10},
        },
    ),
    "multicolor": (
        _cmd_multicolor,
        "q-colour recurrence table",
        {"--q": {**_INT, "default": 2}, "--t-max": {**_INT, "default": 20}},
    ),
    "alpha": (
        _cmd_alpha,
        "normalised q-colour diagonal exponent",
        {"--q": {**_INT, "default": 2}, "--t": {**_INT, "default": 100}},
    ),
    "bruteforce": (
        _cmd_bruteforce,
        "exhaustive minimum over colourings of K_n",
        {"--n": {**_INT, "required": True}, "--t": {**_INT, "required": True}, "--large": _FLAG},
    ),
    "ratios": (
        _cmd_ratios,
        "exhaustive minimum ratios across n",
        {"--t": {**_INT, "default": 3}, "--n-max": {**_INT, "default": 7}, "--large": _FLAG},
    ),
    "sample": (
        _cmd_sample,
        "random-colouring statistics against expectations",
        {
            "--n": {**_INT, "required": True},
            "--t": {**_INT, "required": True},
            "--samples": {**_INT, "default": 10_000},
            "--seed": {**_INT, "default": 0},
            "--large": _FLAG,
        },
    ),
    "crosscheck": (
        _cmd_crosscheck,
        "compare recurrence and ODE growth constants",
        {
            "--t-max": {**_INT, "default": 400},
            "--eps-min": {**_FLOAT, "default": 1e-7},
            "--tol": {**_FLOAT, "default": 1e-10},
            "--max-diff": {**_FLOAT, "default": 0.02},
        },
    ),
}


def build_parser(subcommand: str | None = None) -> ArgumentParser:
    """The parser of every subcommand, or, given one by name, of that one
    alone: its parse, help and errors are the full parser's, and only its
    options are built.  The subcommand metavar is then spelled out, as
    the top-level usage line of a sub-level error shows every name."""
    p = ArgumentParser(
        prog="ramseymult",
        description="Lower bounds for Ramsey multiplicity via threshold "
        "dynamic programs, recurrences, and an ODE limit.",
    )
    if subcommand is None:
        names, metavar = list(_SUBCOMMANDS), None
    else:
        names, metavar = [subcommand], "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = p.add_subparsers(dest="subcommand", required=True, metavar=metavar)
    for name in names:
        _, help_, options = _SUBCOMMANDS[name]
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--out", default=None, help="output path (default <subcommand>.<format>)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        for flag, kwargs in options.items():
            sp.add_argument(flag, **kwargs)
    return p


def main(argv=None) -> int:
    if argv is None:  # this process's own command line
        # most of the heap is numpy's import; the permanent generation
        # keeps it out of every collection, the ones at exit included
        gc.freeze()
        argv = sys.argv[1:]
    cfg = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None).parse_args(argv)
    cfg.out = cfg.out or f"{cfg.subcommand}.{cfg.format}"
    try:
        _check_limits(cfg)
        _check_out(cfg.out)
        columns, data, extras, summary = _SUBCOMMANDS[cfg.subcommand][0](cfg)
        path = _emit(cfg, columns, data, extras)
    except OSError as exc:  # from _emit: the handlers touch no file
        msg = f"ramseymult {cfg.subcommand}: cannot write --out {cfg.out}: {exc}"
        print(msg, file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"ramseymult {cfg.subcommand}: invalid request: {exc}", file=sys.stderr)
        return 2
    except (NumericFailure, OverflowError) as exc:
        print(f"ramseymult {cfg.subcommand}: numeric failure: {exc}", file=sys.stderr)
        return 3
    print(f"{summary} -> {path}")
    if cfg.subcommand == "crosscheck" and extras["abs_diff"] > cfg.max_diff:
        print(
            f"ramseymult crosscheck: routes disagree by {extras['abs_diff']!r}",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
