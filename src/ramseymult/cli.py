"""Command-line front end.

Every subcommand computes one artefact, writes it to ``--out`` (CSV by
default, JSON on request), and prints a one-line summary.  The resolved
configuration is embedded in the output, as a ``# config = {...}`` comment
line in CSV and a top-level key in JSON, so results are reproducible from
the file alone.  Outputs are byte-deterministic for a fixed configuration.

Exit codes: 0 on success, 2 for validation problems (bad arguments,
out-of-range queries, refused sizes), 3 for numeric failures (singular
fields, lost brackets, degenerate fits, blown budgets of the solvers,
values beyond float range).
"""

from __future__ import annotations

import json
import math
import sys
from argparse import ArgumentParser, Namespace
from fractions import Fraction
from itertools import chain

import numpy as np

from . import analytic, lattice, oracle, recurrence
from .numerics import BudgetExceeded, Degenerate, NoBracket, SingularField, check_cells

_VALIDATION_ERRORS = (
    ValueError,
    lattice.TooMany,
    lattice.OutOfRange,
    oracle.TooLarge,
    analytic.InvalidEpsilon,
    BudgetExceeded,
)
_NUMERIC_ERRORS = (
    SingularField,
    NoBracket,
    Degenerate,
    analytic.Overflow,
    recurrence.WindowTooSmall,
    OverflowError,
)

_SPAN_ROWS = 1 << 18  # rows whose equal values share one repr
_BLOCK_ROWS = 8192  # rows assembled and written at a time
_PAD = 0xFF  # pads text matrices, masked out; UTF-8 never holds this byte
_JSON_FLOATS = ((b"nan", b"NaN"), (b"inf", b"Infinity"), (b"-inf", b"-Infinity"))
# (row open, cell separator, row close, row separator) as bytes
_ROW_LAYOUT = {
    "csv": (b"", b",", b"\n", b""),
    "json": (b"[\n      ", b",\n      ", b"\n    ]", b",\n    "),
}


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _json_cell(v):
    return f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else v


def _json_text(v) -> str:
    return json.dumps(_json_cell(v))


def _span_texts(col, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """(text matrix, int32 row of it for each cell) of one span of a column.
    A numeric array goes through ``repr`` once per distinct value, floats
    told apart by bit pattern (so -0.0 keeps its sign and every NaN reads
    "nan"); a list cell by cell."""
    if not isinstance(col, np.ndarray):
        raw = [s.encode() for s in map(_fmt if fmt == "csv" else _json_text, col)]
        lengths = np.fromiter(map(len, raw), np.intp, len(raw))
        # padded by length, not by content: a NUL in a text is kept
        mat = np.full((len(raw), lengths.max(initial=0)), _PAD, np.uint8)
        mat[np.arange(mat.shape[1]) < lengths[:, None]] = np.frombuffer(b"".join(raw), np.uint8)
        return mat, np.arange(len(raw), dtype=np.int32)
    keys = col.view(np.int64) if col.dtype.kind == "f" else col
    distinct, inverse = np.unique(keys, return_inverse=True)
    values = distinct.view(col.dtype)
    # Python numbers a block at a time, not a list of the whole span
    numbers = chain.from_iterable(
        values[lo : lo + _BLOCK_ROWS].tolist() for lo in range(0, len(values), _BLOCK_ROWS)
    )
    # 24 characters hold the longest float64 or int64 repr
    texts = np.fromiter(map(repr, numbers), "S24", len(values))
    if fmt == "json":
        for text, json_text in _JSON_FLOATS:
            texts[texts == text] = json_text
    texts = texts.astype(f"S{np.strings.str_len(texts).max()}")  # contiguous for take
    mat = texts.view(np.uint8).reshape(len(texts), -1)
    mat[mat == 0] = _PAD
    return mat, inverse.astype(np.int32)


def _write_rows(f, data: list, fmt: str) -> None:
    """Write every row, ``_BLOCK_ROWS`` at a time, each block assembled as
    one byte matrix: separator columns from a template row, cell texts
    gathered from the span's text matrices, padding masked out."""
    opening, cell_sep, closing, row_sep = _ROW_LAYOUT[fmt]
    n = len(data[0])
    for span in range(0, n, _SPAN_ROWS):
        texts = [_span_texts(col[span : span + _SPAN_ROWS], fmt) for col in data]
        widths = [mat.shape[1] for mat, _ in texts]
        template, starts = bytearray(opening), []
        for c, width in enumerate(widths):
            template += cell_sep if c else b""
            starts.append(len(template))
            template += bytes([_PAD]) * width
        template += closing + row_sep
        rows = min(_BLOCK_ROWS, n - span)
        block = np.tile(np.frombuffer(template, np.uint8), (rows, 1))
        for lo in range(0, len(texts[0][1]), rows):
            for (mat, inverse), start, width in zip(texts, starts, widths):
                cells = inverse[lo : lo + rows]
                block[: len(cells), start : start + width] = mat.take(cells, axis=0)
            part = block[: len(cells)]
            out = part[part != _PAD]
            if span + lo + len(cells) == n:  # the last row takes no separator
                out = out[: len(out) - len(row_sep)]
            f.write(out)


def _emit(cfg: Namespace, columns: list[str], data: list, extras: dict) -> str:
    """Write the artefact in the configured format; returns the path.

    ``data`` holds one entry per column, all of one length: a numpy array
    of integers or floats, or a list for short object columns.
    """
    config = {k: v for k, v in vars(cfg).items() if v is not None}
    if cfg.format == "csv":
        lines = [f"# config = {json.dumps(config, sort_keys=True)}"]
        for key in sorted(extras):
            lines.append(f"# {key} = {_fmt(extras[key])}")
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
        if len(data[0]):
            head, tail = head + "[\n    ", "\n  ]" + tail
        else:
            head += "[]"
    with open(cfg.out, "wb") as f:
        f.write(head.encode())
        _write_rows(f, data, cfg.format)
        f.write(tail.encode())
    return cfg.out


def _threshold_table(cfg: Namespace, size: int):
    """The --thresholds table; only ``patched`` reads --epsilon, --w, --tol."""
    kind = cfg.thresholds
    if kind == "uniform":
        return lattice.ThresholdSequence.uniform(size)
    if kind == "erdos-szekeres":
        return lattice.ThresholdSequence.erdos_szekeres(size)
    if kind == "optimal":
        return recurrence.optimal_thresholds(recurrence.build_table(size))
    if kind == "patched":
        return analytic.assemble_patched_thresholds(cfg.epsilon, size, cfg.w, cfg.tol)
    raise ValueError(f"unknown threshold kind {kind!r}")


def _epsilon_ladder(eps_min: float) -> list[float]:
    """Decades from 1e-2 down to, and including, eps_min."""
    if not 0.0 < eps_min < 1.0:
        raise ValueError(f"eps-min must lie in (0, 1), got {eps_min!r}")
    ladder = []
    e = 1e-2
    while e > eps_min * (1.0 + 1e-9):
        ladder.append(e)
        e /= 10.0
    ladder.append(eps_min)
    return ladder


def _table_columns(values: np.ndarray) -> list[np.ndarray]:
    """Index columns (1-based, row-major) and the value column of the
    cells of ``values``, which the caller has cut to drop index 0."""
    idx = np.indices(values.shape, dtype=np.int32).reshape(values.ndim, -1) + 1
    return [*idx, values.ravel()]


def _cmd_recurrence(cfg: Namespace) -> tuple[list, list, dict, str]:
    table = recurrence.build_table(cfg.t_max)
    corner = table.neglog(cfg.t_max, cfg.t_max)
    return (
        ["k", "l", "neglog_value"],
        _table_columns(table.table[1:, 1:]),
        {},
        f"recurrence table to t_max={cfg.t_max}; negLog M[{cfg.t_max},{cfg.t_max}] = {corner!r}",
    )


def _cmd_thresholds(cfg: Namespace) -> tuple[list, list, dict, str]:
    thr = recurrence.optimal_thresholds(recurrence.build_table(cfg.t_max))
    return (
        ["i", "j", "threshold"],
        list(thr.wedge(2)),
        {},
        f"optimal thresholds to size {cfg.t_max}; t[{cfg.t_max},2] = {thr.lookup(cfg.t_max, 2)!r}",
    )


def _cmd_dp(cfg: Namespace) -> tuple[list, list, dict, str]:
    size = max(cfg.k, cfg.l)
    thr = _threshold_table(cfg, size)
    table = lattice.dp_min_weight(cfg.k, cfg.l, thr, exponent=cfg.mode)
    corner = table.neglog(cfg.k, cfg.l)
    return (
        ["k", "l", "neglog_value"],
        _table_columns(table.table[1:, 1:]),
        {},
        f"min-weight DP ({cfg.thresholds} thresholds, mode {cfg.mode}); "
        f"negLog S[{cfg.k},{cfg.l}] = {corner!r}",
    )


def _cmd_ramsey(cfg: Namespace) -> tuple[list, list, dict, str]:
    size = max(cfg.k, cfg.l)
    thr = _threshold_table(cfg, size)
    table = lattice.ramsey_table(cfg.k, cfg.l, thr)
    k, l, bits = _table_columns(table.table[1:, 1:])
    # Python's pow once per distinct value: np.power and np.exp2 can differ
    # from it in the last bit
    distinct, inverse = np.unique(bits.view(np.int64), return_inverse=True)
    try:
        decoded = list(map((2.0).__pow__, distinct.view(bits.dtype).tolist()))
    except OverflowError:
        # BoundTable.value names the first cell beyond float range
        first = int(np.argmax(bits >= 1024.0))
        table.value(int(k[first]), int(l[first]))
        raise
    values = np.array(decoded)[inverse]
    return (
        ["k", "l", "value"],
        [k, l, values],
        {},
        f"max-form bound ({cfg.thresholds} thresholds); R[{cfg.k},{cfg.l}] = {values[-1].item()!r}",
    )


def _cmd_ode(cfg: Namespace) -> tuple[list, list, dict, str]:
    traj = analytic.solve_threshold_ode(cfg.epsilon, cfg.tol)
    return (
        ["x", "t"],
        [traj.xs, traj.ys],
        {"t1": traj.final_value},
        f"threshold profile from epsilon={cfg.epsilon!r}: "
        f"t(1) = {traj.final_value!r} over {len(traj.xs)} samples",
    )


def _cmd_constants(cfg: Namespace) -> tuple[list, list, dict, str]:
    est = analytic.estimate_limit_constants(_epsilon_ladder(cfg.eps_min), cfg.tol)
    extras = {
        "t1_limit": est.t1_limit,
        "c": est.c,
        "error_bar": est.error_bar,
    }
    return (
        ["epsilon", "t1"],
        [list(col) for col in zip(*est.epsilon_series)],
        extras,
        f"profile limit t1 = {est.t1_limit!r}, C = {est.c!r} "
        f"(spread {est.error_bar:.2e})",
    )


def _cmd_patch(cfg: Namespace) -> tuple[list, list, dict, str]:
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
    table = recurrence.multicolor_table(cfg.q, cfg.t_max)
    columns = [f"i{d + 1}" for d in range(cfg.q)] + ["neglog_value"]
    diag = table.neglog_at((cfg.t_max,) * cfg.q)
    return (
        columns,
        _table_columns(table.neglog_array[(slice(1, None),) * cfg.q]),
        {},
        f"{cfg.q}-colour table to t_max={cfg.t_max}; "
        f"negLog M[diag] = {diag!r}",
    )


def _cmd_alpha(cfg: Namespace) -> tuple[list, list, dict, str]:
    value = recurrence.alpha_estimate(cfg.q, cfg.t)
    return (
        ["q", "t", "alpha"],
        [[cfg.q], [cfg.t], [value]],
        {},
        f"alpha(q={cfg.q}, t={cfg.t}) = {value!r}",
    )


def _cmd_bruteforce(cfg: Namespace) -> tuple[list, list, dict, str]:
    rep = oracle.exact_min(cfg.n, cfg.t, large=cfg.large)
    witness = format(rep.witness.red_mask, "#x")
    return (
        ["n", "t", "kmin", "ratio", "witness_mask"],
        [[rep.n], [rep.t], [rep.kmin], [rep.ratio], [witness]],
        {"witness": rep.to_payload()} if cfg.format == "json" else {},
        f"exhaustive minimum k_{cfg.t}({cfg.n}) = {rep.kmin} "
        f"(ratio {rep.ratio}, witness {witness})",
    )


def _cmd_ratios(cfg: Namespace) -> tuple[list, list, dict, str]:
    series = oracle.ratio_series(cfg.t, cfg.n_max, large=cfg.large)
    last = series[-1]
    return (
        ["n", "kmin", "ratio"],
        [list(col) for col in zip(*series)],
        {},
        f"minimum ratios for t={cfg.t} up to n={cfg.n_max}; "
        f"last = {last[2]} ({float(last[2]):.6f})",
    )


def _cmd_sample(cfg: Namespace) -> tuple[list, list, dict, str]:
    rep = oracle.sample_against_bounds(
        cfg.n,
        cfg.t,
        samples=cfg.samples,
        seed=cfg.seed,
        complement=cfg.complement,
        large=cfg.large,
    )
    row = (
        rep.n,
        rep.t,
        rep.samples,
        rep.mean_fraction,
        rep.expected_fraction,
        rep.stderr,
        rep.min_count,
    )
    return (
        ["n", "t", "samples", "mean_fraction", "expected_fraction", "stderr", "min_count"],
        [[v] for v in row],
        {"report": rep.to_payload()} if cfg.format == "json" else {},
        f"sampled mono fraction {rep.mean_fraction:.6f} vs expected "
        f"{rep.expected_fraction:.6f} (stderr {rep.stderr:.2e})",
    )


def _cmd_crosscheck(cfg: Namespace) -> tuple[list, list, dict, str]:
    rec_est = recurrence.estimate_growth_constant(recurrence.build_table(cfg.t_max))
    ode_est = analytic.estimate_limit_constants(_epsilon_ladder(cfg.eps_min), cfg.tol)
    diff = abs(rec_est.c - ode_est.c)
    data = [
        ["recurrence", "ode"],
        [rec_est.c, ode_est.c],
        [rec_est.ln_c, math.log(ode_est.c)],
    ]
    extras = {"abs_diff": diff, "max_diff": cfg.max_diff}
    summary = (
        f"C(recurrence) = {rec_est.c!r}, C(ode) = {ode_est.c!r}, "
        f"|diff| = {diff:.2e} (allowed {cfg.max_diff})"
    )
    return (["route", "c", "ln_c"], data, extras, summary)


_HANDLERS = {
    "recurrence": _cmd_recurrence,
    "thresholds": _cmd_thresholds,
    "dp": _cmd_dp,
    "ramsey": _cmd_ramsey,
    "ode": _cmd_ode,
    "constants": _cmd_constants,
    "patch": _cmd_patch,
    "multicolor": _cmd_multicolor,
    "alpha": _cmd_alpha,
    "bruteforce": _cmd_bruteforce,
    "ratios": _cmd_ratios,
    "sample": _cmd_sample,
    "crosscheck": _cmd_crosscheck,
}


def build_parser():
    p = ArgumentParser(
        prog="ramseymult",
        description="Lower bounds for Ramsey multiplicity via threshold "
        "dynamic programs, recurrences, and an ODE limit.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add(name: str, help_: str):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--out", default=None, help="output path (default <subcommand>.<format>)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        return sp

    sp = add("recurrence", "optimal-threshold recurrence table")
    sp.add_argument("--t-max", type=int, default=400)

    sp = add("thresholds", "optimal thresholds implied by the recurrence")
    sp.add_argument("--t-max", type=int, default=400)

    sp = add("dp", "minimum path-weight dynamic program")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--mode", choices=lattice.EXPONENT_MODES, default="max")
    sp.add_argument(
        "--thresholds",
        choices=("uniform", "erdos-szekeres", "optimal", "patched"),
        default="uniform",
    )
    sp.add_argument("--epsilon", type=float, default=1e-3)
    sp.add_argument("--w", type=int, default=None)
    sp.add_argument("--tol", type=float, default=1e-10)

    sp = add("ramsey", "max-form Ramsey-number bound table")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument(
        "--thresholds", choices=("uniform", "erdos-szekeres"), default="uniform"
    )

    sp = add("ode", "threshold profile trajectory")
    sp.add_argument("--epsilon", type=float, default=1e-3)
    sp.add_argument("--tol", type=float, default=1e-10)

    sp = add("constants", "profile limit and growth constant")
    sp.add_argument("--eps-min", type=float, default=1e-7)
    sp.add_argument("--tol", type=float, default=1e-10)

    sp = add("patch", "assembled threshold table (ODE profile + patch)")
    sp.add_argument("--epsilon", type=float, default=1e-3)
    sp.add_argument("--t-max", type=int, default=100)
    sp.add_argument("--w", type=int, default=None)
    sp.add_argument("--tol", type=float, default=1e-10)

    sp = add("multicolor", "q-colour recurrence table")
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--t-max", type=int, default=20)

    sp = add("alpha", "normalised q-colour diagonal exponent")
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--t", type=int, default=100)

    sp = add("bruteforce", "exhaustive minimum over colourings of K_n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--large", action="store_true")

    sp = add("ratios", "exhaustive minimum ratios across n")
    sp.add_argument("--t", type=int, default=3)
    sp.add_argument("--n-max", type=int, default=7)
    sp.add_argument("--large", action="store_true")

    sp = add("sample", "random-colouring statistics against expectations")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--samples", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--complement", action="store_true")
    sp.add_argument("--large", action="store_true")

    sp = add("crosscheck", "compare recurrence and ODE growth constants")
    sp.add_argument("--t-max", type=int, default=400)
    sp.add_argument("--eps-min", type=float, default=1e-7)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--max-diff", type=float, default=0.02)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    cfg = parser.parse_args(argv)
    cfg.out = cfg.out or f"{cfg.subcommand}.{cfg.format}"
    try:
        columns, data, extras, summary = _HANDLERS[cfg.subcommand](cfg)
        path = _emit(cfg, columns, data, extras)
    except _VALIDATION_ERRORS as exc:
        print(f"ramseymult {cfg.subcommand}: invalid request: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
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
