"""Run one CLI call in process with spans around each layer's public calls.

Usage: python perfbench/tracecall.py SPANS_JSON -- <ramseymult argv>

The package itself is untouched.  Before ``cli.main(argv)`` runs, the
public functions listed in ``WRAPPED`` are replaced, at the module
attribute their callers look up, by a wrapper that records a span: name,
layer, start, end, parent span, call id and the work counts derived from
the call's inputs or return value.  Spans stay in memory and are written
to SPANS_JSON when the call ends.  The exit code is the CLI's own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from pathlib import Path


def _exact_min_counts(args: dict, result) -> dict:
    """Masks from the input; chunks and workers from the report when it
    carries them, else from the oracle's own chunking and pool sizing."""
    from ramseymult import oracle

    n = args["n"]
    chunks, workers = 1, 1
    if n == 8:
        chunks = 1 << oracle._CHUNK_BITS
        workers = oracle._worker_count(args.get("workers"), chunks)
    return {
        "masks": 1 << (math.comb(n, 2) - 1),
        "chunks": getattr(result, "chunks", chunks),
        "workers": getattr(result, "workers", workers),
    }


def _artifact_bytes(args: dict, result) -> dict:
    return {"bytes": Path(result).stat().st_size}


# (module, attribute, layer, counts(bound arguments, result) -> dict or None)
WRAPPED = [
    ("recurrence", "build_table", "recurrence", lambda a, r: {"cells": a["t_max"] ** 2}),
    ("recurrence", "optimal_thresholds", "recurrence", None),
    (
        "recurrence",
        "multicolor_table",
        "recurrence",
        lambda a, r: {"cells": (a["t_max"] + 1) ** a["q"]},
    ),
    ("recurrence", "estimate_growth_constant", "recurrence", None),
    ("recurrence", "alpha_estimate", "recurrence", None),
    ("lattice", "dp_min_weight", "lattice", lambda a, r: {"cells": a["k"] * a["l"]}),
    ("lattice", "ramsey_table", "lattice", lambda a, r: {"cells": a["k"] * a["l"]}),
    ("analytic", "estimate_limit_constants", "analytic", None),
    ("analytic", "assemble_patched_thresholds", "analytic", None),
    ("analytic", "solve_threshold_ode", "analytic", lambda a, r: {"ode_samples": len(r.xs)}),
    # analytic binds these numerics functions by name at import
    ("analytic", "integrate", "numerics", None),
    ("analytic", "bisect", "numerics", None),
    ("oracle", "exact_min", "oracle", _exact_min_counts),
    ("oracle", "ratio_series", "oracle", None),
    ("oracle", "sample_against_bounds", "oracle", None),
    ("cli", "_emit", "cli", _artifact_bytes),
]


class Tracer:
    """Collects spans of one process; single-threaded, so a stack suffices."""

    def __init__(self, call_id: str) -> None:
        self.call_id = call_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, layer: str, fn, counts=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            rec = {
                "id": sid,
                "call_id": self.call_id,
                "name": name,
                "layer": layer,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
            }
            self.spans.append(rec)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    rec["counts"] = counts(bound.arguments, result)
                except Exception as exc:  # a counter must never fail the call
                    rec["counts_error"] = repr(exc)
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, layer, counts in WRAPPED:
            mod = importlib.import_module(f"ramseymult.{module}")
            fn = getattr(mod, attr, None)
            if fn is not None:  # a function renamed away loses its span, not the call
                setattr(mod, attr, self.span(f"{module}.{attr}", layer, fn, counts))


def main() -> int:
    spans_path = Path(sys.argv[1])
    if sys.argv[2] != "--":
        raise SystemExit("usage: tracecall.py SPANS_JSON -- <argv>")
    argv = sys.argv[3:]
    tracer = Tracer(call_id=" ".join(argv))
    from ramseymult import cli

    tracer.install()
    try:
        return tracer.span("cli.main", "cli", cli.main)(argv)
    finally:
        spans_path.write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main())
