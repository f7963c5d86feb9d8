"""Benchmark of the ramseymult CLI, end to end and per layer.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0

One closed-loop client: every call is a fresh ``python -m ramseymult.cli``
subprocess run against ``src/`` of the checkout, started only after the
previous one has been reaped with ``os.wait4``, with ``RML_THREADS=2``.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median of
cold ``import ramseymult`` subprocesses, three before the first pass and
one after every pass), then whole passes over the workload's call
sequence until ``--seconds`` have gone by (at least two, so every call is
repeated and its artefact compared byte for byte).
Before every call the runner times a fixed reference task that does not
touch the package (``REFERENCE``).  ``wall_rel`` and ``cpu_rel`` are the
run's total call time over its total reference time, so a slower or
faster host moves both sides alike and cancels out.

``--trace 1`` measures the per-layer metrics: ``-X importtime`` for the
import cost of each module, then pairs of one untraced pass and one pass
whose calls run under ``perfbench/tracecall.py`` (spans around each
layer's public functions), and on ``oracle_n8`` one single-worker n = 8
scan.

Every call's output is checked (see ``workloads.py``).  The last line of
stdout is the JSON result; the full record, with provenance, goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, Call

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
RML_THREADS = "2"
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
LAYERS = ("cli", "recurrence", "lattice", "analytic", "numerics", "oracle")

# A fixed task that does not touch the package: a numpy import and a
# pure-Python loop, the two kinds of work the CLI calls spend their time on.
REFERENCE = (
    "import numpy\n"
    "d = {}\n"
    "for i in range(200000):\n"
    "    d[i] = str(i * i % 7)\n"
)

END_TO_END_UNITS = {"wall_rel": "x", "setup_s": "s", "cpu_rel": "x", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.import_s": "s" for layer in LAYERS},
    "analytic.scipy_import_s": "s",
    "recurrence.build_table_s": "s",
    "recurrence.optimal_thresholds_s": "s",
    "recurrence.multicolor_table_s": "s",
    "recurrence.cells": "count",
    "recurrence.cells_per_s": "1/s",
    "lattice.dp_min_weight_s": "s",
    "lattice.ramsey_table_s": "s",
    "lattice.cells": "count",
    "lattice.cells_per_s": "1/s",
    "cli.emit_s": "s",
    "cli.artifact_bytes": "B",
    "cli.bytes_per_s": "B/s",
    "analytic.estimate_limit_constants_s": "s",
    "analytic.assemble_patched_thresholds_s": "s",
    "analytic.ode_samples": "count",
    "numerics.integrate_s": "s",
    "numerics.bisect_s": "s",
    "oracle.exact_min_s": "s",
    "oracle.masks_scanned": "count",
    "oracle.masks_per_s": "1/s",
    "oracle.chunks": "count",
    "oracle.workers": "count",
    "oracle.chunk_s": "s",
    "oracle.scan_1worker_s": "s",
    "oracle.sample_against_bounds_s": "s",
    "trace.overhead_s": "s",
}


class Failure(Exception):
    """The benchmark cannot run at all (broken build, wrong package on the path)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["RML_THREADS"] = RML_THREADS
    return env


def run_timed(cmd: list[str], cwd: Path, env: dict, stdout, stderr) -> dict:
    """Start one child, reap it with wait4: wall, CPU (with its reaped
    descendants, such as pool workers) and max RSS."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=stderr)
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    # the child is reaped already; record its status so Popen never waits again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "maxrss_mb": ru.ru_maxrss / 1024.0,
        "rc": proc.returncode,
    }


def quiet(cmd: list[str], cwd: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


# ------------------------------------------------------------------ set-up


def build(env: dict, work: Path) -> None:
    """Byte-compile the package and make sure the checkout's copy is the
    one imported, never an installed one."""
    r = quiet([sys.executable, "-m", "compileall", "-q", str(SRC / "ramseymult")], work, env)
    if r.returncode != 0:
        raise Failure(f"compileall failed: {r.stdout}{r.stderr}")
    r = quiet([sys.executable, "-c", "import ramseymult; print(ramseymult.__file__)"], work, env)
    if r.returncode != 0:
        raise Failure(f"import ramseymult failed: {r.stderr}")
    if Path(r.stdout.strip()).resolve().parent != (SRC / "ramseymult").resolve():
        raise Failure(f"ramseymult imported from {r.stdout.strip()}, not {SRC}")


def measure_setup(env: dict, work: Path, repeats: int) -> list[float]:
    cmd = [sys.executable, "-c", "import ramseymult"]
    samples = []
    for _ in range(repeats):
        r = run_timed(cmd, work, env, subprocess.DEVNULL, subprocess.DEVNULL)
        if r["rc"] != 0:
            raise Failure("cold import of ramseymult failed")
        samples.append(r["wall_s"])
    return samples


def parse_importtime(text: str) -> dict[str, float]:
    """Per-module import seconds from ``-X importtime`` output.

    Each package module is charged its cumulative time minus that of the
    package modules it imports, so third-party imports (numpy, scipy) land
    on the module that imports them first.  ``analytic.scipy_import_s`` is
    the scipy share of ``analytic``.
    """
    nodes = []  # (name, cumulative_us, children) in post-order
    stack: list[tuple[int, tuple]] = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop()[1])
        node = (name.strip(), int(cum), children)
        stack.append((depth, node))
        nodes.append(node)

    def own(node) -> tuple[float, float]:
        """(cumulative minus nested package modules, scipy share)."""
        total, scipy = node[1], 0
        todo = list(node[2])
        while todo:
            child = todo.pop()
            if child[0].startswith("ramseymult"):
                total -= child[1]
            elif child[0] == "scipy" or child[0].startswith("scipy."):
                scipy += child[1]
            else:
                todo.extend(child[2])
        return total / 1e6, scipy / 1e6

    out = {f"{layer}.import_s": 0.0 for layer in LAYERS}
    out["analytic.scipy_import_s"] = 0.0
    for node in nodes:
        layer = node[0].removeprefix("ramseymult.")
        if node[0].startswith("ramseymult.") and f"{layer}.import_s" in out:
            total, scipy = own(node)
            out[f"{layer}.import_s"] += total
            if layer == "analytic":
                out["analytic.scipy_import_s"] += scipy
    return out


def measure_imports(env: dict, work: Path) -> dict[str, float]:
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        r = quiet([sys.executable, "-X", "importtime", "-c", "import ramseymult.cli"], work, env)
        if r.returncode != 0:
            raise Failure(f"-X importtime run failed: {r.stderr[-2000:]}")
        runs.append(parse_importtime(r.stderr))
    return {k: statistics.median(run[k] for run in runs) for k in runs[0]}


# ------------------------------------------------------------------ passes


class Pass:
    """One run of a workload's call sequence, with every call checked."""

    def __init__(
        self, calls: list[Call], work: Path, env: dict, digests: dict, traced: bool,
        reference: bool = False,
    ):
        self.calls, self.work, self.env = calls, work, env
        self.digests, self.traced, self.reference = digests, traced, reference
        self.records: list[dict] = []
        self.spans: list[dict] = []

    def run(self) -> "Pass":
        ctx: dict = {}
        for i, call in enumerate(self.calls):
            # relative, so the path recorded in the artefact is the same every run
            out = self.work / f"call{i}.csv"
            out.unlink(missing_ok=True)
            argv = [*call.argv, "--out", out.name]
            spans_file = self.work / f"spans{i}.json"
            if self.traced:
                cmd = [sys.executable, str(HERE / "tracecall.py"), str(spans_file), "--", *argv]
            else:
                cmd = [sys.executable, "-m", "ramseymult.cli", *argv]
            ref = None
            if self.reference:
                ref = run_timed(
                    [sys.executable, "-c", REFERENCE], self.work, self.env,
                    subprocess.DEVNULL, subprocess.DEVNULL,
                )
                if ref["rc"] != 0:
                    raise Failure("the reference task failed")
            log = self.work / f"call{i}.log"
            with log.open("wb") as f:
                rec = run_timed(cmd, self.work, self.env, f, subprocess.STDOUT)
            if ref is not None:
                rec["ref_wall_s"], rec["ref_cpu_s"] = ref["wall_s"], ref["cpu_s"]
            rec["call"] = call.key
            rec["error"] = self._check(call, out, rec["rc"], ctx, log)
            if self.traced and spans_file.exists():
                self.spans.extend(json.loads(spans_file.read_text()))
                spans_file.unlink()
            self.records.append(rec)
        return self

    def _check(self, call: Call, out: Path, rc: int, ctx: dict, log: Path) -> str | None:
        if rc != 0:
            return f"exit code {rc}: {log.read_text(errors='replace')[-500:]}"
        if not out.is_file():
            return "no artefact written"
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        first = self.digests.setdefault(call.key, digest)
        if digest != first:
            return f"artefact differs from an earlier run of the same call ({digest[:12]} vs {first[:12]})"
        try:
            return call.check(out, ctx)
        except (ValueError, KeyError, IndexError) as exc:
            return f"unreadable artefact: {exc!r}"

    @property
    def wall_s(self) -> float:
        return sum(r["wall_s"] for r in self.records)

    @property
    def cpu_s(self) -> float:
        return sum(r["cpu_s"] for r in self.records)

    @property
    def peak_rss_mb(self) -> float:
        return max(r["maxrss_mb"] for r in self.records)


def relative(passes: list[Pass], key: str) -> float:
    """The calls' total ``key`` over their reference tasks' total."""
    records = [r for p in passes for r in p.records]
    return sum(r[key] for r in records) / sum(r[f"ref_{key}"] for r in records)


def run_passes(run_pass, seconds: float) -> list[Pass]:
    """Whole passes until ``seconds`` have gone by, and at least two."""
    passes: list[Pass] = []
    t0 = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - t0 < seconds:
        passes.append(run_pass())
    return passes


# ------------------------------------------------------------------- spans


def self_times(spans: list[dict]) -> dict[int, float]:
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced pass, and any trace errors.

    Each call is its own process with its own span ids, so spans are
    grouped by call before self times are derived.
    """
    by_call: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_call[s["call_id"]].append(s)
    m: dict[str, float] = defaultdict(float)
    errors = []
    for call_id, group in by_call.items():
        own = self_times(group)
        children = defaultdict(list)
        for s in group:
            children[s["parent"]].append(s["id"])
        for s in group:
            if "counts_error" in s:
                errors.append(f"{call_id}: counting {s['name']} failed: {s['counts_error']}")
            dur = s["end"] - s["start"]
            m[f"{s['layer']}.self_s"] += own[s["id"]]
            m[f"{s['name']}_s"] += dur
            for key, value in s.get("counts", {}).items():
                m[f"{s['name']}:{key}"] += value
            if s["name"] == "oracle.exact_min" and "counts" in s:
                c = s["counts"]
                m["oracle.worker_s"] += dur * c["workers"]
                m["oracle.workers"] = max(m["oracle.workers"], c["workers"])
        for root in (s for s in group if s["name"] == "cli.main"):
            subtree, todo = 0.0, [root["id"]]
            while todo:
                sid = todo.pop()
                subtree += own[sid]
                todo.extend(children[sid])
            dur = root["end"] - root["start"]
            if abs(subtree - dur) > 1e-9 * max(1.0, dur):
                errors.append(f"{call_id}: self times sum to {subtree!r}, span is {dur!r}")

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    rec_cells = m["recurrence.build_table:cells"] + m["recurrence.multicolor_table:cells"]
    lat_cells = m["lattice.dp_min_weight:cells"] + m["lattice.ramsey_table:cells"]
    chunks = m["oracle.exact_min:chunks"]
    masks = m["oracle.exact_min:masks"]
    out = {
        **{f"{layer}.self_s": m[f"{layer}.self_s"] for layer in LAYERS},
        "recurrence.build_table_s": m["recurrence.build_table_s"],
        "recurrence.optimal_thresholds_s": m["recurrence.optimal_thresholds_s"],
        "recurrence.multicolor_table_s": m["recurrence.multicolor_table_s"],
        "recurrence.cells": rec_cells,
        "recurrence.cells_per_s": ratio(
            rec_cells, m["recurrence.build_table_s"] + m["recurrence.multicolor_table_s"]
        ),
        "lattice.dp_min_weight_s": m["lattice.dp_min_weight_s"],
        "lattice.ramsey_table_s": m["lattice.ramsey_table_s"],
        "lattice.cells": lat_cells,
        "lattice.cells_per_s": ratio(
            lat_cells, m["lattice.dp_min_weight_s"] + m["lattice.ramsey_table_s"]
        ),
        "cli.emit_s": m["cli._emit_s"],
        "cli.artifact_bytes": m["cli._emit:bytes"],
        "cli.bytes_per_s": ratio(m["cli._emit:bytes"], m["cli.self_s"]),
        "analytic.estimate_limit_constants_s": m["analytic.estimate_limit_constants_s"],
        "analytic.assemble_patched_thresholds_s": m["analytic.assemble_patched_thresholds_s"],
        "analytic.ode_samples": m["analytic.solve_threshold_ode:ode_samples"],
        "numerics.integrate_s": m["analytic.integrate_s"],
        "numerics.bisect_s": m["analytic.bisect_s"],
        "oracle.exact_min_s": m["oracle.exact_min_s"],
        "oracle.masks_scanned": masks,
        "oracle.masks_per_s": ratio(masks, m["oracle.exact_min_s"]),
        "oracle.chunks": chunks,
        "oracle.workers": m["oracle.workers"],
        "oracle.chunk_s": ratio(m["oracle.worker_s"], chunks),
        "oracle.sample_against_bounds_s": m["oracle.sample_against_bounds_s"],
    }
    return out, errors


def scan_1worker(env: dict, work: Path) -> tuple[float, str | None]:
    """The n = 8, t = 3 scan on one worker, in a fresh process."""
    code = (
        "import time\n"
        "from ramseymult import oracle\n"
        "t0 = time.perf_counter()\n"
        "rep = oracle.exact_min(8, 3, large=True, workers=1)\n"
        "print(time.perf_counter() - t0, rep.kmin)\n"
    )
    r = quiet([sys.executable, "-c", code], work, env)
    if r.returncode != 0:
        return 0.0, f"single-worker scan failed: {r.stderr[-500:]}"
    seconds, kmin = r.stdout.split()
    return float(seconds), None if int(kmin) == 8 else f"single-worker k_3(8) = {kmin}"


# ------------------------------------------------------------- provenance


def provenance(seed: int) -> dict:
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_sha = r.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "ramseymult").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "host": socket.gethostname(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "git_sha": git_sha,
        "source_sha256": src_hash.hexdigest(),
        "seed": seed,
        "RML_THREADS": RML_THREADS,
    }


# --------------------------------------------------------------------- main


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    env = child_env()
    build(env, work)
    calls = WORKLOADS[workload](seed)
    digests: dict[str, str] = {}
    record: dict = {"calls": [c.key for c in calls]}
    errors: list[str] = []

    if not trace:
        setup = measure_setup(env, work, SETUP_REPEATS)

        def one_pass() -> Pass:
            # cold imports spread over the run, so one slow spell of the
            # host does not set the median
            p = Pass(calls, work, env, digests, traced=False, reference=True).run()
            setup.extend(measure_setup(env, work, 1))
            return p

        passes = run_passes(one_pass, seconds)
        series = {
            "wall_rel": [relative([p], "wall_s") for p in passes],
            "setup_s": setup,
            "cpu_rel": [relative([p], "cpu_s") for p in passes],
            "peak_rss_mb": [p.peak_rss_mb for p in passes],
            # the raw figures behind the ratios, for the result file
            "wall_s": [p.wall_s for p in passes],
            "cpu_s": [p.cpu_s for p in passes],
        }
        metrics = {k: statistics.median(v) for k, v in series.items()}
        # over the whole run, so a long call's one short reference does not
        # swing a pass
        metrics["wall_rel"] = relative(passes, "wall_s")
        metrics["cpu_rel"] = relative(passes, "cpu_s")
        all_passes = passes
    else:
        imports = measure_imports(env, work)
        scan_s = 0.0
        if workload == "oracle_n8":
            scan_s, err = scan_1worker(env, work)
            if err:
                errors.append(err)
        pairs = []
        t0 = time.perf_counter()
        while not pairs or time.perf_counter() - t0 < seconds:
            # alternate which side runs first, so drift does not bias the overhead
            plain = Pass(calls, work, env, digests, traced=False)
            traced = Pass(calls, work, env, digests, traced=True)
            for p in (traced, plain) if (seed + len(pairs)) % 2 else (plain, traced):
                p.run()
            layers, add_errors = layer_metrics(traced.spans)
            errors.extend(add_errors)
            layers["trace.overhead_s"] = traced.wall_s - plain.wall_s
            pairs.append((plain, traced, layers))
        series = {k: [p[2][k] for p in pairs] for k in pairs[0][2]}
        metrics = {k: statistics.median(v) for k, v in series.items()}
        metrics.update(imports)
        metrics["oracle.scan_1worker_s"] = scan_s
        all_passes = [p for pair in pairs for p in pair[:2]]
        record["spans"] = [p[1].spans for p in pairs]

    records = [r for p in all_passes for r in p.records]
    failed = [r for r in records if r["error"] is not None]
    record.update(
        summaries={k: summary(v) for k, v in series.items()},
        passes=[{"traced": p.traced, "calls": p.records} for p in all_passes],
        errors=errors,
        attempted=len(records),
        failed=len(failed),
        ops_failed_frac=len(failed) / len(records),
    )
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": not failed and not errors,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    for r in failed:
        print(f"FAILED {r['call']}: {r['error']}", file=sys.stderr)
    for e in errors:
        print(f"TRACE ERROR {e}", file=sys.stderr)
    return result, record


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (SRC / "ramseymult" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'ramseymult'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    work = RESULTS / f"work-{os.getpid()}"
    work.mkdir()
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "result": result,
        **record,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
