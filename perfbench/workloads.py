"""Workload call sequences and the correctness check of every call.

A workload is an ordered list of CLI calls.  Each call carries a check
that reads the artefact the call wrote (and, for cross-route checks, the
values earlier calls of the same pass left in ``ctx``) and returns an
error message, or None when the output is right.  Exit codes and
byte-identical reruns are checked by the runner for every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# k_3(n): exhaustive minimum of monochromatic triangles over 2-colourings
# of K_n (Goodman 1959 gives the n = 8 value, 8).
K3 = {3: 0, 4: 0, 5: 0, 6: 2, 7: 4, 8: 8}

Check = Callable[[Path, dict], "str | None"]


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    check: Check

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def read_csv(path: Path) -> tuple[dict, list[str], list[list[str]]]:
    """(header ``# key = value`` comments, column names, rows) of a small CSV."""
    header: dict = {}
    columns: list[str] = []
    rows: list[list[str]] = []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            header[key] = value
        elif not columns:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns, rows


def last_row(path: Path) -> list[str]:
    """Last CSV row of a possibly large artefact, read from the end."""
    with path.open("rb") as f:
        f.seek(0, 2)
        size = f.tell()
        f.seek(max(0, size - 4096))
        tail = f.read().decode()
    return tail.rstrip("\n").rsplit("\n", 1)[-1].split(",")


def _corner(path: Path, k: int, l: int) -> float:
    row = last_row(path)
    if (int(row[0]), int(row[1])) != (k, l):
        raise ValueError(f"last row is {row[:2]}, expected corner ({k}, {l})")
    return float(row[2])


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------- checks


def recurrence_corner(t: int) -> Check:
    def check(path: Path, ctx: dict) -> str | None:
        v = _corner(path, t, t)
        ctx["recurrence_corner"] = v
        return None if math.isfinite(v) and v > 0 else f"corner negLog {v!r}"

    return check


def dp_optimal_matches_recurrence(t: int) -> Check:
    def check(path: Path, ctx: dict) -> str | None:
        v, ref = _corner(path, t, t), ctx.get("recurrence_corner")
        if ref is None:
            return "no recurrence corner earlier in the pass"
        rel = _rel(v, ref)
        return None if rel <= 1e-9 else f"optimal DP corner {v!r} vs recurrence {ref!r} (rel {rel:.2e})"

    return check


def dp_patched_above_recurrence(t: int) -> Check:
    def check(path: Path, ctx: dict) -> str | None:
        v, ref = _corner(path, t, t), ctx.get("recurrence_corner")
        if ref is None:
            return "no recurrence corner earlier in the pass"
        return None if v >= ref else f"patched DP corner {v!r} below recurrence {ref!r}"

    return check


def ramsey_uniform_exact(k: int, l: int) -> Check:
    def check(path: Path, ctx: dict) -> str | None:
        v, want = _corner(path, k, l), 2.0 ** (k + l - 3)
        return None if v == want else f"R[{k},{l}] = {v!r}, expected 2**{k + l - 3}"

    return check


def corner_finite(k: int, l: int) -> Check:
    def check(path: Path, ctx: dict) -> str | None:
        v = _corner(path, k, l)
        return None if math.isfinite(v) and v > 0 else f"corner entry {v!r}"

    return check


def multicolor_diag_finite(q: int, t: int) -> Check:
    def check(path: Path, ctx: dict) -> str | None:
        row = last_row(path)
        if [int(i) for i in row[:q]] != [t] * q:
            return f"last row {row[:q]} is not the diagonal cell"
        v = float(row[q])
        return None if math.isfinite(v) and v > 0 else f"diagonal negLog {v!r}"

    return check


def crosscheck_in_band(path: Path, ctx: dict) -> str | None:
    _, _, rows = read_csv(path)
    cs = {r[0]: float(r[1]) for r in rows}
    if set(cs) != {"recurrence", "ode"}:
        return f"routes {sorted(cs)}"
    bad = {k: c for k, c in cs.items() if not 2.15 <= c <= 2.21}
    return None if not bad else f"C outside [2.15, 2.21]: {bad}"


def constants_t1(path: Path, ctx: dict) -> str | None:
    header, _, _ = read_csv(path)
    t1 = float(header["t1_limit"])
    return None if 0.65 <= t1 <= 0.75 else f"t1 = {t1!r} outside [0.65, 0.75]"


def ode_endpoint(path: Path, ctx: dict) -> str | None:
    header, _, rows = read_csv(path)
    t1 = float(header["t1"])
    if not rows or float(rows[-1][0]) != 1.0:
        return "trajectory does not end at x = 1"
    return None if 0.65 <= t1 <= 0.75 else f"t(1) = {t1!r} outside [0.65, 0.75]"


def patch_in_unit_interval(path: Path, ctx: dict) -> str | None:
    _, _, rows = read_csv(path)
    bad = [r for r in rows if not 0.0 < float(r[2]) < 1.0]
    return None if rows and not bad else f"{len(bad)} thresholds outside (0, 1)"


def alpha_in_unit_interval(path: Path, ctx: dict) -> str | None:
    _, _, rows = read_csv(path)
    a = float(rows[0][2])
    return None if 0.0 < a < 1.0 else f"alpha = {a!r}"


def bruteforce_k3(n: int) -> Check:
    def check(path: Path, ctx: dict) -> str | None:
        _, _, rows = read_csv(path)
        kmin = int(rows[0][2])
        return None if kmin == K3[n] else f"k_3({n}) = {kmin}, expected {K3[n]}"

    return check


def ratios_k3(n_max: int) -> Check:
    def check(path: Path, ctx: dict) -> str | None:
        _, _, rows = read_csv(path)
        got = [(int(r[0]), int(r[1]), Fraction(r[2])) for r in rows]
        want = [(n, K3[n], Fraction(K3[n], math.comb(n, 3))) for n in range(3, n_max + 1)]
        return None if got == want else f"ratios {got} differ from k_3 series"

    return check


def sample_near_expectation(path: Path, ctx: dict) -> str | None:
    _, cols, rows = read_csv(path)
    rec = dict(zip(cols, rows[0]))
    mean, expected, stderr = (
        float(rec["mean_fraction"]),
        float(rec["expected_fraction"]),
        float(rec["stderr"]),
    )
    t = int(rec["t"])
    if expected != 2.0 ** (1 - math.comb(t, 2)):
        return f"expected fraction {expected!r} is not 2^(1-C({t},2))"
    return None if abs(mean - expected) <= 5 * stderr else (
        f"mean {mean!r} is {abs(mean - expected) / stderr:.1f} stderr from {expected!r}"
    )


# ------------------------------------------------------------- workloads


def _sample(n: int, t: int, samples: int, seed: int) -> Call:
    # numpy's generator takes only non-negative seeds
    seed %= 2**32
    argv = ("sample", "--n", str(n), "--t", str(t), "--samples", str(samples), "--seed", str(seed))
    return Call(argv, sample_near_expectation)


def tables(seed: int) -> list[Call]:
    return [
        Call(("recurrence", "--t-max", "500"), recurrence_corner(500)),
        Call(("dp", "--k", "500", "--l", "500", "--thresholds", "optimal"), dp_optimal_matches_recurrence(500)),
        Call(("dp", "--k", "500", "--l", "500", "--thresholds", "patched"), dp_patched_above_recurrence(500)),
        Call(("ramsey", "--k", "500", "--l", "500", "--thresholds", "uniform"), ramsey_uniform_exact(500, 500)),
        Call(("multicolor", "--q", "3", "--t-max", "50"), multicolor_diag_finite(3, 50)),
        Call(("crosscheck", "--t-max", "1000"), crosscheck_in_band),
        Call(("alpha", "--q", "3", "--t", "60"), alpha_in_unit_interval),
    ]


def cold_cli(seed: int) -> list[Call]:
    return [
        Call(("constants",), constants_t1),
        Call(("ode", "--epsilon", "1e-6"), ode_endpoint),
        Call(("patch", "--t-max", "100"), patch_in_unit_interval),
        Call(("alpha", "--q", "2", "--t", "30"), alpha_in_unit_interval),
        Call(("bruteforce", "--n", "6", "--t", "3"), bruteforce_k3(6)),
        Call(("ratios", "--t", "3", "--n-max", "6"), ratios_k3(6)),
        _sample(10, 3, 2000, seed),
        Call(("dp", "--k", "20", "--l", "20"), corner_finite(20, 20)),
        Call(("ramsey", "--k", "10", "--l", "10"), ramsey_uniform_exact(10, 10)),
        Call(("multicolor", "--q", "4", "--t-max", "6"), multicolor_diag_finite(4, 6)),
    ]


def oracle_n8(seed: int) -> list[Call]:
    return [
        Call(("bruteforce", "--n", "8", "--t", "3", "--large"), bruteforce_k3(8)),
        Call(("ratios", "--t", "3", "--n-max", "7"), ratios_k3(7)),
        _sample(12, 4, 20000, seed),
    ]


WORKLOADS = {"tables": tables, "cold_cli": cold_cli, "oracle_n8": oracle_n8}
