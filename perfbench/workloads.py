"""The four benchmark jobs and the check of their outputs.

Each workload is a fixed list of `page-entropy` invocations (a key naming
the output plus the argv).  The benchmark seed reaches the program only as
`mc --seed`; the other three workloads are deterministic and ignore it.

Correctness is judged per output row against reference outputs captured
at the seed commit (`reference/<workload>/<key>.<ext>`, written by
`capture_reference.py`) or, for Monte Carlo, against the exact sector
average.  A row fails if its invocation raised or exited non-zero, if it is
missing, or if a cell is outside the tolerance of its column.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("exact_sweep", "single_cuts", "haar_mc", "ed_scan")

# Page/scaling columns that come from floating-point asymptotics; every
# other column (exact sums, integers, exact ratios) must be byte-identical.
_TOLERANT_COLUMNS = {"asymptotic", "resolved", "asym_var", "sqrt_coeff"}
_ASYMPTOTIC_RTOL = 1e-10
_ED_TOL = 1e-9
_MC_SEMS = 5.0


def invocations(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """(output key, CLI argv) pairs of one pass, in the order they run."""
    if workload == "exact_sweep":
        return [("page", ["page", "--model", "fermions", "--V", "400",
                          "--n", "0.5"])]
    if workload == "single_cuts":
        return [
            ("scaling", ["scaling", "--model", "bosons", "--f", "0.5",
                         "--n", "1", "--V-list", "250,500,750,1000"]),
            ("page_spin1", ["page", "--model", "spin_j:1", "--V", "4000",
                            "--n", "1", "--methods",
                            "asymptotic,resolved,asym_var"]),
        ]
    if workload == "haar_mc":
        return [
            ("mc_gram", ["mc", "--model", "fermions", "--V", "20", "--N", "10",
                         "--VA", "10", "--samples", "30",
                         "--seed", str(seed)]),
            ("mc_svd", ["mc", "--model", "fermions", "--V", "8", "--N", "4",
                        "--VA", "4", "--samples", "3000",
                        "--seed", str(seed)]),
        ]
    if workload == "ed_scan":
        # --format json so the check also sees the dimension and window
        jobs = []
        for lam in ("0", "1"):
            for delta in ("0.55", "1.0"):
                jobs.append((f"xxz_lambda{lam}_Delta{delta}",
                             ["ed", "--model", "spin1_xxz", "--V", "8",
                              "--N", "8", "--lambda", lam, "--Delta", delta,
                              "--format", "json"]))
        for u in ("2.25", "10"):
            jobs.append((f"bose_hubbard_U{u}",
                         ["ed", "--model", "bose_hubbard", "--V", "9",
                          "--N", "5", "--U", u, "--format", "json"]))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def reference_path(workload: str, key: str) -> Path:
    ext = "json" if workload == "ed_scan" else "csv"
    return REFERENCE_DIR / workload / f"{key}.{ext}"


class Checker:
    """Checks one workload's outputs; references are read once."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.jobs = invocations(workload, seed)
        self.expected = {}  # key -> reference text, or the mc reference
        for key, argv in self.jobs:
            if workload == "haar_mc":
                self.expected[key] = _exact_mc_reference(argv)
            else:
                self.expected[key] = reference_path(workload, key).read_text()

    def expected_rows(self, key: str) -> int:
        if self.workload == "haar_mc":
            return 1
        if self.workload == "ed_scan":
            return len(json.loads(self.expected[key])["rows"])
        return len(_parse_csv(self.expected[key])[1])

    def failed_rows(self, key: str, returncode: int, text: str) -> list[str]:
        """One message per failed row of one invocation's output."""
        if returncode != 0:
            return [f"{key}: exit code {returncode}"] * self.expected_rows(key)
        expected = self.expected[key]
        if self.workload == "haar_mc":
            return _check_mc(key, text, expected)
        if self.workload == "ed_scan":
            return _check_ed(key, text, expected)
        return _check_csv(key, text, expected)


# -- CSV tables (page, scaling) -----------------------------------------------

def _parse_csv(text: str):
    lines = list(csv.reader(io.StringIO(text)))
    if not lines:
        return [], []
    return lines[0], lines[1:]


def _check_csv(key: str, text: str, expected: str) -> list[str]:
    header, rows = _parse_csv(expected)
    got_header, got_rows = _parse_csv(text)
    if got_header != header:
        return [f"{key}: header {got_header} != {header}"] * len(rows)
    got_by_key = {row[0]: row for row in got_rows if row}
    failures = []
    for row in rows:
        got = got_by_key.get(row[0])
        if got is None or len(got) != len(row):
            failures.append(f"{key}: row {row[0]} missing or malformed")
            continue
        for name, want, have in zip(header, row, got):
            if not _cell_ok(name, want, have):
                failures.append(f"{key}: row {row[0]} column {name}: "
                                f"{have} != {want}")
                break
    return failures


def _cell_ok(column: str, want: str, have: str) -> bool:
    if want == have:
        return True
    if column not in _TOLERANT_COLUMNS:
        return False
    try:
        w, h = float(want), float(have)
    except ValueError:
        return False
    return abs(h - w) <= _ASYMPTOTIC_RTOL * abs(w)


# -- ED documents -----------------------------------------------------------

def _check_ed(key: str, text: str, expected: str) -> list[str]:
    want = json.loads(expected)
    n_rows = len(want["rows"])
    try:
        have = json.loads(text)
    except json.JSONDecodeError:
        return [f"{key}: output is not JSON"] * n_rows
    if have.get("dim") != want["dim"] or have.get("window") != want["window"]:
        return [f"{key}: dim/window {have.get('dim')}/{have.get('window')} "
                f"!= {want['dim']}/{want['window']}"] * n_rows
    got_by_cut = {row.get("V_A"): row for row in have.get("rows", [])}
    failures = []
    for row in want["rows"]:
        got = got_by_cut.get(row["V_A"])
        if got is None:
            failures.append(f"{key}: cut {row['V_A']} missing")
            continue
        for name, value in row.items():
            other = got.get(name)
            if isinstance(value, float) and isinstance(other, (int, float)):
                ok = math.isclose(other, value, rel_tol=_ED_TOL,
                                  abs_tol=_ED_TOL)
            else:
                ok = other == value
            if not ok:
                failures.append(f"{key}: cut {row['V_A']} {name}: "
                                f"{other} != {value}")
                break
    return failures


# -- Monte Carlo ------------------------------------------------------------

def _argv_value(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _exact_mc_reference(argv: list[str]) -> dict:
    """Exact sector average the sampled mean must reproduce."""
    from page_entropy.entropy import BipartitionSpec, exact_average
    from page_entropy.local_model import catalog

    spec = BipartitionSpec(V=int(_argv_value(argv, "--V")),
                           N=int(_argv_value(argv, "--N")),
                           V_A=int(_argv_value(argv, "--VA")))
    model = catalog(_argv_value(argv, "--model"))
    return {"exact": exact_average(model, spec),
            "samples": int(_argv_value(argv, "--samples")),
            "seed": int(_argv_value(argv, "--seed"))}


def _check_mc(key: str, text: str, expected: dict) -> list[str]:
    try:
        doc = json.loads(text)
        mean, sem = float(doc["mean"]), float(doc["sem"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return [f"{key}: output is not an mc summary"]
    if doc.get("samples") != expected["samples"] or \
            doc.get("seed") != expected["seed"]:
        return [f"{key}: samples/seed {doc.get('samples')}/{doc.get('seed')}"]
    if not (math.isfinite(mean) and sem > 0.0
            and abs(mean - expected["exact"]) <= _MC_SEMS * sem):
        return [f"{key}: mean {mean} +- {sem} vs exact {expected['exact']}"]
    return []
