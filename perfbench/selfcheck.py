"""Check of the correctness check: references pass, perturbed outputs fail.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

Exits 0 when every reference output passes and every perturbed output
(one changed digit in an `exact` cell, an asymptotic cell outside its
1e-10 tolerance, a shifted ED entropy, a Monte Carlo
mean 10 sem off, a non-zero exit code) counts failed rows.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def _bump_last_digit(cell: str) -> str:
    i = max(i for i, ch in enumerate(cell) if ch.isdigit())
    return cell[:i] + str((int(cell[i]) + 1) % 10) + cell[i + 1:]


def _perturb_csv(text: str) -> str:
    """One changed digit in the middle row's `exact` cell; without an
    `exact` column, the `asymptotic` cell off by 1e-8 relative."""
    lines = text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    mid = len(lines) // 2
    cells = lines[mid].rstrip("\n").split(",")
    if "exact" in header:
        col = header.index("exact")
        cells[col] = _bump_last_digit(cells[col])
    else:
        col = header.index("asymptotic")
        cells[col] = format(float(cells[col]) * (1.0 + 1e-8), ".17g")
    lines[mid] = ",".join(cells) + "\n"
    return "".join(lines)


def _perturb_ed(text: str) -> str:
    doc = json.loads(text)
    doc["rows"][-1]["mean_S"] += 1e-6
    return json.dumps(doc)


def main() -> int:
    problems = []

    def expect(label, failures, should_fail):
        status = "fails" if failures else "passes"
        print(f"{label}: {status} ({len(failures)} failed rows)")
        if bool(failures) != should_fail:
            problems.append(label)

    for workload in ("exact_sweep", "single_cuts", "ed_scan"):
        checker = workloads.Checker(workload, seed=0)
        for key, _ in checker.jobs:
            text = workloads.reference_path(workload, key).read_text()
            expect(f"{workload}/{key} reference",
                   checker.failed_rows(key, 0, text), False)
            if workload == "ed_scan":
                bad = _perturb_ed(text)
            else:
                bad = _perturb_csv(text)
            expect(f"{workload}/{key} perturbed",
                   checker.failed_rows(key, 0, bad), True)
            expect(f"{workload}/{key} exit code 1",
                   checker.failed_rows(key, 1, text), True)

    checker = workloads.Checker("haar_mc", seed=7)
    for key, argv in checker.jobs:
        exact = checker.expected[key]["exact"]
        doc = {"samples": int(argv[argv.index("--samples") + 1]), "seed": 7,
               "mean": exact + 0.001, "sem": 0.001}
        expect(f"haar_mc/{key} within 1 sem",
               checker.failed_rows(key, 0, json.dumps(doc)), False)
        doc["mean"] = exact + 0.01
        expect(f"haar_mc/{key} 10 sem off",
               checker.failed_rows(key, 0, json.dumps(doc)), True)

    if problems:
        print(f"selfcheck FAILED: {', '.join(problems)}")
        return 1
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
