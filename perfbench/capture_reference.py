"""Write the reference outputs the correctness check compares against.

Run once at the commit whose outputs are the reference (the seed commit),
from the root of the checkout:

    python3 perfbench/capture_reference.py

It runs every deterministic invocation of `workloads.py` once and stores
its stdout under `perfbench/reference/<workload>/`.  Monte Carlo needs no
file: its reference is the exact sector average, computed at check time.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
os.environ.pop("PAGE_ENTROPY_THREADS", None)

from page_entropy import cli  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    for workload in workloads.WORKLOADS:
        if workload == "haar_mc":
            continue
        for key, argv in workloads.invocations(workload, seed=0):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            if code != 0:
                print(f"{workload}/{key}: exit code {code}", file=sys.stderr)
                return 1
            path = workloads.reference_path(workload, key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(buf.getvalue())
            print(f"wrote {path.relative_to(Path.cwd())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
