"""Set-up probe: a fresh interpreter imports the CLI and builds one
workload's inputs, then prints the system-wide monotonic clock.

Usage: python3 perfbench/probe.py <workload> <seed>
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import page_entropy.cli  # noqa: E402,F401  (the import is what is timed)
import workloads  # noqa: E402

workloads.invocations(sys.argv[1], int(sys.argv[2]))
print(repr(time.monotonic()))
