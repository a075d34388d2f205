#!/usr/bin/env python3
"""Perf-regression entry point.

Runs the prediction perf harness with a fixed seed, writes
``BENCH_predict.json`` next to the repository root, and exits non-zero
when any measured path regressed more than 20% (blocks/sec) against the
committed baseline.  Usage::

    python scripts/bench.py                # measure, write, gate
    python scripts/bench.py --no-check     # measure and write only
    python scripts/bench.py --size 300     # bigger, steadier numbers

All ``facile bench`` options are accepted (this is a thin wrapper around
``repro.cli``); ``README.md`` § "Benchmarking (`facile bench`)" says
how to read the output.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cli import main  # noqa: E402


if __name__ == "__main__":
    argv = sys.argv[1:]
    if "--no-check" in argv:
        argv = [a for a in argv if a != "--no-check"]
    elif "--check" not in argv:
        argv = argv + ["--check"]
    sys.exit(main(["bench"] + argv))
