"""The repository benchmark: one workload, one seed, one JSON result.

Usage::

    python3 perfbench/run.py --workload engine_cold --seed 1 \\
        --seconds 6 --trace 0

Workloads: ``engine_cold``, ``engine_warm``, ``service_mixed``,
``oracle`` (see ``perfbench/README.md``).  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it measures half the
window untraced and half with spans recorded around calls into each
layer, and reports the per-layer metrics.  The last line of standard
output is the JSON result; lines before it are notes for a reader.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import require_source  # noqa: E402

#: End-to-end metrics: (name, unit).  Every workload reports all of them.
END_TO_END = (
    ("blocks_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics: (name, unit).  A traced run reports all of them;
#: a layer the workload does not run in the measured process reads 0.
PER_LAYER = (
    ("isa.decode_us", "us"),
    ("uops.analyze_us", "us"),
    ("core.predec_us", "us"),
    ("core.dec_us", "us"),
    ("core.ports_us", "us"),
    ("core.precedence_us", "us"),
    ("core.jcc_us", "us"),
    ("graph.depgraph_us", "us"),
    ("graph.mcr_us", "us"),
    ("engine.columnar.raw_hit_ratio", "ratio"),
    ("engine.columnar.sig_hit_ratio", "ratio"),
    ("engine.columnar.miss_ratio", "ratio"),
    ("engine.columnar.entries", "count"),
    ("engine.cache.analysis_us", "us"),
    ("engine.block_us_p50.SKL", "us"),
    ("engine.block_us_p50.ICL", "us"),
    ("service.parse_us", "us"),
    ("service.serialize_us", "us"),
    ("service.fragment_hit_ratio", "ratio"),
    ("service.batch_size_mean", "blocks"),
    ("service.shard_roundtrip_ms_p50", "ms"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.health_ms_p50", "ms"),
    ("service.health_ms_p99", "ms"),
    ("sim.measure_ms.legacy", "ms"),
    ("sim.measure_ms.dsb", "ms"),
    ("sim.measure_ms.lsd", "ms"),
    ("obs.trace_overhead_frac", "frac"),
    ("mem.rss_slope_kb_per_kblock", "KB/kblock"),
    ("failed_frac", "frac"),
)

WORKLOADS = ("engine_cold", "engine_warm", "service_mixed", "oracle")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload in ("engine_cold", "engine_warm"):
        from workload_engine import run_cold, run_warm
        runner = run_cold if workload == "engine_cold" else run_warm
    elif workload == "service_mixed":
        from workload_service import run_service as runner
    else:
        from workload_oracle import run_oracle as runner
    return runner(seed, seconds, trace)


def report(result: dict, trace: bool) -> dict:
    """The JSON result line of one run."""
    attempted = max(1, int(result["attempted"]))
    failed = int(result["failed"])
    values = dict(result["layer"])
    values["failed_frac"] = failed / attempted
    table = PER_LAYER if trace else END_TO_END
    source = values if trace else result["e2e"]
    metrics = {}
    for name, unit in table:
        value = float(source.get(name, 0.0))
        if not math.isfinite(value):
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": bool(result["correct"]) and failed == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    require_source()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for note in result["notes"]:
        print(f"# {args.workload}: {note}")
    line = report(result, bool(args.trace))
    for name, metric in line["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(line), flush=True)
    return 0


def pin_hash_seed() -> None:
    """Re-run this script with ``PYTHONHASHSEED=0`` unless already so.

    The program breaks ties between equal Predec and Dec bounds by
    iterating a set of enum members, whose order follows string hashing.
    Two processes with different hash seeds can so report different
    ``fe_component`` values for the same block; the checks compare the
    server's output with this process's, so both must hash alike.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  env)


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
