"""Predictions do not depend on the process's string-hash seed.

Python salts ``str`` hashes per process (``PYTHONHASHSEED``), so any
output that follows set iteration order can differ between a client and
a server, between shard processes, or between two runs.  A fixed suite
is predicted by both cores in two subprocesses with different hash
seeds, and the wire bytes must be equal.  Each line also carries the
Precedence critical chain, which the wire format reports only when
Precedence is the bottleneck.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         os.pardir, os.pardir))

#: Benchmarks of the fixed suite (each predicted in both block forms).
SUITE_SIZE = 150
SUITE_SEED = 7

PREDICT_SUITE = """
import sys
from repro.bhive.suite import BenchmarkSuite
from repro.core.components import ThroughputMode
from repro.core.model import Facile
from repro.engine.columnar import ColumnarCore
from repro.service import serialize
from repro.uarch import uarch_by_name

suite = BenchmarkSuite.generate({size}, seed={seed})
for uarch in ("SKL", "ICL"):
    cfg = uarch_by_name(uarch)
    for predictor in (Facile(cfg), ColumnarCore(cfg)):
        for bench in suite:
            for mode, block in ((ThroughputMode.UNROLLED, bench.block_u),
                                (ThroughputMode.LOOP, bench.block_l)):
                prediction = predictor.predict(block, mode)
                record = serialize.prediction_to_dict(prediction, block,
                                                      uarch)
                record["precedence_chain"] = (
                    prediction.precedence_detail.critical_chain)
                sys.stdout.buffer.write(serialize.json_bytes(record))
                sys.stdout.buffer.write(b"\\n")
"""


def predict_suite(hash_seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    script = PREDICT_SUITE.format(size=SUITE_SIZE, seed=SUITE_SEED)
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, timeout=300,
                            cwd=REPO_ROOT, env=env)
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout.splitlines()


def test_wire_output_is_independent_of_hash_seed():
    first = predict_suite(0)
    second = predict_suite(1)
    assert len(first) == 2 * 2 * 2 * SUITE_SIZE
    differing = [(a, b) for a, b in zip(first, second) if a != b]
    assert not differing, (
        f"{len(differing)} of {len(first)} records differ between hash "
        f"seeds 0 and 1; first:\n{differing[0][0].decode()}\n"
        f"{differing[0][1].decode()}")
