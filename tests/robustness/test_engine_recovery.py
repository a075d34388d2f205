"""Measurement-pool fault tolerance: recovery from dead workers.

The headline property: a pooled ``measure_many`` batch that suffered
injected worker kills and task exceptions recovers to values identical
to a fault-free serial run — the in-process fallback makes worker death
an execution detail, never a results change.  Every test starts from a
cold measurement cache, so the pool really runs, and counts the
measurements the parent had to take over.
"""

import importlib

import pytest

from repro.bhive.suite import BenchmarkSuite
from repro.core.components import ThroughputMode
from repro.robustness import FaultPlan, injected
from repro.sim.measure import measure_many
from repro.uarch import uarch_by_name

# The module, not the function ``repro.sim`` re-exports under its name.
sim_measure = importlib.import_module("repro.sim.measure")

SKL = uarch_by_name("SKL")
MODE = ThroughputMode.LOOP


@pytest.fixture(scope="module")
def blocks():
    return [b.block_l for b in BenchmarkSuite.generate(8, seed=5)]


@pytest.fixture(scope="module")
def golden(blocks):
    with injected(None):
        return [sim_measure.measure(block, SKL, MODE, use_cache=False)
                for block in blocks]


@pytest.fixture
def parent_measurements(monkeypatch):
    """Empty the measurement cache, then record every block this
    process measures (forked workers count in their own copy)."""
    sim_measure.clear_cache()
    measured = []
    real = sim_measure.measure

    def counting(block, *args, **kwargs):
        measured.append(block.raw)
        return real(block, *args, **kwargs)

    monkeypatch.setattr(sim_measure, "measure", counting)
    return measured


def pooled(blocks, spec):
    with injected(FaultPlan.from_spec(spec)):
        return measure_many(SKL, blocks, MODE, n_workers=2,
                            task_timeout=1.5)


class TestCrashRecovery:
    def test_worker_kill_and_exception_recover_byte_identical(
            self, blocks, golden, parent_measurements):
        # The kill is noticed when the pool misses its 1.5 s deadline;
        # the exception surfaces from the result iterator.  Either way
        # the parent measures what the pool did not deliver.
        measured = pooled(blocks, "seed=0; worker_kill@engine.measure:2; "
                                  "predictor_error@engine.measure:5")
        assert measured == golden
        assert blocks[2].raw in parent_measurements
        assert len(parent_measurements) < len(blocks)

    def test_repeated_kills_still_converge(self, blocks, golden,
                                           parent_measurements):
        measured = pooled(blocks, "seed=0; worker_kill@engine.measure:0,3")
        assert measured == golden
        assert blocks[0].raw in parent_measurements


class TestMeasureRecovery:
    def test_measure_many_survives_worker_kill(self, blocks, golden,
                                               parent_measurements):
        measured = pooled(blocks, "seed=0; worker_kill@engine.measure:1")
        assert measured == golden
        # The parent measured the killed block; the pool delivered at
        # least one of the others.
        assert blocks[1].raw in parent_measurements
        assert len(parent_measurements) < len(blocks)
