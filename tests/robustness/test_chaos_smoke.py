"""Chaos smoke: core paths stay byte-deterministic under active faults.

These tests run twice in CI: once in the regular suite (with the
default plan below) and once in the dedicated chaos job, which sets
``REPRO_FAULTS`` so the *ambient environment* supplies the plan — the
tests pick up whatever plan is active and still demand fault-free
outputs, because every injected fault here is of a recoverable kind.
"""

import pytest

from repro.bhive.suite import BenchmarkSuite
from repro.core.components import ThroughputMode
from repro.robustness import FaultPlan, active_plan, injected
from repro.service import PredictionService, ServiceClient
from repro.sim.measure import clear_cache, measure, measure_many
from repro.uarch import uarch_by_name

SKL = uarch_by_name("SKL")
MODE = ThroughputMode.LOOP

#: The plan used when the environment does not provide one: a worker
#: kill, a predictor blip, and some service latency — all recoverable.
DEFAULT_PLAN = ("seed=0; worker_kill@engine.measure:1; "
                "predictor_error@predictor.*:0; "
                "slow@service.*:p=0.2:ms=2")

pytestmark = pytest.mark.chaos


def result_bytes(envelope: bytes) -> bytes:
    """The ``result`` bytes of a success envelope (its ``meta`` differs
    from run to run by ``timing_ms`` and ``trace``)."""
    head, sep, result = envelope.partition(b',"result":')
    assert head.startswith(b'{"error":null,') and sep
    return result[:-1]


def chaos_plan():
    """The ambient plan (CI chaos job) or the default one, rewound."""
    plan = active_plan()
    if plan is None:
        plan = FaultPlan.from_spec(DEFAULT_PLAN)
    plan.reset()
    return plan


@pytest.fixture(scope="module")
def blocks():
    return [b.block_l for b in BenchmarkSuite.generate(6, seed=17)]


@pytest.fixture(scope="module")
def golden(blocks):
    with injected(None):
        return [measure(block, SKL, MODE, use_cache=False)
                for block in blocks]


def test_parallel_engine_recovers_under_faults(blocks, golden):
    # A cold cache makes every block a pool task, so the plan's worker
    # kill really fires.
    clear_cache()
    with injected(chaos_plan()):
        measured = measure_many(SKL, blocks, MODE, n_workers=2,
                                task_timeout=1.5)
    assert measured == golden


def test_service_bulk_identical_under_faults(blocks):
    body = {"blocks": [{"hex": block.raw.hex()} for block in blocks],
            "mode": MODE.value}
    with injected(None):
        with PredictionService(uarch="SKL", port=0) as service:
            clean = ServiceClient(port=service.port).request_raw(
                "/v1/predict/bulk", body)
    with injected(chaos_plan()):
        with PredictionService(uarch="SKL", port=0) as service:
            chaotic = ServiceClient(port=service.port).request_raw(
                "/v1/predict/bulk", body)
    assert result_bytes(chaotic) == result_bytes(clean)


def test_guarded_compare_recovers_under_faults():
    # A predictor blip is retried inside the request; the response is
    # complete (nothing skipped) and identical to the clean one.
    def compare_once():
        with PredictionService(uarch="SKL", port=0) as service:
            return result_bytes(ServiceClient(port=service.port).request_raw(
                "/v1/compare", {"hex": "4801d875f4",
                                "predictors": ["Facile", "uiCA"]}))
    with injected(None):
        clean = compare_once()
    with injected(chaos_plan()):
        chaotic = compare_once()
    assert chaotic == clean
