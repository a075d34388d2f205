"""Run ``facile serve`` with the benchmark's spans installed.

Usage: ``python3 perfbench/traced_serve.py SPANS_JSON serve --port 0``

Records spans around request parsing, block decoding and response
serialization in the front end, plus each block's wait between
``MicroBatcher.submit*`` and the shard call that predicts it.  SIGUSR1
drops everything recorded so far (the benchmark sends it when its
timed window starts); on shutdown the spans go to SPANS_JSON.
"""

from __future__ import annotations

import functools
import os
import signal
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import require_source  # noqa: E402

require_source()

from tracer import SERVICE_SPANS, Tracer  # noqa: E402


def _install_queue_probe(waits: list) -> None:
    """Measure queue wait per block: submit time -> shard dispatch.

    Installs nothing (the metric reads 0) where the program no longer
    has a micro-batcher feeding a shard.
    """
    try:
        from repro.engine.batching import MicroBatcher
        from repro.service.shard import ShardEngine
        submit = MicroBatcher.submit
        submit_many = MicroBatcher.submit_many
        predict_many = ShardEngine.predict_many
    except (ImportError, AttributeError):
        return

    submitted = {}
    lock = threading.Lock()

    def stamp(blocks) -> None:
        moment = time.perf_counter()
        with lock:
            for block in blocks:
                submitted[id(block)] = moment

    # functools.wraps keeps the signatures visible: the batcher checks
    # whether the shard's predict_many takes per-block trace ids.
    @functools.wraps(submit)
    def traced_submit(self, block, *args, **kwargs):
        stamp([block])
        return submit(self, block, *args, **kwargs)

    @functools.wraps(submit_many)
    def traced_submit_many(self, blocks, *args, **kwargs):
        stamp(blocks)
        return submit_many(self, blocks, *args, **kwargs)

    @functools.wraps(predict_many)
    def traced_predict_many(self, blocks, *args, **kwargs):
        moment = time.perf_counter()
        with lock:
            for block in blocks:
                start = submitted.pop(id(block), None)
                if start is not None:
                    waits.append(moment - start)
        return predict_many(self, blocks, *args, **kwargs)

    MicroBatcher.submit = traced_submit
    MicroBatcher.submit_many = traced_submit_many
    ShardEngine.predict_many = traced_predict_many


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from repro import cli

    tracer = Tracer()
    tracer.install(SERVICE_SPANS)
    waits: list = []
    _install_queue_probe(waits)

    def restart(signum, frame) -> None:
        # Rebinding (no lock): the handler may interrupt a span update.
        tracer.totals = {}
        tracer.spans = []
        waits.clear()

    signal.signal(signal.SIGUSR1, restart)
    tracer.enabled = True
    try:
        return cli.main(cli_args)
    finally:
        tracer.enabled = False
        tracer.dump(spans_path, queue_wait_s=list(waits))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
