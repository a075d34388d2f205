"""Drive the prediction service end to end, in one process.

Starts ``facile serve`` on an ephemeral port, then talks to it with the
bundled :class:`~repro.service.client.ServiceClient` — the same calls
shown as ``curl`` invocations in ``docs/SERVICE.md``.  The client
returns typed results; the dict-style access of earlier releases still
works.

Run:
    python examples/service_roundtrip.py
"""

from repro.service import PredictionService, ServiceClient


def main() -> None:
    with PredictionService(uarch="SKL", port=0) as service, \
            ServiceClient(port=service.port) as client:
        print(f"service up on http://{service.host}:{service.port}\n")

        health = client.health()
        print(f"health: {health['status']}  "
              f"(default µarch {health['default_uarch']})")

        # Single block with the counterfactual (Table-4 style) analysis.
        prediction = client.predict(
            {"asm": "imul rax, rbx\nadd rax, rcx\ncmp rax, r14\njne -14"},
            mode="loop", counterfactuals=True)
        print(f"\npredicted: {prediction.cycles} cycles/iter "
              f"(bottleneck: {', '.join(prediction.bottlenecks)}; "
              f"cache {prediction.meta['cache']}, "
              f"{prediction.meta['timing_ms']}ms server-side)")
        for comp, speedup in sorted(
                prediction.counterfactual_speedups.items()):
            print(f"    idealizing {comp:<11} -> {speedup}x")

        # Bulk predict: many blocks in one request, order-preserving.
        bulk = client.predict_bulk(
            ["4801d8", "480fafc3", {"asm": "add rax, rbx\njne -7"}],
            mode="loop")
        print(f"\nbulk ({bulk.n_blocks} blocks): "
              f"{[p.cycles for p in bulk.predictions]}")

        # Compare Facile against two of the baseline analogs.
        comparison = client.compare("4801d875f4", mode="loop",
                                    predictors=["Facile", "uiCA",
                                                "OSACA"])
        print("\npredictor comparison:")
        for name, cycles in sorted(comparison["predictions"].items()):
            print(f"    {name:<8} {cycles:6.2f} cycles/iter")

        # The served traffic shows up in the cache/batcher statistics.
        stats = client.stats()
        skl = stats["uarchs"]["SKL"]
        print(f"\nstats: {stats['requests']['total']} requests, "
              f"response-fragment hits "
              f"{skl['response_cache']['hits']}, "
              f"mean batch {skl['batcher']['mean_batch_size']}, "
              f"shard alive: {skl['shard']['alive']}")


if __name__ == "__main__":
    main()
