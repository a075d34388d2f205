"""Command-line front end (the reproduction's ``facile.py`` equivalent).

Examples::

    facile predict --uarch SKL --mode loop --asm "add rax, rbx\\njne -5"
    facile predict --uarch RKL --hex 4801d875f4
    facile table1
    facile table2 --size 50 --uarch SKL
    facile table2 --size 300 --workers 4
    facile table4 --size 50
    facile figure6 --size 100
    facile bench --size 80 --check
    facile serve --port 8000 --uarch SKL --warm corpus.txt
    facile hunt --seed 0 --budget 200 --generalize --out hunt.json
    facile generalize hunt.json --known prior.json --out families.json

Every subcommand is documented in ``README.md``; the service endpoints
behind ``facile serve`` are specified in ``docs/SERVICE.md``, and the
deviation-discovery campaigns behind ``facile hunt`` in
``docs/DISCOVERY.md``.

``import repro.cli`` loads argparse and nothing of the program: each
handler imports the modules it runs, and each subcommand's argument
function imports the defaults its options show.  :func:`main` adds the
arguments of the requested subcommand only, so ``facile serve`` never
imports NumPy, the baselines or the campaign driver
(``tests/test_imports.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, List, Optional, Tuple

#: Heartbeats (hunt/bench progress on stderr) fire at most this often.
HEARTBEAT_INTERVAL_SEC = 2.0

#: A subcommand's handler: parsed arguments in, exit code out.
Handler = Callable[[argparse.Namespace], int]


def _apply_log_level(args: argparse.Namespace) -> None:
    """Honor ``--log-level`` (overrides ``REPRO_LOG``) when present."""
    from repro.obs import log as obslog

    level = getattr(args, "log_level", None)
    if level is not None:
        obslog.set_level(level)


def _add_log_level_arg(cmd: argparse.ArgumentParser) -> None:
    from repro.obs import log as obslog

    cmd.add_argument("--log-level", choices=sorted(obslog.LEVELS),
                     default=None,
                     help="structured-log threshold on stderr "
                          "(overrides REPRO_LOG; default info)")


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.core.components import ThroughputMode
    from repro.core.counterfactual import idealized_speedup
    from repro.engine.columnar import ColumnarCore
    from repro.isa.block import BasicBlock
    from repro.uarch import uarch_by_name

    cfg = uarch_by_name(args.uarch)
    if args.hex:
        block = BasicBlock.from_bytes(bytes.fromhex(args.hex))
    elif args.asm:
        block = BasicBlock.from_asm(args.asm.replace("\\n", "\n"))
    elif args.file:
        with open(args.file) as handle:
            block = BasicBlock.from_asm(handle.read())
    else:
        print("one of --asm/--hex/--file is required", file=sys.stderr)
        return 2
    mode = (ThroughputMode.LOOP if args.mode == "loop"
            else ThroughputMode.UNROLLED)
    prediction = ColumnarCore(cfg).predict(block, mode)

    print(f"block ({len(block)} instructions, {block.num_bytes} bytes):")
    for line in block.text().splitlines():
        print(f"    {line}")
    print(f"µarch: {cfg.name} ({cfg.abbrev});  mode: {mode.value}")
    print(f"predicted throughput: {prediction.cycles:.2f} cycles/iteration")
    print("component bounds:")
    for comp, bound in prediction.bounds.items():
        marker = "  <-- bottleneck" if comp in prediction.bottlenecks else ""
        print(f"    {comp.value:<11} {float(bound):8.2f}{marker}")
    if prediction.fe_component is not None:
        print(f"front-end path: {prediction.fe_component.value}"
              + ("  (JCC erratum)" if prediction.jcc_affected else ""))
    if prediction.critical_instruction_indices:
        print("critical instructions: "
              f"{prediction.critical_instruction_indices}")
    print("counterfactual speedups (component idealized):")
    for comp in prediction.bounds:
        speedup = idealized_speedup(prediction, comp)
        if speedup is not None:
            print(f"    {comp.value:<11} {speedup:8.2f}x")
    return 0


def _suite(args: argparse.Namespace):
    from repro.bhive.suite import default_suite

    if getattr(args, "workers", None) is not None:
        from repro.sim.measure import set_default_workers

        # Fan the suite's oracle measurements out over a worker pool.
        set_default_workers(args.workers)
    return default_suite(args.size, args.seed)


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.eval import tables

    del args
    print(tables.render_table1())
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.eval import tables
    from repro.uarch import ALL_UARCHS, uarch_by_name

    uarchs = ([uarch_by_name(args.uarch)] if args.uarch
              else list(ALL_UARCHS))
    rows = tables.table2(_suite(args), uarchs)
    print(tables.render_table2(rows))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.eval import tables

    rows = tables.table3(_suite(args))
    print(tables.render_table3(rows))
    return 0


def _cmd_table4(args: argparse.Namespace) -> int:
    from repro.eval import tables

    print(tables.render_table4(tables.table4(_suite(args))))
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    from repro.eval import figures

    for heatmap in figures.figure3_heatmaps(_suite(args)):
        print(f"== {heatmap.predictor} "
              f"(diagonal fraction {heatmap.diagonal_fraction:.2f})")
        for i, row in enumerate(heatmap.counts):
            if any(row):
                print(f"  measured [{heatmap.bins[i]:.2f},"
                      f"{heatmap.bins[i + 1]:.2f}): {row}")
    return 0


def _cmd_figure4(args: argparse.Namespace) -> int:
    from repro.eval import figures

    data = figures.figure4_component_times(_suite(args))
    for mode, results in data.items():
        print(f"== {mode}")
        for name, timing in results.items():
            print(f"  {name:<11} mean {timing.mean_ms:7.3f} ms   "
                  f"median {timing.median_ms:7.3f} ms")
    return 0


def _cmd_figure5(args: argparse.Namespace) -> int:
    from repro.eval import figures

    data = figures.figure5_tool_times(_suite(args))
    print(f"{'tool':<13} {'TPU ms':>10} {'TPL ms':>10}")
    for name, times in data.items():
        print(f"{name:<13} {times['TPU']:>10.3f} {times['TPL']:>10.3f}")
    return 0


def _cmd_figure6(args: argparse.Namespace) -> int:
    from repro.eval import figures

    print(figures.render_figure6(
        figures.figure6_bottleneck_evolution(_suite(args))))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the perf harness, persist BENCH_predict.json, gate regressions."""
    from repro.engine import bench as bench_mod
    from repro.uarch import uarch_by_name

    _apply_log_level(args)
    # Read the baseline before the run: output and baseline default to
    # the same committed file, which the run overwrites.
    baseline = bench_mod.load_bench_json(args.baseline) if args.check \
        else None
    uarchs = tuple(args.uarch) if args.uarch else bench_mod.DEFAULT_UARCHS
    try:
        for abbrev in uarchs:
            uarch_by_name(abbrev)
    except KeyError:
        print(f"unknown µarch {abbrev!r} (see `facile table1`)",
              file=sys.stderr)
        return 2
    payload = bench_mod.run_perf_harness(
        size=args.size, seed=args.seed, uarchs=uarchs,
        include_service=not args.no_service)
    print(bench_mod.render_bench(payload))
    bench_mod.write_bench_json(payload, args.output)
    print(f"wrote {args.output}")

    if not args.check:
        return 0
    if baseline is None:
        print(f"no baseline at {args.baseline}; skipping regression check")
        return 0
    if not bench_mod.comparable(payload, baseline):
        print(f"baseline {args.baseline} was measured under a different "
              f"configuration (suite {baseline.get('suite')} vs "
              f"{payload['suite']}, schema {baseline.get('schema')} vs "
              f"{payload['schema']}); skipping regression check",
              file=sys.stderr)
        return 0
    if bench_mod.gated_overlap(payload, baseline) == 0:
        print(f"baseline {args.baseline} shares no gated (µarch, mode, "
              "path) entries with this run; skipping regression check",
              file=sys.stderr)
        return 0
    regressions = bench_mod.find_regressions(payload, baseline,
                                             args.tolerance)
    if regressions:
        print(f"perf regressions (> {100 * args.tolerance:.0f}% below "
              "baseline):", file=sys.stderr)
        for abbrev, mode, path, cur, base in regressions:
            print(f"  {abbrev}/{mode}/{path}: {cur:.1f} blocks/s "
                  f"(baseline {base:.1f})", file=sys.stderr)
        return 1
    print("no perf regressions against baseline")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the HTTP prediction service until interrupted."""
    from repro.corpus import load_corpus
    from repro.obs import log as obslog
    from repro.service.server import PredictionService
    from repro.uarch import uarch_by_name

    _apply_log_level(args)
    logger = obslog.get_logger("serve")
    try:
        uarch_by_name(args.uarch)
    except KeyError:
        print(f"unknown µarch {args.uarch!r} (see `facile table1`)",
              file=sys.stderr)
        return 2
    try:
        service = PredictionService(
            uarch=args.uarch, host=args.host, port=args.port,
            max_batch=args.max_batch,
            max_queue=(args.max_queue if args.max_queue > 0 else None),
            shard=not args.no_shard)
    except (ValueError, OSError) as exc:
        print(f"facile serve: {exc}", file=sys.stderr)
        return 2
    if args.warm is not None:
        try:
            hexes = load_corpus(args.warm)
            warmed = service.warm(hexes, uarch=args.uarch)
        except (OSError, ValueError) as exc:
            print(f"facile serve: --warm {args.warm}: {exc}",
                  file=sys.stderr)
            service.close()
            return 2
        logger.info("warmed", pairs=warmed, corpus=args.warm)
    # The ``serving`` event is the machine-readable startup banner —
    # scripts (scripts/obs_smoke.py) parse it off stderr for the bound
    # port, so its field names are part of the observable surface.
    logger.info("serving",
                url=f"http://{service.host}:{service.port}",
                host=service.host, port=service.port,
                uarch=args.uarch,
                max_batch=args.max_batch,
                endpoints="GET /v1/health /v1/stats /v1/metrics; "
                          "POST /v1/predict /v1/predict/bulk "
                          "/v1/compare (docs/SERVICE.md)")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        logger.info("shutdown", reason="keyboard_interrupt")
    finally:
        service.close()
    return 0


def _load_known(path: Optional[str]):
    """Load ``--known`` families from a prior report file (or ()).

    Raises:
        ValueError: unreadable file, bad JSON, or malformed families.
    """
    from repro.discovery import load_known_families

    if not path:
        return ()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except OSError as exc:
        raise ValueError(str(exc)) from None
    return load_known_families(report)


def _hunt_heartbeat(uarchs: List[str]) -> Callable[[], None]:
    """A rate-limited campaign progress hook (structured, stderr-only).

    Reads the metrics registry the campaign increments anyway; counters
    are deltas against campaign start because the process-wide registry
    accumulates across runs.  stdout never sees a heartbeat — the hunt
    report there is byte-compared by CI.
    """
    from repro.obs import log as obslog
    from repro.obs import metrics

    logger = obslog.get_logger("hunt")
    started = time.monotonic()

    def totals() -> tuple:
        blocks = sum(metrics.counter_value(
            "facile_hunt_blocks_evaluated_total", uarch=u)
            for u in uarchs)
        deviations = sum(metrics.counter_value(
            "facile_hunt_deviations_total", uarch=u) for u in uarchs)
        return blocks, deviations

    base_blocks, base_deviations = totals()
    last = [started]

    def heartbeat() -> None:
        now = time.monotonic()
        if now - last[0] < HEARTBEAT_INTERVAL_SEC:
            return
        last[0] = now
        blocks, deviations = totals()
        logger.info("hunt_progress",
                    blocks_evaluated=int(blocks - base_blocks),
                    deviations=int(deviations - base_deviations),
                    elapsed_sec=round(now - started, 1))

    return heartbeat


def _cmd_hunt(args: argparse.Namespace) -> int:
    """Run a deviation-discovery campaign (see docs/DISCOVERY.md)."""
    from repro.discovery import (CampaignConfig, CampaignInterrupted,
                                 CheckpointError, CheckpointStore,
                                 campaign_report, render_json,
                                 render_markdown, run_campaign)

    _apply_log_level(args)
    modes = (("unrolled", "loop") if args.mode == "both"
             else (args.mode,))
    config = CampaignConfig(
        seed=args.seed, budget=args.budget,
        uarchs=tuple(args.uarchs), predictors=tuple(args.predictors),
        modes=modes, threshold=args.threshold,
        mutation_rate=args.mutation_rate,
        max_witnesses=args.max_witnesses,
        generalize=args.generalize,
        gen_samples=args.gen_samples,
        fresh_witnesses=args.fresh_witnesses,
        max_families=args.max_families,
        n_workers=args.workers)
    try:
        config.validate()
    except ValueError as exc:
        print(f"facile hunt: {exc}", file=sys.stderr)
        return 2
    if (args.known or args.coverage) and not args.generalize:
        print("facile hunt: --known/--coverage require --generalize",
              file=sys.stderr)
        return 2
    try:
        known = _load_known(args.known)
    except ValueError as exc:
        print(f"facile hunt: --known {args.known}: {exc}",
              file=sys.stderr)
        return 2
    checkpoint = None
    try:
        if args.resume:
            # --resume loads the cache; writes continue to --checkpoint
            # when given, else back to the same file.
            checkpoint = CheckpointStore.resume(
                args.resume, config, path=args.checkpoint or args.resume,
                every=args.checkpoint_every)
            print(f"facile hunt: resuming from {args.resume} "
                  f"({len(checkpoint)} cached evaluations)",
                  file=sys.stderr)
        elif args.checkpoint:
            checkpoint = CheckpointStore(args.checkpoint, config,
                                         every=args.checkpoint_every)
    except (CheckpointError, ValueError) as exc:
        print(f"facile hunt: {exc}", file=sys.stderr)
        return 2
    progress = None if args.quiet else _hunt_heartbeat(
        list(config.uarchs))
    interrupted = False
    try:
        result = run_campaign(config, checkpoint=checkpoint,
                              known=known,
                              coverage_corpus=args.coverage,
                              progress=progress)
    except CampaignInterrupted as exc:
        result = exc.result
        interrupted = True
    except OSError as exc:
        # The coverage corpus is read before any evaluation starts.
        print(f"facile hunt: {exc}", file=sys.stderr)
        return 2
    report = campaign_report(result)
    print(render_markdown(report), end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(render_json(report))
        print(f"\nwrote {args.out}" + (" (partial)" if interrupted
                                       else ""))
    if interrupted:
        print("facile hunt: interrupted — partial report above"
              + (f"; evaluations saved to {checkpoint.path}, continue "
                 f"with --resume {checkpoint.path}"
                 if checkpoint is not None else
                 " (run with --checkpoint to make interrupted hunts "
                 "resumable)"), file=sys.stderr)
        return 130
    return 0


def _cmd_generalize(args: argparse.Namespace) -> int:
    """Generalize the witnesses of an existing hunt report."""
    from repro.discovery import (generalize_report, render_json,
                                 render_markdown)

    try:
        with open(args.report, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"facile generalize: {args.report}: {exc}",
              file=sys.stderr)
        return 2
    if not isinstance(report, dict) or \
            not str(report.get("schema", "")).startswith(
                "facile-hunt-report/"):
        print(f"facile generalize: {args.report} is not a facile hunt "
              "report", file=sys.stderr)
        return 2
    try:
        known = _load_known(args.known)
    except ValueError as exc:
        print(f"facile generalize: --known {args.known}: {exc}",
              file=sys.stderr)
        return 2
    try:
        generalized = generalize_report(
            report, known=known, coverage_corpus=args.coverage,
            gen_samples=args.gen_samples,
            fresh_needed=args.fresh_witnesses,
            max_families=args.max_families, n_workers=args.workers)
    except (OSError, ValueError) as exc:
        print(f"facile generalize: {exc}", file=sys.stderr)
        return 2
    print(render_markdown(generalized), end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(render_json(generalized))
        print(f"\nwrote {args.out}")
    return 0


def _add_generalize_args(cmd: argparse.ArgumentParser, *,
                         standalone: bool) -> None:
    """The generalization knobs shared by ``hunt`` and ``generalize``."""
    from repro.discovery import (DEFAULT_FRESH_WITNESSES,
                                 DEFAULT_GEN_SAMPLES, DEFAULT_MAX_FAMILIES)

    if not standalone:
        cmd.add_argument("--generalize", action="store_true",
                         help="widen minimized witnesses into abstract "
                              "deviation families (ranked by suite "
                              "coverage; see docs/DISCOVERY.md)")
    cmd.add_argument("--known", default=None, metavar="REPORT.json",
                     help="a prior report whose families dedup "
                          "re-discovered deviations by subsumption")
    cmd.add_argument("--coverage", default=None, metavar="CORPUS",
                     help="hex-per-line or BHive-style CSV corpus for "
                          "family coverage (default: the deterministic "
                          "benchmark suite)")
    cmd.add_argument("--gen-samples", type=int,
                     default=DEFAULT_GEN_SAMPLES,
                     help="fresh samples validating each widening step "
                          f"(default {DEFAULT_GEN_SAMPLES})")
    cmd.add_argument("--fresh-witnesses", type=int,
                     default=DEFAULT_FRESH_WITNESSES,
                     help="deviating fresh witnesses required to "
                          "confirm a family "
                          f"(default {DEFAULT_FRESH_WITNESSES})")
    cmd.add_argument("--max-families", type=int,
                     default=DEFAULT_MAX_FAMILIES,
                     help="generalization attempts per µarch "
                          f"(default {DEFAULT_MAX_FAMILIES})")


def _workers_arg(value: str) -> int:
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
    if workers < 0:
        raise argparse.ArgumentTypeError(
            "worker count must be >= 0 (0 = one per CPU)")
    return workers


def _predict_args(cmd: argparse.ArgumentParser) -> Handler:
    cmd.add_argument("--uarch", default="SKL")
    cmd.add_argument("--mode", choices=("unrolled", "loop"),
                     default="loop")
    cmd.add_argument("--asm", help="assembly text (\\n separated)")
    cmd.add_argument("--hex", help="raw block bytes in hex")
    cmd.add_argument("--file", help="file with assembly text")
    return _cmd_predict


def _suite_args(handler: Handler, *, uarch: bool = False
                ) -> Callable[[argparse.ArgumentParser], Handler]:
    """The argument function of a table or figure subcommand."""
    def add(cmd: argparse.ArgumentParser) -> Handler:
        cmd.add_argument("--size", type=int, default=50,
                         help="benchmark suite size")
        cmd.add_argument("--seed", type=int, default=2023)
        cmd.add_argument("--workers", type=_workers_arg,
                         default=None,
                         help="worker processes for the suite's oracle "
                              "measurements (0 = one per CPU; default "
                              "serial; never changes results)")
        if uarch:
            cmd.add_argument("--uarch", default=None,
                             help="restrict to one microarchitecture")
        return handler

    return add


def _bench_args(cmd: argparse.ArgumentParser) -> Handler:
    from repro.engine import bench as bench_mod

    cmd.add_argument("--size", type=int, default=bench_mod.DEFAULT_SIZE)
    cmd.add_argument("--seed", type=int, default=bench_mod.DEFAULT_SEED)
    cmd.add_argument("--uarch", action="append", default=None,
                     help="µarch(s) to measure (repeatable; "
                          "default SKL)")
    cmd.add_argument("--output", default="BENCH_predict.json")
    cmd.add_argument("--baseline", default="BENCH_predict.json",
                     help="committed baseline for the regression gate")
    cmd.add_argument("--tolerance", type=float,
                     default=bench_mod.DEFAULT_TOLERANCE,
                     help="allowed blocks/sec drop before failing")
    cmd.add_argument("--check", action="store_true",
                     help="exit non-zero on regression vs the baseline")
    cmd.add_argument("--no-service", action="store_true",
                     help="skip the service-path measurement")
    _add_log_level_arg(cmd)
    return _cmd_bench


def _serve_args(cmd: argparse.ArgumentParser) -> Handler:
    from repro.engine.batching import DEFAULT_MAX_BATCH
    from repro.service.server import DEFAULT_MAX_QUEUE

    cmd.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    cmd.add_argument("--port", type=int, default=8000,
                     help="TCP port (0 = pick an ephemeral port)")
    cmd.add_argument("--uarch", default="SKL",
                     help="default µarch for requests that omit one")
    cmd.add_argument("--max-batch", type=int,
                     default=DEFAULT_MAX_BATCH,
                     help="most queued requests per shard call")
    cmd.add_argument("--max-queue", type=int,
                     default=DEFAULT_MAX_QUEUE,
                     help="bound on queued requests per µarch before "
                          "the service sheds with 429 (default "
                          f"{DEFAULT_MAX_QUEUE}; 0 = unbounded)")
    cmd.add_argument("--warm", default=None, metavar="CORPUS",
                     help="pre-answer a block corpus (hex per line, "
                          "or a BHive-style CSV) before serving")
    cmd.add_argument("--no-shard", action="store_true",
                     help="predict in-process instead of in "
                          "per-µarch worker shards (debugging / "
                          "fork-hostile environments)")
    _add_log_level_arg(cmd)
    return _cmd_serve


def _hunt_args(cmd: argparse.ArgumentParser) -> Handler:
    from repro.discovery import (DEFAULT_BUDGET, DEFAULT_CHECKPOINT_EVERY,
                                 DEFAULT_MAX_WITNESSES,
                                 DEFAULT_MUTATION_RATE, DEFAULT_PREDICTORS,
                                 DEFAULT_THRESHOLD)

    cmd.add_argument("--seed", type=int, default=0,
                     help="campaign seed (results are a pure function "
                          "of it and the other campaign options)")
    cmd.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                     help="candidate blocks per µarch (generated + "
                          "mutants)")
    cmd.add_argument("--uarchs", nargs="+", default=["SKL"],
                     metavar="UARCH",
                     help="µarch(s) to hunt on (default SKL)")
    cmd.add_argument("--predictors", nargs="+",
                     default=list(DEFAULT_PREDICTORS), metavar="NAME",
                     help="predictors to compare (the oracle simulator "
                          "always participates); default "
                          f"{' '.join(DEFAULT_PREDICTORS)}")
    cmd.add_argument("--mode", choices=("unrolled", "loop", "both"),
                     default="both",
                     help="throughput notion(s) to evaluate")
    cmd.add_argument("--threshold", type=float,
                     default=DEFAULT_THRESHOLD,
                     help="interestingness threshold (max pairwise "
                          "relative disagreement)")
    cmd.add_argument("--mutation-rate", type=float,
                     default=DEFAULT_MUTATION_RATE,
                     help="fraction of the budget spent mutating "
                          "interesting candidates")
    cmd.add_argument("--max-witnesses", type=int,
                     default=DEFAULT_MAX_WITNESSES,
                     help="deviations minimized per µarch")
    cmd.add_argument("--workers", type=_workers_arg, default=None,
                     help="worker processes for oracle measurements "
                          "(0 = one per CPU; default serial; never "
                          "changes results)")
    cmd.add_argument("--checkpoint", default=None,
                     help="write periodic evaluation checkpoints to "
                          "this file (canonical JSON; atomic writes)")
    cmd.add_argument("--checkpoint-every", type=int,
                     default=DEFAULT_CHECKPOINT_EVERY,
                     help="flush the checkpoint after this many newly "
                          "evaluated blocks (default "
                          f"{DEFAULT_CHECKPOINT_EVERY})")
    cmd.add_argument("--resume", default=None,
                     help="resume from a checkpoint file written by "
                          "--checkpoint; the campaign config must "
                          "match, and the report comes out identical "
                          "to an uninterrupted run")
    cmd.add_argument("--out", default=None,
                     help="write the canonical JSON report here")
    cmd.add_argument("--quiet", action="store_true",
                     help="suppress the periodic progress heartbeats "
                          "on stderr (the stdout report is identical "
                          "either way)")
    _add_log_level_arg(cmd)
    _add_generalize_args(cmd, standalone=False)
    return _cmd_hunt


def _generalize_args(cmd: argparse.ArgumentParser) -> Handler:
    cmd.add_argument("report", metavar="REPORT.json",
                     help="a report written by `facile hunt "
                          "--out` (v1 or v2)")
    cmd.add_argument("--out", default=None,
                     help="write the generalized canonical JSON "
                          "report here")
    cmd.add_argument("--workers", type=_workers_arg, default=None,
                     help="worker processes for oracle "
                          "measurements (0 = one per CPU; default "
                          "serial; never changes results)")
    _add_generalize_args(cmd, standalone=True)
    return _cmd_generalize


#: Every subcommand, in ``facile --help`` order: its name, its help
#: line, and the function that adds its arguments (importing the
#: defaults they show) and returns its handler.
_COMMANDS: Tuple[Tuple[str, str,
                      Callable[[argparse.ArgumentParser], Handler]], ...] = (
    ("predict", "predict one block", _predict_args),
    ("table1", "regenerate table1", _suite_args(_cmd_table1)),
    ("table2", "regenerate table2", _suite_args(_cmd_table2, uarch=True)),
    ("table3", "regenerate table3", _suite_args(_cmd_table3)),
    ("table4", "regenerate table4", _suite_args(_cmd_table4)),
    ("figure3", "regenerate figure3", _suite_args(_cmd_figure3)),
    ("figure4", "regenerate figure4", _suite_args(_cmd_figure4)),
    ("figure5", "regenerate figure5", _suite_args(_cmd_figure5)),
    ("figure6", "regenerate figure6", _suite_args(_cmd_figure6)),
    ("bench", "run the perf-regression harness "
              "(writes BENCH_predict.json)", _bench_args),
    ("serve", "run the HTTP prediction service "
              "(see docs/SERVICE.md)", _serve_args),
    ("hunt", "run a deviation-discovery campaign "
             "(see docs/DISCOVERY.md)", _hunt_args),
    ("generalize", "widen the witnesses of an existing hunt "
                   "report into abstract deviation families "
                   "(see docs/DISCOVERY.md)", _generalize_args),
)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``facile`` parser, every subcommand registered.

    With *command*, only that subcommand gets its arguments (the others
    stay bare, so their modules are not imported); without, all do.
    """
    parser = argparse.ArgumentParser(
        prog="facile",
        description="Facile reproduction: analytical basic-block "
                    "throughput prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_args in _COMMANDS:
        cmd = sub.add_parser(name, help=help_text)
        if command is None or command == name:
            cmd.set_defaults(func=add_args(cmd))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse *argv* (default: ``sys.argv``) and run one subcommand.

    Only the named subcommand's arguments are built; ``facile --help``
    and an unknown command get the full parser.

    Returns the process exit code: 0 on success, 1 on a failed check
    (e.g. a ``bench`` regression), 2 on bad arguments.
    """
    argv = sys.argv[1:] if argv is None else argv
    names = {name for name, _, _ in _COMMANDS}
    command = argv[0] if argv and argv[0] in names else None
    args = build_parser(command).parse_args(argv)
    return args.func(args)


def main_entry() -> None:
    """Console-script entry point (the installed ``facile`` command)."""
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
