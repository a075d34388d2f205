"""Seeded differential-testing campaigns (the ``facile hunt`` core).

A campaign composes the repo's existing ingredients into an AnICA-style
discovery loop:

1. **Generate** — seeded candidate blocks per category
   (:class:`~repro.bhive.generator.BlockGenerator`), plus mutants of the
   most interesting candidates (the generator's drop / duplicate /
   substitute hooks);
2. **Evaluate** — fan every selected predictor and the oracle simulator
   over the candidates: Facile goes through
   :meth:`repro.engine.columnar.ColumnarCore.predict_many`
   (in-process), measurements through
   :func:`repro.sim.measure.measure_many`'s worker pool when workers
   are configured;
3. **Score** — each (block, mode) evaluation gets an interestingness
   score (:mod:`repro.discovery.interestingness`);
4. **Minimize** — deviating blocks are shrunk by greedy instruction
   dropping while the deviation persists
   (:mod:`repro.discovery.minimize`);
5. **Cluster** — minimized witnesses are grouped by generalization
   signature and ranked (:mod:`repro.discovery.cluster`).

Everything downstream of the config is deterministic: candidates come
from one seeded RNG, evaluations are pure functions of block bytes, and
worker counts change wall-clock only — a campaign run with ``n_workers``
set produces results identical to a serial run (``measure_many`` merges
by index and measurements are rounded identically on both paths).  The
worker count is therefore an *execution* detail and deliberately not
part of the campaign report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines import GuardedPredictor, all_predictors, \
    predictor_names
from repro.bhive.categories import CATEGORIES, Category
from repro.bhive.generator import LOOP_CONDS, BlockGenerator, \
    loop_back_edge
from repro.core.components import ThroughputMode
from repro.discovery.checkpoint import CheckpointStore
from repro.discovery.cluster import (
    Cluster,
    Signature,
    cluster_witnesses,
    port_multiset_signature,
)
from repro.discovery.generalize import (
    DEFAULT_FRESH_WITNESSES,
    DEFAULT_GEN_SAMPLES,
    DEFAULT_MAX_FAMILIES,
    Family,
    attach_coverage,
    generalize_uarch,
    rank_families,
)
from repro.discovery.interestingness import (
    DEFAULT_THRESHOLD,
    ORACLE,
    BlockScore,
    score_values,
)
from repro.discovery.minimize import minimize_lines
from repro.discovery.subsumption import KnownFamily
from repro.engine.cache import AnalysisCache
from repro.engine.columnar import ColumnarCore
from repro.isa.assembler import assemble
from repro.isa.block import BasicBlock
from repro.obs import metrics
from repro.robustness.errors import CircuitOpenError
from repro.sim.measure import measure, measure_many
from repro.uarch import uarch_by_name
from repro.uops.database import UopsDatabase

#: Default tool set: Facile, the simulation-grade analog (uiCA) and the
#: back-end-only analog (llvm-mca) — cheap, deterministic, and spanning
#: the modeling-scope spectrum.  Learned analogs (Ithemal, DiffTune,
#: learning-bl) can be selected explicitly but train on first use.
DEFAULT_PREDICTORS: Tuple[str, ...] = ("Facile", "uiCA", "llvm-mca-15")

#: Default campaign shape (mirrors the CLI defaults).
DEFAULT_BUDGET = 200
DEFAULT_MUTATION_RATE = 0.3
DEFAULT_MAX_WITNESSES = 20

_CATEGORY_BY_NAME: Dict[str, Category] = {c.name: c for c in CATEGORIES}

#: Campaign progress counters — purely observational (the CLI heartbeat
#: reads them); campaign results never depend on the registry.
_BLOCKS_EVALUATED = metrics.catalogued("facile_hunt_blocks_evaluated_total")
_DEVIATIONS = metrics.catalogued("facile_hunt_deviations_total")

#: A progress hook: called (with no arguments) after every evaluation
#: batch, from the campaign thread.  Hooks read the metrics registry
#: for the numbers; exceptions they raise propagate (a heartbeat must
#: never silently corrupt a campaign, so hooks are expected to be
#: trivial and total).
ProgressHook = Callable[[], None]


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines a campaign's results.

    ``n_workers`` is the one exception: it sizes the oracle-measurement
    pool (``None`` = serial, ``0`` = one worker per CPU) but never
    changes results, and is excluded from the canonical report.
    """

    seed: int = 0
    budget: int = DEFAULT_BUDGET
    uarchs: Tuple[str, ...] = ("SKL",)
    predictors: Tuple[str, ...] = DEFAULT_PREDICTORS
    modes: Tuple[str, ...] = ("unrolled", "loop")
    threshold: float = DEFAULT_THRESHOLD
    mutation_rate: float = DEFAULT_MUTATION_RATE
    max_witnesses: int = DEFAULT_MAX_WITNESSES
    generalize: bool = False
    gen_samples: int = DEFAULT_GEN_SAMPLES
    fresh_witnesses: int = DEFAULT_FRESH_WITNESSES
    max_families: int = DEFAULT_MAX_FAMILIES
    n_workers: Optional[int] = None

    def validate(self) -> None:
        """Raise ``ValueError`` on any inconsistent field."""
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if not self.uarchs:
            raise ValueError("need at least one µarch")
        for abbrev in self.uarchs:
            try:
                uarch_by_name(abbrev)
            except KeyError:
                raise ValueError(f"unknown µarch {abbrev!r} "
                                 "(see `facile table1`)") from None
        if len(set(self.uarchs)) != len(self.uarchs):
            raise ValueError("duplicate µarch names")
        if not self.predictors:
            raise ValueError("need at least one predictor "
                             "(the oracle simulator always participates)")
        known = set(predictor_names())
        unknown = [n for n in self.predictors if n not in known]
        if unknown:
            raise ValueError(
                f"unknown predictor(s) {unknown!r}; "
                f"registered: {sorted(known)}")
        if len(set(self.predictors)) != len(self.predictors):
            raise ValueError("duplicate predictor names")
        if not self.modes:
            raise ValueError("need at least one throughput mode")
        for mode in self.modes:
            ThroughputMode(mode)  # raises ValueError on bad names
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("duplicate modes")
        if not self.threshold > 0:
            raise ValueError("threshold must be > 0")
        if not 0 <= self.mutation_rate <= 1:
            raise ValueError("mutation_rate must be within [0, 1]")
        if self.max_witnesses < 1:
            raise ValueError("max_witnesses must be >= 1")
        if self.gen_samples < 2:
            raise ValueError("gen_samples must be >= 2 (a widening step "
                             "cannot be validated on fewer samples)")
        if self.fresh_witnesses < 1:
            raise ValueError("fresh_witnesses must be >= 1")
        if self.max_families < 1:
            raise ValueError("max_families must be >= 1")
        if self.n_workers is not None and self.n_workers < 0:
            raise ValueError(
                "n_workers must be >= 0 (0 = one per CPU, None = serial)")


@dataclass(frozen=True)
class Candidate:
    """One candidate block of a campaign, kept in source-line form.

    Carrying the assembly lines (not just bytes) is what makes
    minimization trivially sound: dropping a line and reassembling
    always yields a valid block, and the loop variant's back edge is
    re-encoded with a correct displacement at every size.
    """

    index: int
    category: str
    origin: str  # "generated" or "mutant:<op>"
    lines: Tuple[str, ...]
    loop_cond: str

    def block(self, mode: ThroughputMode) -> BasicBlock:
        """The concrete block evaluated under *mode* (loop variants end
        in a conditional branch back to the first instruction)."""
        body = "\n".join(self.lines)
        if mode is ThroughputMode.UNROLLED:
            return BasicBlock(assemble(body))
        body_len = BasicBlock(assemble(body)).num_bytes
        back_edge = loop_back_edge(body_len, self.loop_cond)
        return BasicBlock(assemble(f"{body}\n{back_edge}"))


@dataclass
class Witness:
    """One minimized, clustered deviation."""

    uarch: str
    mode: str
    category: str
    origin: str
    original_lines: Tuple[str, ...]
    minimized_lines: Tuple[str, ...]
    original_score: float
    score: float
    pair: Tuple[str, str]
    pair_values: Tuple[float, float]
    oracle_error: Optional[float]
    values: Dict[str, float]
    raw_hex: str
    asm: str
    minimize_trials: int
    signature: Signature
    loop_cond: str = "ne"


@dataclass
class CampaignResult:
    """A finished campaign: per-µarch stats, witnesses, ranked clusters.

    ``incidents`` records *unrecovered* robustness events — a predictor
    whose circuit breaker stayed open, a tool skipped for a whole batch
    — as typed entries; transient failures that retries absorbed leave
    no trace here, so a fault-injected run that fully recovers reports
    byte-identically to a fault-free one.  ``partial`` marks a result
    raised out of an interrupted campaign.
    """

    config: CampaignConfig
    stats: Dict[str, Dict[str, int]]
    witnesses: List[Witness]
    clusters: List[Cluster] = field(default_factory=list)
    incidents: List[Dict[str, object]] = field(default_factory=list)
    partial: bool = False
    #: Ranked abstract deviation families (``--generalize`` runs only).
    families: List[Family] = field(default_factory=list)
    #: Witnesses matched by already-known families (cross-campaign
    #: subsumption dedup) instead of spawning duplicates.
    subsumed: List[Dict[str, object]] = field(default_factory=list)
    #: Coverage-corpus provenance of a generalized run, else None.
    generalization: Optional[Dict[str, object]] = None


class CampaignInterrupted(Exception):
    """``facile hunt`` was interrupted; carries the partial result.

    Raised by :func:`run_campaign` on ``KeyboardInterrupt`` after
    flushing the checkpoint (when one is attached): completed µarchs
    keep their witnesses, and the CLI renders the partial report with
    ``partial: true`` before exiting non-zero.
    """

    def __init__(self, result: CampaignResult):
        super().__init__(
            "campaign interrupted; partial results attached")
        self.result = result


class _Evaluator:
    """Per-µarch fan-out of all selected tools plus the oracle.

    Facile runs on a :class:`ColumnarCore` (in-process); it and the
    baseline analogs share the same :class:`UopsDatabase`; oracle
    measurements go through :func:`measure_many`'s worker pool when
    workers are configured and the (equally cached, equally rounded)
    serial :func:`measure` otherwise.
    """

    def __init__(self, abbrev: str, predictors: Sequence[str],
                 n_workers: Optional[int],
                 checkpoint: Optional[CheckpointStore] = None,
                 progress: Optional[ProgressHook] = None):
        self.abbrev = abbrev
        self.progress = progress
        self.cfg = uarch_by_name(abbrev)
        self.db = UopsDatabase(self.cfg)
        self.n_workers = n_workers
        self.core = ColumnarCore(self.cfg, db=self.db)
        self.use_facile = "Facile" in predictors
        self.baselines = [
            GuardedPredictor(predictor)
            for predictor in all_predictors(
                self.cfg, self.db,
                names=[name for name in predictors if name != "Facile"])
        ]
        for predictor in self.baselines:
            predictor.prepare()
        self.checkpoint = checkpoint
        # All tools an evaluation must cover for a checkpoint entry to
        # substitute for re-running it.
        self._required = frozenset(
            (["Facile"] if self.use_facile else [])
            + [predictor.name for predictor in self.baselines]
            + [ORACLE])
        self.blocks_evaluated = 0
        # (predictor, reason) -> [first detail, batch count]; only
        # *unrecovered* events land here (see CampaignResult.incidents).
        self._incidents: Dict[Tuple[str, str], List[object]] = {}

    def incidents(self) -> List[Dict[str, object]]:
        """Typed, deterministic records of unrecovered tool failures."""
        return [
            {"uarch": self.abbrev, "predictor": predictor,
             "reason": reason, "detail": detail, "batches": count}
            for (predictor, reason), (detail, count)
            in sorted(self._incidents.items())
        ]

    def _record_incident(self, predictor: str, reason: str,
                         detail: str) -> None:
        entry = self._incidents.setdefault((predictor, reason),
                                           [detail, 0])
        entry[1] += 1

    def _compute(self, blocks: Sequence[BasicBlock],
                 mode: ThroughputMode) -> List[Dict[str, float]]:
        """Run every tool plus the oracle over *blocks* (no cache)."""
        values: List[Dict[str, float]] = [{} for _ in blocks]
        if self.use_facile:
            predictions = self.core.predict_many(blocks, mode)
            for entry, prediction in zip(values, predictions):
                entry["Facile"] = prediction.cycles
        for predictor in self.baselines:
            try:
                batch = predictor.predict_many(blocks, mode)
            except CircuitOpenError:
                # The breaker opened (or already was open): skip the
                # tool for this batch, record the skip, keep hunting
                # with the remaining tools.
                self._record_incident(
                    predictor.name, "circuit_open",
                    "circuit breaker open after "
                    f"{predictor.breaker.failure_threshold} consecutive "
                    "failed calls")
                continue
            except Exception as exc:
                # One block kept failing past its retries: values for
                # the batch are incomplete, so the tool sits this batch
                # out entirely (partial per-block coverage would make
                # scores depend on *where* in a batch a tool broke).
                self._record_incident(
                    predictor.name, "error",
                    f"{type(exc).__name__}: {exc}")
                continue
            for entry, cycles in zip(values, batch):
                entry[predictor.name] = cycles
        # measure_many spins a pool up per call, so fan out only when
        # the batch can amortize it (campaign sweeps and large
        # minimization rounds); smaller batches measure serially
        # through the same cache with identical rounding — which path
        # a batch takes never changes results.
        if self.n_workers is not None and len(blocks) >= 8:
            measured = measure_many(self.cfg, blocks, mode,
                                    n_workers=self.n_workers)
        else:
            measured = [measure(block, self.cfg, mode, self.db)
                        for block in blocks]
        for entry, cycles in zip(values, measured):
            entry[ORACLE] = cycles
        return values

    def evaluate(self, blocks: Sequence[BasicBlock],
                 mode: ThroughputMode) -> List[Dict[str, float]]:
        """Per-tool cycles for every block (the :data:`ORACLE` included).

        With a checkpoint attached, evaluations already in the store
        are read back instead of re-executed (that is what makes
        ``--resume`` cheap), and fresh evaluations are written through.
        ``blocks_evaluated`` counts *logical* evaluations either way,
        so a resumed campaign reports the same statistics as an
        uninterrupted one.
        """
        blocks = list(blocks)
        if not blocks:
            return []
        self.blocks_evaluated += len(blocks)
        _BLOCKS_EVALUATED.inc(len(blocks), uarch=self.abbrev)
        if self.progress is not None:
            self.progress()
        if self.checkpoint is None:
            return self._compute(blocks, mode)
        results: List[Optional[Dict[str, float]]] = [None] * len(blocks)
        missing: List[int] = []
        for index, block in enumerate(blocks):
            entry = self.checkpoint.get(self.abbrev, mode.value,
                                        block.raw.hex())
            # An entry only counts when it covers every tool of *this*
            # campaign — an entry recorded while a breaker was open is
            # incomplete and gets re-evaluated rather than replayed.
            if entry is not None and self._required <= set(entry):
                results[index] = {name: entry[name]
                                  for name in self._required}
            else:
                missing.append(index)
        if missing:
            computed = self._compute([blocks[i] for i in missing], mode)
            for index, values in zip(missing, computed):
                results[index] = values
                self.checkpoint.put(self.abbrev, mode.value,
                                    blocks[index].raw.hex(), values)
        return results  # type: ignore[return-value]

    def close(self) -> None:
        if self.checkpoint is not None:
            self.checkpoint.flush()


_Scored = Tuple[Candidate, ThroughputMode, BlockScore]


def _score_candidates(evaluator: _Evaluator,
                      candidates: Sequence[Candidate],
                      modes: Sequence[ThroughputMode]) -> List[_Scored]:
    """Evaluate candidates under every mode; keep each one's best mode.

    Ties go to the earlier mode in config order, keeping the selection
    deterministic.
    """
    if not candidates:
        return []
    per_mode = {
        mode: [score_values(values) for values in evaluator.evaluate(
            [candidate.block(mode) for candidate in candidates], mode)]
        for mode in modes
    }
    scored: List[_Scored] = []
    for i, candidate in enumerate(candidates):
        best_mode = modes[0]
        best = per_mode[best_mode][i]
        for mode in modes[1:]:
            if per_mode[mode][i].score > best.score:
                best, best_mode = per_mode[mode][i], mode
        scored.append((candidate, best_mode, best))
    return scored


def _signature(evaluator: _Evaluator, abbrev: str, mode: ThroughputMode,
               candidate: Candidate, block: BasicBlock,
               score: BlockScore) -> Signature:
    """The generalization signature of one minimized witness."""
    prediction = evaluator.core.predict(block, mode)
    bottleneck = (prediction.bottlenecks[0].value
                  if prediction.bottlenecks else "-")
    ports = port_multiset_signature(
        AnalysisCache.shared(evaluator.db).analysis(block).ops)
    return Signature(uarch=abbrev, mode=mode.value,
                     category=candidate.category, bottleneck=bottleneck,
                     ports=ports, pair=score.pair)


def _hunt_uarch(abbrev: str, config: CampaignConfig,
                modes: Sequence[ThroughputMode],
                checkpoint: Optional[CheckpointStore] = None,
                known: Sequence[KnownFamily] = (),
                corpus_blocks: Optional[List] = None,
                progress: Optional[ProgressHook] = None,
                ) -> Tuple[List[Witness], Dict[str, int],
                           List[Dict[str, object]], List[Family],
                           List[Dict[str, object]]]:
    """Run one µarch's generate → evaluate → minimize pipeline.

    With ``config.generalize`` set, a generalization phase follows:
    the strongest witnesses are widened into abstract families
    (validated by fresh samples through the same evaluator), deduped
    against *known* families by subsumption, and scored for coverage
    over *corpus_blocks*.
    """
    evaluator = _Evaluator(abbrev, config.predictors, config.n_workers,
                           checkpoint=checkpoint, progress=progress)
    try:
        # Each µarch restarts the generator from the campaign seed, so
        # every µarch hunts over the same candidate corpus and µarchs
        # can be added/removed without perturbing each other's results.
        generator = BlockGenerator(config.seed)
        rng = generator.rng

        n_mutants = int(round(config.budget * config.mutation_rate))
        n_fresh = max(1, config.budget - n_mutants)
        n_mutants = config.budget - n_fresh

        weights = [c.weight for c in CATEGORIES]
        candidates = []
        for index in range(n_fresh):
            category = rng.choices(CATEGORIES, weights=weights)[0]
            lines = tuple(generator.body(category))
            candidates.append(Candidate(
                index=index, category=category.name, origin="generated",
                lines=lines, loop_cond=rng.choice(LOOP_CONDS)))
        scored = _score_candidates(evaluator, candidates, modes)

        # Mutation phase: perturb the interesting candidates (fall back
        # to the whole corpus while nothing deviates yet).
        parents = [entry[0] for entry in
                   sorted((e for e in scored
                           if e[2].score >= config.threshold),
                          key=lambda e: (-e[2].score, e[0].index))]
        if not parents:
            parents = list(candidates)
        mutants = []
        for offset in range(n_mutants):
            parent = parents[rng.randrange(len(parents))]
            lines, op = generator.mutate(
                parent.lines, _CATEGORY_BY_NAME[parent.category])
            mutants.append(Candidate(
                index=n_fresh + offset, category=parent.category,
                origin=f"mutant:{op}", lines=tuple(lines),
                loop_cond=parent.loop_cond))
        scored.extend(_score_candidates(evaluator, mutants, modes))

        deviations = [entry for entry in scored
                      if entry[2].score >= config.threshold]
        deviations.sort(key=lambda e: (-e[2].score, e[0].index))
        if deviations:
            _DEVIATIONS.inc(len(deviations), uarch=abbrev)
        if progress is not None:
            progress()

        witnesses: List[Witness] = []
        seen = set()
        minimize_trials = 0
        # Minimize until max_witnesses *distinct* witnesses exist:
        # different candidates can shrink to the same minimal block, so
        # walk past duplicates into the remaining deviations — bounded
        # at 2x the cap so a corpus where everything minimizes
        # identically stays cheap.
        for candidate, mode, original in \
                deviations[:2 * config.max_witnesses]:
            if len(witnesses) >= config.max_witnesses:
                break
            def score_bodies(bodies, _mode=mode, _cand=candidate):
                trials = [Candidate(
                    index=_cand.index, category=_cand.category,
                    origin=_cand.origin, lines=body,
                    loop_cond=_cand.loop_cond) for body in bodies]
                return [score_values(values).score
                        for values in evaluator.evaluate(
                            [t.block(_mode) for t in trials], _mode)]

            minimized, trials = minimize_lines(
                candidate.lines, score_bodies, config.threshold)
            minimize_trials += trials
            final_candidate = Candidate(
                index=candidate.index, category=candidate.category,
                origin=candidate.origin, lines=minimized,
                loop_cond=candidate.loop_cond)
            block = final_candidate.block(mode)
            key = (mode.value, block.raw)
            if key in seen:  # two candidates shrank to the same witness
                continue
            seen.add(key)
            values = evaluator.evaluate([block], mode)[0]
            final = score_values(values)
            witnesses.append(Witness(
                uarch=abbrev, mode=mode.value,
                category=candidate.category, origin=candidate.origin,
                original_lines=candidate.lines,
                minimized_lines=minimized,
                original_score=original.score, score=final.score,
                pair=final.pair, pair_values=final.pair_values,
                oracle_error=final.oracle_error, values=values,
                raw_hex=block.raw.hex(), asm=block.text(),
                minimize_trials=trials,
                signature=_signature(evaluator, abbrev, mode,
                                     final_candidate, block, final),
                loop_cond=candidate.loop_cond))
        stats = {
            "candidates": n_fresh,
            "mutants": n_mutants,
            "deviating": len(deviations),
            "witnesses": len(witnesses),
            "minimize_trials": minimize_trials,
        }
        families: List[Family] = []
        subsumed: List[Dict[str, object]] = []
        if config.generalize:
            outcome = generalize_uarch(
                evaluator, witnesses, samples=config.gen_samples,
                fresh_needed=config.fresh_witnesses,
                max_families=config.max_families,
                threshold=config.threshold, seed=config.seed,
                known=known)
            families = outcome.families
            subsumed = outcome.subsumed
            attach_coverage(families, corpus_blocks or [], evaluator.db)
            stats.update({
                "families": outcome.stats["families"],
                "families_folded": outcome.stats["folded"],
                "families_subsumed": outcome.stats["subsumed"],
                "families_unconfirmed": outcome.stats["unconfirmed"],
                "generalize_samples": outcome.stats["gen_samples"],
            })
        stats["blocks_evaluated"] = evaluator.blocks_evaluated
        return witnesses, stats, evaluator.incidents(), families, subsumed
    finally:
        evaluator.close()


def run_campaign(config: CampaignConfig,
                 checkpoint: Optional[CheckpointStore] = None,
                 known: Sequence[KnownFamily] = (),
                 coverage_corpus: Optional[str] = None,
                 progress: Optional[ProgressHook] = None,
                 ) -> CampaignResult:
    """Run a full deviation-discovery campaign.

    Deterministic given the config (minus ``n_workers``): two runs with
    the same seed/budget/tool set produce identical witnesses, clusters,
    and (canonical) reports.  A resumed campaign (same config, a
    *checkpoint* holding earlier evaluations) replays the identical
    control flow against the cache and is byte-identical too.

    With ``config.generalize`` set, witnesses are widened into ranked
    abstract families; *known* families (from a prior report, see
    ``facile hunt --known``) dedup re-discoveries by subsumption, and
    *coverage_corpus* (a hex/BHive-CSV path, default: the deterministic
    benchmark suite) scores each family's suite coverage.

    Raises:
        CampaignInterrupted: on ``KeyboardInterrupt`` — the checkpoint
            (when attached) is flushed first, and the exception carries
            the partial result of the µarchs that completed.
    """
    config.validate()
    modes = tuple(ThroughputMode(m) for m in config.modes)
    witnesses: List[Witness] = []
    stats: Dict[str, Dict[str, int]] = {}
    incidents: List[Dict[str, object]] = []
    families: List[Family] = []
    subsumed: List[Dict[str, object]] = []
    generalization: Optional[Dict[str, object]] = None
    corpus_blocks: Optional[List] = None
    if config.generalize:
        from repro.discovery.coverage import load_coverage_corpus
        corpus_label, corpus_blocks = \
            load_coverage_corpus(coverage_corpus)
        generalization = {"corpus": corpus_label,
                          "corpus_blocks": len(corpus_blocks),
                          "known_families": len(known)}

    def _result(partial: bool) -> CampaignResult:
        return CampaignResult(
            config=config, stats=stats, witnesses=witnesses,
            clusters=cluster_witnesses(witnesses), incidents=incidents,
            partial=partial, families=rank_families(families),
            subsumed=subsumed, generalization=generalization)

    try:
        for abbrev in config.uarchs:
            uarch_witnesses, uarch_stats, uarch_incidents, \
                uarch_families, uarch_subsumed = \
                _hunt_uarch(abbrev, config, modes,
                            checkpoint=checkpoint, known=known,
                            corpus_blocks=corpus_blocks,
                            progress=progress)
            witnesses.extend(uarch_witnesses)
            stats[abbrev] = uarch_stats
            incidents.extend(uarch_incidents)
            families.extend(uarch_families)
            subsumed.extend(uarch_subsumed)
    except KeyboardInterrupt:
        # The evaluator's close() (the finally in _hunt_uarch) already
        # flushed the checkpoint; hand back what completed.
        raise CampaignInterrupted(_result(partial=True)) from None
    return _result(partial=False)
