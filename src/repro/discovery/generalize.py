"""Witness generalization: from concrete deviations to block families.

This is the second half of the AnICA recipe (`facile hunt` implements
the first): take each minimized witness and **widen** it, one feature
lattice at a time, into the most general abstract block that still
deviates.  Every widening step is *validated empirically*: fresh
concrete blocks are sampled from the widened abstraction
(:meth:`AbstractBlock.sample`) and batch-evaluated through the same
per-µarch evaluator the campaign uses (Facile via
``ColumnarCore.predict_many``, baselines via their guarded
``predict_many``, the oracle via ``measure_many``/``measure``), and the
step is kept only
when the witness's deviating tool pair keeps disagreeing on (almost)
all of them.

The result of a successful generalization is a :class:`Family`:

* the widened :class:`AbstractBlock` (canonically serializable);
* the campaign witnesses it covers;
* ``K`` **fresh sampled witnesses** — concrete blocks drawn from the
  family that were *not* campaign inputs, each re-verified to deviate
  (the report's proof that the family is real, not an artifact of the
  original block);
* suite-coverage numbers filled in by
  :mod:`repro.discovery.coverage`.

Everything is driven by seeded sub-RNGs keyed on the campaign seed and
the witness bytes, and every tool evaluation flows through the
campaign's checkpoint-aware evaluator — generalized reports stay
byte-reproducible and ``--resume``-compatible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.components import ThroughputMode
from repro.bhive.generator import loop_back_edge
from repro.discovery.abstraction import FEATURE_ORDER, AbstractBlock
from repro.discovery.coverage import corpus_feature_index, family_coverage
from repro.discovery.subsumption import KnownFamily, family_id, \
    subsuming_family
from repro.eval.metrics import relative_disagreement
from repro.isa.assembler import assemble
from repro.isa.block import BasicBlock
from repro.isa.instruction import Instruction

#: Fresh samples drawn to validate one widening step.
DEFAULT_GEN_SAMPLES = 5
#: Fresh deviating witnesses a family must produce to be reported.
DEFAULT_FRESH_WITNESSES = 3
#: Generalization attempts per µarch (strongest witnesses first).
DEFAULT_MAX_FAMILIES = 8

#: Fraction of validation samples that must keep deviating for a
#: widening step to be accepted.
ACCEPT_RATIO = 0.8

#: Sampling patience: batches drawn per needed fresh witness before a
#: family is declared unconfirmed.
_FRESH_BATCHES = 10


@dataclass
class FreshWitness:
    """One sampled, re-verified member of a family."""

    lines: Tuple[str, ...]
    raw_hex: str
    score: float
    values: Dict[str, float]


@dataclass
class Family:
    """One generalized (and empirically confirmed) abstract deviation."""

    uarch: str
    mode: str
    category: str
    pair: Tuple[str, str]
    loop_cond: str
    abstraction: AbstractBlock
    witness_hexes: List[str]
    fresh: List[FreshWitness]
    widenings_tried: int
    widenings_accepted: int
    samples_evaluated: int
    coverage_matched: int = 0
    coverage_total: int = 0

    @property
    def id(self) -> str:
        return family_id(self.abstraction, self.uarch, self.mode,
                         self.pair)

    @property
    def coverage(self) -> float:
        if not self.coverage_total:
            return 0.0
        return self.coverage_matched / self.coverage_total

    @property
    def max_fresh_score(self) -> float:
        return max((fresh.score for fresh in self.fresh), default=0.0)


@dataclass
class GeneralizationOutcome:
    """Everything one µarch's generalization phase produced."""

    families: List[Family] = field(default_factory=list)
    subsumed: List[Dict[str, object]] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=lambda: {
        "attempted": 0, "families": 0, "folded": 0, "subsumed": 0,
        "unconfirmed": 0, "gen_samples": 0})


def _make_block(body: Sequence[Instruction], mode: ThroughputMode,
                loop_cond: str) -> BasicBlock:
    """A campaign-evaluable block from a body instruction list."""
    body = list(body)
    if mode is ThroughputMode.UNROLLED:
        return BasicBlock(body)
    body_len = sum(instr.length for instr in body)
    back = assemble(loop_back_edge(body_len, loop_cond))
    return BasicBlock(body + back)


def _deviates(values: Dict[str, float], pair: Tuple[str, str],
              threshold: float) -> Optional[float]:
    """The pair's disagreement when it meets *threshold*, else None."""
    first, second = pair
    if first not in values or second not in values:
        return None
    score = relative_disagreement(values[first], values[second])
    if score >= threshold:
        return score
    return None


def _draw_distinct(abstraction: AbstractBlock, rng: random.Random, db,
                   count: int, exclude: Set[bytes],
                   ) -> List[List[Instruction]]:
    """Up to *count* sampled bodies with pairwise-distinct encodings."""
    bodies: List[List[Instruction]] = []
    seen: Set[bytes] = set(exclude)
    for _ in range(4 * count):
        if len(bodies) >= count:
            break
        body = abstraction.sample(rng, db)
        if body is None:
            continue
        raw = b"".join(instr.raw for instr in body)
        if raw in seen:
            continue
        seen.add(raw)
        bodies.append(body)
    return bodies


def generalize_witness(witness, evaluator, *, samples: int,
                       fresh_needed: int, threshold: float, seed: int,
                       excluded_hexes: Set[str],
                       ) -> Tuple[Optional[Family], int]:
    """Widen one witness into a confirmed family.

    Returns ``(family, samples_evaluated)``; the family is ``None``
    when it could not be confirmed with *fresh_needed* fresh deviating
    witnesses.  Deterministic: the RNG is keyed on the campaign seed
    and the witness bytes, and all tool runs go through
    ``evaluator.evaluate`` (checkpoint-aware).
    """
    mode = ThroughputMode(witness.mode)
    rng = random.Random(
        f"{seed}|generalize|{witness.uarch}|{witness.mode}|"
        f"{witness.raw_hex}")
    body = assemble("\n".join(witness.minimized_lines))
    body_raw = b"".join(instr.raw for instr in body)
    abstraction = AbstractBlock.from_instructions(body, evaluator.db)

    evaluated = 0
    tried = accepted = 0
    min_valid = max(2, samples // 2)
    accept = lambda ok, total: ok >= math.ceil(ACCEPT_RATIO * total)  # noqa: E731

    for index in range(len(abstraction.insns)):
        for feature in FEATURE_ORDER:
            if abstraction.insns[index].is_top(feature):
                continue
            trial = abstraction.clone()
            trial.insns[index].widen(feature)
            tried += 1
            bodies = _draw_distinct(trial, rng, evaluator.db, samples,
                                    exclude=set())
            if len(bodies) < min_valid:
                continue  # cannot validate the step: keep it narrow
            blocks = [_make_block(b, mode, witness.loop_cond)
                      for b in bodies]
            values = evaluator.evaluate(blocks, mode)
            evaluated += len(blocks)
            deviating = sum(
                1 for entry in values
                if _deviates(entry, witness.pair, threshold) is not None)
            if accept(deviating, len(bodies)):
                abstraction = trial
                accepted += 1

    # Confirmation: K fresh, distinct, deviating members — none of them
    # campaign inputs.
    fresh: List[FreshWitness] = []
    exclude = {body_raw}
    exclude.update(bytes.fromhex(h) for h in excluded_hexes)
    for _ in range(_FRESH_BATCHES):
        if len(fresh) >= fresh_needed:
            break
        bodies = _draw_distinct(
            abstraction, rng, evaluator.db, samples,
            exclude=exclude | {bytes.fromhex(f.raw_hex)
                               for f in fresh})
        if not bodies:
            break
        blocks = [_make_block(b, mode, witness.loop_cond)
                  for b in bodies]
        values = evaluator.evaluate(blocks, mode)
        evaluated += len(blocks)
        for body_instrs, block, entry in zip(bodies, blocks, values):
            if len(fresh) >= fresh_needed:
                break
            score = _deviates(entry, witness.pair, threshold)
            if score is None:
                continue
            if block.raw.hex() in excluded_hexes:
                continue
            fresh.append(FreshWitness(
                lines=tuple(instr.text() for instr in body_instrs),
                raw_hex=block.raw.hex(), score=score,
                values=dict(entry)))
    if len(fresh) < fresh_needed:
        return None, evaluated
    return Family(
        uarch=witness.uarch, mode=witness.mode,
        category=witness.category, pair=tuple(witness.pair),
        loop_cond=witness.loop_cond, abstraction=abstraction,
        witness_hexes=[witness.raw_hex], fresh=fresh,
        widenings_tried=tried, widenings_accepted=accepted,
        samples_evaluated=evaluated), evaluated


def _witness_record(witness, subsumed_by: str) -> Dict[str, object]:
    return {
        "uarch": witness.uarch,
        "mode": witness.mode,
        "category": witness.category,
        "pair": list(witness.pair),
        "score": witness.score,
        "lines": list(witness.minimized_lines),
        "hex": witness.raw_hex,
        "subsumed_by": subsumed_by,
    }


def generalize_uarch(evaluator, witnesses: Sequence, *, samples: int,
                     fresh_needed: int, max_families: int,
                     threshold: float, seed: int,
                     known: Sequence[KnownFamily] = (),
                     ) -> GeneralizationOutcome:
    """One µarch's generalization phase.

    Witnesses are processed strongest-first.  A witness already matched
    by a family accepted earlier in this run is *folded* into it; one
    already matched by a ``--known`` family is reported as *subsumed*
    (cross-campaign dedup — no duplicate family is created); the rest
    are generalized, up to *max_families* attempts.
    """
    outcome = GeneralizationOutcome()
    excluded_hexes = {w.raw_hex for w in witnesses}
    ordered = sorted(witnesses, key=lambda w: (-w.score, w.raw_hex))
    for witness in ordered:
        body = assemble("\n".join(witness.minimized_lines))
        folded = False
        for family in outcome.families:
            if (family.uarch == witness.uarch
                    and family.mode == witness.mode
                    and family.pair == tuple(witness.pair)
                    and family.abstraction.matches(body, evaluator.db)):
                family.witness_hexes.append(witness.raw_hex)
                outcome.stats["folded"] += 1
                folded = True
                break
        if folded:
            continue
        base = AbstractBlock.from_instructions(body, evaluator.db)
        known_hit = subsuming_family(known, witness.uarch, witness.mode,
                                     witness.pair, base)
        if known_hit is not None:
            outcome.subsumed.append(
                _witness_record(witness, known_hit.id))
            outcome.stats["subsumed"] += 1
            continue
        if outcome.stats["attempted"] >= max_families:
            continue
        outcome.stats["attempted"] += 1
        family, evaluated = generalize_witness(
            witness, evaluator, samples=samples,
            fresh_needed=fresh_needed, threshold=threshold, seed=seed,
            excluded_hexes=excluded_hexes)
        outcome.stats["gen_samples"] += evaluated
        if family is None:
            outcome.stats["unconfirmed"] += 1
            continue
        known_hit = subsuming_family(known, family.uarch, family.mode,
                                     family.pair, family.abstraction)
        if known_hit is not None:
            outcome.subsumed.append(
                _witness_record(witness, known_hit.id))
            outcome.stats["subsumed"] += 1
            continue
        absorbed = False
        for existing in outcome.families:
            if (existing.uarch == family.uarch
                    and existing.mode == family.mode
                    and existing.pair == family.pair
                    and existing.abstraction.subsumes(family.abstraction)):
                existing.witness_hexes.append(witness.raw_hex)
                outcome.stats["folded"] += 1
                absorbed = True
                break
        if not absorbed:
            outcome.families.append(family)
            outcome.stats["families"] += 1
    return outcome


def attach_coverage(families: Sequence[Family], corpus_blocks,
                    db) -> None:
    """Fill every family's suite-coverage counters over one corpus."""
    if not families:
        return
    index = corpus_feature_index(corpus_blocks, db)
    for family in families:
        matched, total = family_coverage(family.abstraction, index)
        family.coverage_matched = matched
        family.coverage_total = total


def rank_families(families: List[Family]) -> List[Family]:
    """Rank by suite coverage, then strongest fresh witness, then id."""
    return sorted(families,
                  key=lambda f: (-f.coverage, -f.max_fresh_score, f.id))


# ---------------------------------------------------------------------------
# Standalone driver (``facile generalize REPORT.json``): generalize the
# witnesses of an existing hunt report after the fact.
# ---------------------------------------------------------------------------

@dataclass
class _ReportWitness:
    """A witness reconstructed from a report entry (v1 or v2)."""

    uarch: str
    mode: str
    category: str
    pair: Tuple[str, str]
    score: float
    minimized_lines: Tuple[str, ...]
    raw_hex: str
    loop_cond: str


def _report_witnesses(report: Dict) -> List[_ReportWitness]:
    witnesses = []
    for cluster in report.get("clusters", []):
        for entry in cluster.get("witnesses", []):
            witnesses.append(_ReportWitness(
                uarch=entry["uarch"], mode=entry["mode"],
                category=entry["category"],
                pair=(entry["pair"][0], entry["pair"][1]),
                score=entry["score"],
                minimized_lines=tuple(entry["lines"]),
                raw_hex=entry["hex"],
                # v1 reports predate loop_cond; every condition in
                # LOOP_CONDS macro-fuses identically, so "ne" is an
                # equivalent stand-in.
                loop_cond=entry.get("loop_cond", "ne")))
    return witnesses


def generalize_report(report: Dict, *,
                      known: Sequence[KnownFamily] = (),
                      coverage_corpus: Optional[str] = None,
                      gen_samples: int = DEFAULT_GEN_SAMPLES,
                      fresh_needed: int = DEFAULT_FRESH_WITNESSES,
                      max_families: int = DEFAULT_MAX_FAMILIES,
                      n_workers: Optional[int] = None) -> Dict:
    """Generalize an existing hunt report's witnesses post hoc.

    Returns a new report dict: the input's clusters and witnesses
    unchanged, plus ``families``/``subsumed``/``generalization``
    sections exactly as a ``facile hunt --generalize`` run would emit
    them.  Deterministic given the input report and options (the RNGs
    are keyed on the report's campaign seed and witness bytes).
    """
    import copy

    from repro.discovery.campaign import _Evaluator
    from repro.discovery.coverage import load_coverage_corpus
    from repro.discovery import report as report_mod

    config = report.get("config", {})
    seed = config.get("seed", 0)
    threshold = config.get("threshold")
    if threshold is None:
        raise ValueError("report has no config.threshold")
    predictors = tuple(config.get("predictors", ()))
    if not predictors:
        raise ValueError("report has no config.predictors")

    witnesses = _report_witnesses(report)
    corpus_label, corpus_blocks = load_coverage_corpus(coverage_corpus)

    families: List[Family] = []
    subsumed: List[Dict[str, object]] = []
    stats_updates: Dict[str, Dict[str, int]] = {}
    for abbrev in config.get("uarchs", ()):
        uarch_witnesses = [w for w in witnesses if w.uarch == abbrev]
        evaluator = _Evaluator(abbrev, predictors, n_workers)
        try:
            outcome = generalize_uarch(
                evaluator, uarch_witnesses, samples=gen_samples,
                fresh_needed=fresh_needed, max_families=max_families,
                threshold=threshold, seed=seed, known=known)
            attach_coverage(outcome.families, corpus_blocks,
                            evaluator.db)
            families.extend(outcome.families)
            subsumed.extend(outcome.subsumed)
            stats_updates[abbrev] = {
                "families": outcome.stats["families"],
                "families_folded": outcome.stats["folded"],
                "families_subsumed": outcome.stats["subsumed"],
                "families_unconfirmed": outcome.stats["unconfirmed"],
                "generalize_samples": outcome.stats["gen_samples"],
                "blocks_evaluated": evaluator.blocks_evaluated,
            }
        finally:
            evaluator.close()

    updated = copy.deepcopy(report)
    updated["schema"] = report_mod.SCHEMA
    updated.setdefault("config", {}).update({
        "generalize": True,
        "gen_samples": gen_samples,
        "fresh_witnesses": fresh_needed,
        "max_families": max_families,
    })
    for cluster in updated.get("clusters", []):
        for entry in cluster.get("witnesses", []):
            entry.setdefault("loop_cond", "ne")
    for abbrev, extra in stats_updates.items():
        entry = updated.setdefault("stats", {}).setdefault(abbrev, {})
        entry["blocks_evaluated"] = (
            entry.get("blocks_evaluated", 0)
            + extra.pop("blocks_evaluated"))
        entry.update(extra)
    ranked = rank_families(families)
    updated["families"] = [report_mod._family_entry(f) for f in ranked]
    updated["subsumed"] = [
        {**entry, "score": report_mod._score(entry.get("score"))}
        for entry in subsumed
    ]
    updated["generalization"] = {
        "corpus": corpus_label,
        "corpus_blocks": len(corpus_blocks),
        "known_families": len(known),
    }
    summary = updated.setdefault("summary", {})
    summary["families"] = len(ranked)
    summary["subsumed"] = len(subsumed)
    return updated
