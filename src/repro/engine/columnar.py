"""The columnar prediction core (template-level compiled fast path).

The object-model reference path (:class:`repro.core.model.Facile`)
re-traverses per-instruction Python objects on every cold prediction:
decode, µop characterization, macro-fusion pairing, and the component
bounds all walk object graphs.  This module lowers that work into a
**template-level compilation pass** so it is paid once per *instruction
signature* instead of once per raw-bytes block:

* Every decoded instruction form is split into **form bytes** (prefixes,
  REX/VEX, escapes, opcode, ModRM, SIB — everything that determines the
  template and all register operands) and **payload bytes** (the
  displacement and immediate values).  A global byte trie maps raw bytes
  straight to a form leaf without object decoding.
* A block's **signature** is the tuple of its instructions'
  ``(form leaf, displacement-is-zero)`` pairs.  The analysis of a block
  is a pure function of its signature: payload bytes only influence the
  model through ``disp != 0`` (memory-operand component counts), so two
  blocks that differ only in displacement/immediate *values* share one
  compiled entry — unseen blocks hit warm sub-results.
* Each compiled entry stores the representative block and macro-op
  stream plus its fused/issued µop totals, summed once when the entry
  is built; the Issue, DSB and LSD bounds are integer arithmetic on
  those totals.  Predec (the 16-byte-window model), Dec's Algorithm 1,
  the Ports pair-union heuristic, and JCC run the *reference* component
  implementations once per entry on the representative block, which is
  what makes the core bit-for-bit equal to
  :class:`~repro.core.model.Facile` by construction.  Ports results
  additionally flow through the shared global multiset memo
  (:func:`repro.core.ports.ports_bound_counts`).
* Precedence is compiled.  Each signature component is lowered once
  per core into a dependence template (its written roots, consumed
  roots and latency edges, :func:`repro.core.precedence.lower_dependences`),
  and each new entry builds its graph from the templates on integer
  node ids and solves it with the exact integer Howard kernel
  (:mod:`repro.graph.howard_int`).  The kernel replays the reference's
  node order, visit order and tie-breaks, so the bound and critical
  chain equal :func:`repro.core.precedence.precedence_bound`'s; the
  differential harness and the kernel tests (``tests/graph/test_mcr.py``,
  ``tests/core/test_precedence.py``) check it against the object model.

Exactness argument, in one paragraph: the form bytes determine the
template, every register operand (ModRM/SIB/REX/VEX.vvvv/and
reg-in-opcode fields are form bytes), all lengths, the opcode offset,
and the LCP flag.  Displacement and immediate values are the only
per-instruction variation left, and the model reads them in exactly one
place — ``disp != 0`` in the µop database's memory-component count (and
the ``[disp32]``-with-no-base validity check).  Hence a representative
instruction with the same ``(form, disp==0)`` signature yields an
identical analysis, and every component bound computed from it equals
the reference value.  The differential harness
(``tests/engine/test_columnar_equiv.py``) enforces this on every
generator category, every µarch, and every mode, plus seeded fuzz.

The trie is guarded, not trusted: a form is only inserted when doing so
keeps the leaf set prefix-free (fixed-byte NOP patterns are installed
first); any form that would conflict is *poisoned* and its instructions
fall back to exact-raw-bytes leaves, which is always correct, merely
less shared.  The trie and the representative table are process-wide
and shared by every core, so cores on different threads (the service's
per-µarch dispatchers with ``--no-shard`` or after a shard fallback)
insert new forms under one module lock; the walk over known forms
takes no lock.  A core's own entries and templates are not
synchronized: one core serves one thread.

Select the core per :class:`~repro.engine.engine.Engine` with
``core="object"|"columnar"``, per process with ``REPRO_ENGINE_CORE``,
or per CLI run with ``facile predict --core``.  The default is
``columnar``, and the prediction service runs nothing else: its shards
predict straight from request bytes with
:meth:`ColumnarCore.predict_raw_counted` (see ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import os
import threading
from collections import Counter, OrderedDict
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, \
    Tuple

from repro.core.components import (
    Component,
    LOOP_COMPONENTS,
    ThroughputMode,
    UNROLLED_COMPONENTS,
)
from repro.core.decoder import dec_bound, simple_dec_bound
from repro.core.jcc import affected_by_jcc_erratum
from repro.core.lsd import lsd_unroll_count
from repro.core.model import Prediction, _combine, _critical_indices
from repro.core.ports import PortsResult, critical_instructions, \
    ports_bound_counts
from repro.core.precedence import DepTemplate, PrecedenceResult, \
    compiled_precedence_bound, lower_dependences
from repro.core.predecoder import predec_bound, simple_predec_bound
from repro.isa.block import BasicBlock
from repro.isa.decoder import decode
from repro.isa.instruction import Instruction
from repro.isa.templates import _NOP_BYTES
from repro.uarch.config import MicroArchConfig
from repro.uops.blockinfo import analyze_block, macro_ops
from repro.uops.database import UopsDatabase

_ALL_COMPONENTS = frozenset(Component)

#: Recognized core names, and the engine-wide default.
VALID_CORES = ("object", "columnar")
DEFAULT_CORE = "columnar"

#: Compiled entries held per core (LRU-bounded, like the analysis cache).
DEFAULT_MAX_ENTRIES = 65536


def resolve_core(core: Optional[str] = None) -> str:
    """Resolve the effective prediction core name.

    Precedence: the explicit *core* argument, then the
    ``REPRO_ENGINE_CORE`` environment variable, then
    :data:`DEFAULT_CORE`.  An invalid explicit argument raises; an
    invalid environment value warns and falls back to the default (it
    is read at engine construction inside arbitrary commands, where
    crashing would be worse than serving the default core).
    """
    if core is not None:
        if core not in VALID_CORES:
            raise ValueError(
                f"unknown prediction core {core!r} "
                f"(expected one of {', '.join(VALID_CORES)})")
        return core
    env = os.environ.get("REPRO_ENGINE_CORE", "").strip().lower()
    if env in VALID_CORES:
        return env
    if env:
        import warnings
        warnings.warn(
            f"ignoring invalid REPRO_ENGINE_CORE={env!r} "
            f"(expected one of {', '.join(VALID_CORES)}); "
            f"using {DEFAULT_CORE!r}")
    return DEFAULT_CORE


# ---------------------------------------------------------------------------
# The global form trie (µarch-independent, process-wide)
# ---------------------------------------------------------------------------

class _Leaf:
    """One known instruction form: how to slice its encoding.

    Identity-hashed; a leaf object *is* the signature component for
    every instruction sharing its form bytes.
    """

    __slots__ = ("form_len", "disp_len", "imm_len")

    def __init__(self, form_len: int, disp_len: int, imm_len: int):
        self.form_len = form_len
        self.disp_len = disp_len
        self.imm_len = imm_len

    @property
    def length(self) -> int:
        return self.form_len + self.disp_len + self.imm_len


#: A signature component: (form leaf, displacement-is-zero).
_SigItem = Tuple[_Leaf, bool]
#: A block signature.
Signature = Tuple[_SigItem, ...]


class _TrieNode:
    __slots__ = ("children", "leaf")

    def __init__(self):
        self.children: Dict[int, "_TrieNode"] = {}
        self.leaf: Optional[_Leaf] = None


class _FormLayoutError(Exception):
    """An instruction whose byte layout defeats the form split."""


#: Poison marker: forms that cannot be inserted without breaking the
#: trie's prefix-freeness; their instructions use exact-raw leaves.
_POISONED = object()

_TRIE_ROOT = _TrieNode()
_FORM_INDEX: Dict[bytes, object] = {}  # form bytes -> _Leaf | _POISONED
_RAW_LEAVES: Dict[bytes, _Leaf] = {}   # exact-raw fallback leaves
#: Representative decoded instruction per signature component.  The
#: analysis of any instruction with the same signature is identical,
#: so one representative serves every core and µarch.
_REP_INSTRS: Dict[_SigItem, Instruction] = {}
#: Serializes form insertion (check, then insert) across threads.
_INSERT_LOCK = threading.Lock()


def _insert_form(form: bytes, disp_len: int, imm_len: int) -> Optional[_Leaf]:
    """Insert a form into the trie, keeping the leaf set prefix-free.

    Returns the new leaf, or ``None`` (and poisons the form) when the
    insertion would create a nested leaf — in which case callers fall
    back to exact-raw leaves, which is always correct.
    """
    node = _TRIE_ROOT
    for byte in form:
        if node.leaf is not None:  # a strict prefix is a known form
            _FORM_INDEX[form] = _POISONED
            return None
        node = node.children.setdefault(byte, _TrieNode())
    if node.leaf is not None or node.children:
        _FORM_INDEX[form] = _POISONED
        return None
    leaf = _Leaf(len(form), disp_len, imm_len)
    node.leaf = leaf
    _FORM_INDEX[form] = leaf
    return leaf


def _install_nops() -> None:
    """Install the fixed-byte NOP patterns as whole-form leaves.

    They go in first so a generic form that would nest with a NOP
    pattern poisons *itself* rather than shadowing the NOP — the
    decoder matches NOP patterns before generic forms, and the trie
    walk must agree with it.
    """
    for length, pattern in sorted(_NOP_BYTES.items()):
        if _insert_form(bytes(pattern), 0, 0) is None:
            raise RuntimeError(
                f"NOP pattern of length {length} conflicts with the "
                "form trie; the columnar core cannot mirror the decoder")


_install_nops()


def _form_split(instr: Instruction) -> Tuple[int, int, int]:
    """``(form_len, disp_len, imm_len)`` of *instr*'s encoding.

    Mirrors the byte layout the decoder consumes:
    ``[prefixes][REX|VEX][escapes][opcode][ModRM][SIB][disp][imm]`` —
    displacement and immediate are always the trailing bytes, so the
    form is a prefix of the encoding.

    Raises:
        _FormLayoutError: the structural parse disagrees with the
            template arithmetic (never observed; the caller falls back
            to an exact-raw leaf).
    """
    raw = instr.raw
    enc = instr.template.encoding
    if enc.fixed_bytes is not None:
        return len(raw), 0, 0
    imm_len = enc.imm_width // 8 if enc.imm_width else 0
    if enc.modrm is None:
        form_len = len(raw) - imm_len
        if form_len <= 0:
            raise _FormLayoutError(instr.template.name)
        return form_len, 0, imm_len
    i = instr.opcode_offset
    if raw[i] in (0xC4, 0xC5):
        i += 3 if raw[i] == 0xC4 else 2
    elif raw[i] == 0x0F:
        i += 1
        if raw[i] in (0x38, 0x3A):
            i += 1
    i += 1  # the opcode byte
    modrm = raw[i]
    i += 1
    mod, rm = modrm >> 6, modrm & 7
    disp_len = 0
    if mod == 0b11:
        disp_len = 0
    elif mod == 0b00 and rm == 0b101:
        disp_len = 4
    elif rm == 0b100:
        sib = raw[i]
        i += 1
        if mod == 0b00:
            disp_len = 4 if (sib & 7) == 0b101 else 0
        elif mod == 0b01:
            disp_len = 1
        else:
            disp_len = 4
    elif mod == 0b01:
        disp_len = 1
    elif mod == 0b10:
        disp_len = 4
    if i + disp_len + imm_len != len(raw):
        raise _FormLayoutError(instr.template.name)
    return i, disp_len, imm_len


def _leaf_for_instruction(instr: Instruction) -> _SigItem:
    """The signature component of a decoded instruction.

    Inserts the instruction's form into the trie on first sight and
    registers the instruction as the representative of its signature.
    Poisoned or unsplittable forms degrade to an exact-raw leaf.
    """
    raw = instr.raw
    leaf: Optional[_Leaf] = None
    try:
        form_len, disp_len, imm_len = _form_split(instr)
    except _FormLayoutError:
        form_len = disp_len = imm_len = -1
    if form_len > 0:
        form = raw[:form_len]
        known = _FORM_INDEX.get(form)
        if known is None:
            with _INSERT_LOCK:
                known = _FORM_INDEX.get(form)
                if known is None:
                    known = _insert_form(form, disp_len, imm_len)
        if known is not None and known is not _POISONED:
            leaf = known  # type: ignore[assignment]
            if (leaf.disp_len, leaf.imm_len) != (disp_len, imm_len):
                leaf = None  # inconsistent split: fall back (defensive)
    if leaf is None:
        leaf = _RAW_LEAVES.get(raw)
        if leaf is None:
            leaf = _RAW_LEAVES.setdefault(raw, _Leaf(len(raw), 0, 0))
        key: _SigItem = (leaf, True)
    else:
        mem = instr.mem_operand()
        key = (leaf, mem is None or mem.disp == 0)
    _REP_INSTRS.setdefault(key, instr)
    return key


def _walk(raw: bytes, offset: int) -> Optional[_SigItem]:
    """Trie walk: the signature component of the instruction at
    *offset*, or ``None`` when the form is not (yet) in the trie.

    The leaf set is prefix-free, so the first leaf on the path is the
    unique candidate; its slice lengths recover the payload bytes.
    """
    node = _TRIE_ROOT
    i = offset
    end = len(raw)
    while True:
        leaf = node.leaf
        if leaf is not None:
            if offset + leaf.length > end:
                return None
            if leaf.disp_len:
                start = offset + leaf.form_len
                disp_zero = not any(raw[start:start + leaf.disp_len])
            else:
                disp_zero = True
            return leaf, disp_zero
        if i >= end:
            return None
        node = node.children.get(raw[i])
        if node is None:
            return None
        i += 1


def _rep_for(raw: bytes, offset: int, key: _SigItem) -> Instruction:
    """The representative instruction of *key*, decoding the bytes at
    *offset* on first sight (decode errors propagate, exactly as
    ``BasicBlock.from_bytes`` would raise them)."""
    rep = _REP_INSTRS.get(key)
    if rep is None:
        rep, _ = decode(raw, offset)
        rep = _REP_INSTRS.setdefault(key, rep)
    return rep


def _reset_global_tables() -> None:
    """Drop every process-wide table and reinstall the NOPs (tests)."""
    _TRIE_ROOT.children.clear()
    _TRIE_ROOT.leaf = None
    _FORM_INDEX.clear()
    _RAW_LEAVES.clear()
    _REP_INSTRS.clear()
    _install_nops()


# ---------------------------------------------------------------------------
# Compiled block entries
# ---------------------------------------------------------------------------

class _BlockEntry:
    """One compiled block signature: µop totals + memoized bound pieces."""

    __slots__ = ("sig", "block", "analyzed", "ops", "n_fused", "n_issued",
                 "dec", "ports", "ports_critical", "precedence", "jcc",
                 "protos", "error")

    def __init__(self, sig: Signature):
        self.sig = sig
        self.block: Optional[BasicBlock] = None
        self.analyzed = None
        self.ops = None
        self.n_fused = 0
        self.n_issued = 0
        self.dec: Optional[Fraction] = None
        self.ports: Optional[PortsResult] = None
        self.ports_critical: Optional[List[int]] = None
        self.precedence: Optional[PrecedenceResult] = None
        self.jcc: Optional[bool] = None
        self.protos: Dict[ThroughputMode, Prediction] = {}
        self.error: Optional[BaseException] = None


class ColumnarCore:
    """Template-compiled predictor, bit-for-bit equal to ``Facile``.

    Accepts the same variant knobs as :class:`~repro.core.model.Facile`
    (``simple_predec`` / ``simple_dec`` / ``components`` / ``exclude``),
    so every engine configuration can route through it.  Entries and
    the per-form dependence templates are held per core instance (one
    core serves one µarch + variant), each in an LRU of *max_entries*;
    the form trie and representative-instruction table are shared
    process-wide.

    Attributes:
        raw_hits / sig_hits / misses: lookup counters — a ``sig_hit``
            is the headline event: a never-seen raw block resolved to
            an already-compiled signature entry.
    """

    def __init__(self, cfg: MicroArchConfig, *,
                 simple_predec: bool = False,
                 simple_dec: bool = False,
                 components: Optional[Iterable[Component]] = None,
                 exclude: Iterable[Component] = (),
                 db: Optional[UopsDatabase] = None,
                 max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.cfg = cfg
        self.db = db if db is not None else UopsDatabase(cfg)
        self.simple_predec = simple_predec
        self.simple_dec = simple_dec
        base = frozenset(components) if components is not None \
            else _ALL_COMPONENTS
        self.enabled: FrozenSet[Component] = base - frozenset(exclude)
        self.max_entries = max_entries
        self._entries: "OrderedDict[Signature, _BlockEntry]" = OrderedDict()
        self._by_raw: "OrderedDict[bytes, _BlockEntry]" = OrderedDict()
        self._templates: "OrderedDict[_SigItem, DepTemplate]" = \
            OrderedDict()
        self.raw_hits = 0
        self.sig_hits = 0
        self.misses = 0

    # -- entry resolution ----------------------------------------------

    def _remember(self, store: OrderedDict, key, entry) -> None:
        while len(store) >= self.max_entries:
            store.popitem(last=False)
        store[key] = entry

    def _entry_for_sig(self, sig: Signature,
                       instructions: Sequence[Instruction],
                       ) -> _BlockEntry:
        entry = self._entries.get(sig)
        if entry is not None:
            self.sig_hits += 1
            self._entries.move_to_end(sig)
            return entry
        self.misses += 1
        entry = _BlockEntry(sig)
        try:
            block = BasicBlock(list(instructions))
            entry.block = block
            entry.analyzed = analyze_block(block, self.cfg, self.db)
            entry.ops = macro_ops(entry.analyzed, self.cfg)
            for op in entry.ops:
                entry.n_fused += op.info.fused_uops
                entry.n_issued += op.info.issued_uops
        except Exception as exc:
            # Signature-deterministic (unsupported template on this
            # µarch, degenerate memory operand, empty block): replay
            # the same failure for every block sharing the signature,
            # exactly as the object path re-raises per call.
            entry.error = exc
        self._remember(self._entries, sig, entry)
        return entry

    def _entry_for_block(self, block: BasicBlock) -> _BlockEntry:
        sig = tuple(_leaf_for_instruction(instr) for instr in block)
        return self._entry_for_sig(sig, block.instructions)

    def _entry_for_raw(self, raw: bytes) -> _BlockEntry:
        sig: List[_SigItem] = []
        offset = 0
        end = len(raw)
        while offset < end:
            item = _walk(raw, offset)
            if item is None:
                # Unknown form: decode the block once; this also
                # inserts every new form for later raw-path hits.
                return self._entry_for_block(BasicBlock.from_bytes(raw))
            sig.append(item)
            offset += item[0].length
        key = tuple(sig)
        entry = self._entries.get(key)
        if entry is not None:
            self.sig_hits += 1
            self._entries.move_to_end(key)
            return entry
        reps: List[Instruction] = []
        offset = 0
        for item in key:
            reps.append(_rep_for(raw, offset, item))
            offset += item[0].length
        return self._entry_for_sig(key, reps)

    def _resolve_block(self, block: BasicBlock) -> _BlockEntry:
        raw = block.raw
        entry = self._by_raw.get(raw)
        if entry is not None:
            self.raw_hits += 1
            self._by_raw.move_to_end(raw)
            return entry
        entry = self._entry_for_block(block)
        self._remember(self._by_raw, raw, entry)
        return entry

    def _resolve_raw(self, raw: bytes) -> _BlockEntry:
        entry = self._by_raw.get(raw)
        if entry is not None:
            self.raw_hits += 1
            self._by_raw.move_to_end(raw)
            return entry
        entry = self._entry_for_raw(raw)
        self._remember(self._by_raw, raw, entry)
        return entry

    # -- memoized per-entry bound pieces -------------------------------
    # Each runs at most once per (entry, mode): ``_predict_entry`` keeps
    # the assembled prediction.  The mode-independent pieces are kept on
    # the entry so the second mode reuses them.

    def _predec_bound(self, entry: _BlockEntry,
                      mode: ThroughputMode) -> Fraction:
        bound = simple_predec_bound if self.simple_predec else predec_bound
        return bound(entry.block, self.cfg, mode)

    def _dec_bound(self, entry: _BlockEntry) -> Fraction:
        if entry.dec is None:
            entry.dec = (simple_dec_bound(entry.ops, self.cfg)
                         if self.simple_dec
                         else dec_bound(entry.ops, self.cfg))
        return entry.dec

    def _dsb_bound(self, entry: _BlockEntry) -> Fraction:
        width = self.cfg.dsb_width
        if entry.block.num_bytes < 32:
            return Fraction(-(-entry.n_fused // width))
        return Fraction(entry.n_fused, width)

    def _lsd_bound(self, entry: _BlockEntry) -> Fraction:
        unroll = lsd_unroll_count(entry.n_fused, self.cfg)
        return Fraction(-(-(entry.n_fused * unroll) // self.cfg.issue_width),
                        unroll)

    def _ports_result(self, entry: _BlockEntry) -> PortsResult:
        if entry.ports is None:
            counts: Counter = Counter()
            for op in entry.ops:
                for ports in op.info.port_sets:
                    counts[ports] += 1
            entry.ports = ports_bound_counts(counts)
        return entry.ports

    def _ports_critical(self, entry: _BlockEntry) -> List[int]:
        if entry.ports_critical is None:
            entry.ports_critical = critical_instructions(
                entry.ops, self._ports_result(entry))
        return entry.ports_critical

    def _precedence_result(self, entry: _BlockEntry) -> PrecedenceResult:
        if entry.precedence is None:
            memo = self._templates
            templates: List[DepTemplate] = []
            for item, instr in zip(entry.sig, entry.block):
                template = memo.get(item)
                if template is None:
                    template = lower_dependences(instr, self.db)
                    self._remember(memo, item, template)
                else:
                    memo.move_to_end(item)
                templates.append(template)
            entry.precedence = compiled_precedence_bound(templates)
        return entry.precedence

    def _jcc_affected(self, entry: _BlockEntry) -> bool:
        if entry.jcc is None:
            entry.jcc = affected_by_jcc_erratum(entry.block, self.cfg,
                                                entry.analyzed)
        return entry.jcc

    # -- prediction assembly -------------------------------------------

    def _make_proto(self, entry: _BlockEntry,
                    mode: ThroughputMode) -> Prediction:
        """The full prediction of (entry, mode) — built once, copied out
        per call.  Mirrors ``Facile.predict`` clause for clause,
        including the bounds-dict insertion order."""
        bounds: Dict[Component, Fraction] = {}
        ports_detail: Optional[PortsResult] = None
        precedence_detail: Optional[PrecedenceResult] = None
        ports_critical: List[int] = []

        relevant = (UNROLLED_COMPONENTS
                    if mode is ThroughputMode.UNROLLED
                    else LOOP_COMPONENTS)
        active = [c for c in relevant if c in self.enabled]

        if Component.PREDEC in active:
            bounds[Component.PREDEC] = self._predec_bound(entry, mode)
        if Component.DEC in active:
            bounds[Component.DEC] = self._dec_bound(entry)
        if Component.DSB in active:
            bounds[Component.DSB] = self._dsb_bound(entry)
        if Component.LSD in active:
            bounds[Component.LSD] = self._lsd_bound(entry)
        if Component.ISSUE in active:
            bounds[Component.ISSUE] = Fraction(entry.n_issued,
                                               self.cfg.issue_width)
        if Component.PORTS in active:
            ports_detail = self._ports_result(entry)
            ports_critical = self._ports_critical(entry)
            bounds[Component.PORTS] = ports_detail.bound
        if Component.PRECEDENCE in active:
            precedence_detail = self._precedence_result(entry)
            bounds[Component.PRECEDENCE] = precedence_detail.bound

        jcc_affected = (mode is ThroughputMode.LOOP
                        and self._jcc_affected(entry))
        lsd_applicable = (mode is ThroughputMode.LOOP
                          and self.cfg.lsd_enabled
                          and entry.n_fused <= self.cfg.idq_size)

        tp, fe, bottlenecks = _combine(bounds, mode, self.enabled,
                                       jcc_affected, lsd_applicable)
        return Prediction(
            throughput=tp, mode=mode, bounds=bounds,
            bottlenecks=bottlenecks, fe_component=fe,
            jcc_affected=jcc_affected, lsd_applicable=lsd_applicable,
            ports_detail=ports_detail,
            precedence_detail=precedence_detail,
            critical_instruction_indices=_critical_indices(
                bottlenecks, ports_critical, precedence_detail),
            ports_critical_indices=ports_critical,
        )

    def _predict_entry(self, entry: _BlockEntry,
                       mode: ThroughputMode) -> Prediction:
        if entry.error is not None:
            # The cached exception is raised again on every call; start
            # each raise from an empty traceback so the frames of earlier
            # callers do not pile up on it.
            raise entry.error.with_traceback(None)
        proto = entry.protos.get(mode)
        if proto is None:
            proto = self._make_proto(entry, mode)
            entry.protos[mode] = proto
        # Fresh containers per call (callers may mutate), shared frozen
        # detail payloads — matching what the object path hands out.
        return Prediction(
            throughput=proto.throughput, mode=proto.mode,
            bounds=dict(proto.bounds),
            bottlenecks=list(proto.bottlenecks),
            fe_component=proto.fe_component,
            jcc_affected=proto.jcc_affected,
            lsd_applicable=proto.lsd_applicable,
            ports_detail=proto.ports_detail,
            precedence_detail=proto.precedence_detail,
            critical_instruction_indices=list(
                proto.critical_instruction_indices),
            ports_critical_indices=proto.ports_critical_indices,
        )

    # -- public API ----------------------------------------------------

    def predict(self, block: BasicBlock,
                mode: ThroughputMode) -> Prediction:
        """Predict one (decoded) block — drop-in for ``Facile.predict``."""
        return self._predict_entry(self._resolve_block(block), mode)

    def predict_many(self, blocks: Iterable[BasicBlock],
                     mode: ThroughputMode) -> List[Prediction]:
        """Predict a batch — drop-in for ``Facile.predict_many``."""
        return [self.predict(block, mode) for block in blocks]

    def predict_raw(self, raw: bytes, mode: ThroughputMode) -> Prediction:
        """Predict straight from block bytes.

        On a warm trie this never builds instruction objects: the walk
        yields the signature, the compiled entry supplies the result.
        Decode errors propagate exactly as ``BasicBlock.from_bytes``
        would raise them.
        """
        return self._predict_entry(self._resolve_raw(raw), mode)

    def predict_raw_counted(self, raw: bytes, mode: ThroughputMode
                            ) -> Tuple[Prediction, int]:
        """:meth:`predict_raw` plus the block's instruction count, read
        off the compiled signature, so a caller holding only bytes can
        serialize the prediction without decoding the block."""
        entry = self._resolve_raw(raw)
        return self._predict_entry(entry, mode), len(entry.sig)

    def predict_raw_many(self, raws: Iterable[bytes],
                         mode: ThroughputMode) -> List[Prediction]:
        """:meth:`predict_raw` over a batch."""
        return [self.predict_raw(raw, mode) for raw in raws]

    def stats(self) -> Dict[str, int]:
        """Lookup counters plus the compiled-entry and dependence-template
        populations."""
        return {
            "entries": len(self._entries),
            "templates": len(self._templates),
            "raw_hits": self.raw_hits,
            "sig_hits": self.sig_hits,
            "misses": self.misses,
        }

    def clear(self) -> None:
        """Drop this core's compiled entries and dependence templates
        (counters are kept).

        The process-wide form trie and representative table are shared
        with other cores and stay; tests that need a cold trie use
        ``_reset_global_tables``.
        """
        self._entries.clear()
        self._by_raw.clear()
        self._templates.clear()
