"""The columnar prediction core (template-level compiled fast path).

The object-model reference path (:class:`repro.core.model.Facile`)
re-traverses per-instruction Python objects on every cold prediction:
decode, µop characterization, macro-fusion pairing, and the component
bounds all walk object graphs.  This module compiles that work per
*instruction form* instead, so a new block costs one pass over cached
per-form rows:

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
  compiled entry — unseen blocks hit warm sub-results.  The signature
  is the only key: a core keeps no index of exact bytes, so its memory
  follows the signatures it has compiled, not the byte strings it has
  seen.
* **Per-form facts, once per process.**  The first instruction seen of
  a signature item is kept as its representative; the µarch-independent
  facts of its form (layout, branch flags, fusion class, memory operand
  and dataflow, :class:`_FormFacts`) are taken from it once.  The raw
  path decodes only the instructions the trie walk does not know.
* **Per-core rows, one per signature item** (:class:`_Row`): the µop
  database's answer for the representative on the core's µarch, and,
  when the core computes Precedence, the dependence template — the
  µarch's latencies on the shared dataflow
  (:func:`repro.core.precedence.apply_latencies`).
* **Entries built from rows** (:meth:`ColumnarCore._compile`): one pass
  pairs macro-fusion greedily and builds the µop totals and each
  component's input — the predecoder layout, the macro-op tuples, the
  port ops and the jump spans.  The bounds are the object model's own
  kernels (``predec_cycles``, ``dec_cycles``, ``ports_bound_counts``,
  ``spans_affected``, the DSB/LSD/Issue µop-total kernels) on those
  inputs: the object model reaches the same kernels by projecting its
  objects onto the same tuples, so each component has one
  implementation.  Precedence builds its graph from the rows' templates
  on integer node ids and solves it with the exact integer Howard
  kernel (:mod:`repro.graph.howard_int`), which replays the reference's
  node order, visit order and tie-breaks.

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
generator category, every µarch, and every mode, plus seeded fuzz, and
checks each entry's kernel inputs against the object model's
projections.

The trie is guarded, not trusted: a form is only inserted when doing so
keeps the leaf set prefix-free (fixed-byte NOP patterns are installed
first); any form that would conflict is *poisoned* and its instructions
fall back to exact-raw-bytes leaves, which is always correct, merely
less shared.  The trie, the representatives and the form facts are
process-wide and shared by every core, so cores on different threads
(the service's per-µarch dispatchers with ``--no-shard`` or after a
shard fallback) insert new forms under one module lock; the walk over
known forms takes no lock, and representatives and facts are set with
``dict.setdefault``, whose first value wins.  A core's own entries and
rows are not synchronized: one core serves one thread.

This is the one prediction core of the program: ``facile predict``,
the hunt, the Facile predictor and Table 4 hold a :class:`ColumnarCore`,
and the prediction service's shards predict straight from request bytes
with :meth:`ColumnarCore.predict_raw_counted` (see
``docs/ARCHITECTURE.md``).  The object model stays the reference that
the differential tests, the simulator and the baselines call directly.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, \
    Sequence, Tuple

from repro.core.components import (
    Component,
    LOOP_COMPONENTS,
    ThroughputMode,
    UNROLLED_COMPONENTS,
)
from repro.core.decoder import DecOp, dec_cycles, simple_dec_cycles
from repro.core.dsb import dsb_cycles
from repro.core.issue import issue_cycles
from repro.core.jcc import Span, spans_affected
from repro.core.lsd import lsd_cycles, lsd_fits_uops
from repro.core.model import Prediction, _combine, _critical_indices
from repro.core.ports import PortOp, PortsResult, critical_port_ops, \
    port_multiset, ports_bound_counts
from repro.core.precedence import DepTemplate, PrecedenceResult, \
    apply_latencies, compiled_precedence_bound, dataflow
from repro.core.predecoder import Layout, predec_cycles, \
    simple_predec_cycles
from repro.isa.block import BasicBlock
from repro.isa.decoder import decode
from repro.isa.instruction import Instruction
from repro.isa.templates import _NOP_BYTES
from repro.uarch.config import MicroArchConfig
from repro.uops.database import UopsDatabase
from repro.uops.fusion import can_macro_fuse

_ALL_COMPONENTS = frozenset(Component)

#: Compiled entries held per core (LRU-bounded, like the analysis cache).
DEFAULT_MAX_ENTRIES = 65536


# ---------------------------------------------------------------------------
# The global form trie (µarch-independent, process-wide)
# ---------------------------------------------------------------------------

class _Leaf:
    """One known instruction form: how to slice its encoding.

    Identity-hashed; a leaf object *is* the signature component for
    every instruction sharing its form bytes.  ``items[disp_zero]`` is
    its signature item, built once so walks allocate none.
    """

    __slots__ = ("form_len", "disp_len", "imm_len", "length", "items")

    def __init__(self, form_len: int, disp_len: int, imm_len: int):
        self.form_len = form_len
        self.disp_len = disp_len
        self.imm_len = imm_len
        self.length = form_len + disp_len + imm_len
        self.items = ((self, False), (self, True))


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
#: The µarch-independent facts of each form (leaf), taken from a
#: representative on first use (:class:`_FormFacts`); both
#: displacement-is-zero variants of a form share them.
_FORM_FACTS: Dict[_Leaf, "_FormFacts"] = {}
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
        key: _SigItem = leaf.items[True]
    else:
        mem = instr.mem_operand()
        key = leaf.items[mem is None or mem.disp == 0]
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
                return leaf.items[not any(raw[start:start + leaf.disp_len])]
            return leaf.items[True]
        if i >= end:
            return None
        node = node.children.get(raw[i])
        if node is None:
            return None
        i += 1


def _decode_missing_reps(raw: bytes, items: Sequence[_SigItem]) -> None:
    """Give every item of *items* (the leading instructions of *raw*) a
    representative, decoding in block order only those without one.

    A walked form may lack one for its other displacement-is-zero
    variant, and only that variant decides whether the bytes decode (a
    ``[disp32]`` operand with no base and no index rejects 0).  Decoding
    in order makes the first failure ``BasicBlock.from_bytes``'s.
    """
    offset = 0
    for item in items:
        if item not in _REP_INSTRS:
            _REP_INSTRS.setdefault(item, decode(raw, offset)[0])
        offset += item[0].length


class _FormFacts:
    """The µarch-independent facts of one form, taken once per process
    from a representative instruction."""

    __slots__ = ("length", "opcode_offset", "lcp", "branch", "cond_branch",
                 "macro_fusible", "fuses_first", "dataflow")

    def __init__(self, instr: Instruction):
        self.length = instr.length
        self.opcode_offset = instr.opcode_offset
        self.lcp = instr.has_lcp
        self.branch = instr.is_branch
        self.cond_branch = instr.is_cond_branch
        self.macro_fusible = instr.template.fusible_first is not None
        # Only such an instruction can open a macro-fused pair.
        self.fuses_first = (self.macro_fusible
                            and instr.mem_operand() is None)
        self.dataflow = dataflow(instr)


def _facts(item: _SigItem) -> _FormFacts:
    facts = _FORM_FACTS.get(item[0])
    if facts is None:
        facts = _FORM_FACTS.setdefault(item[0],
                                       _FormFacts(_REP_INSTRS[item]))
    return facts


def _reset_global_tables() -> None:
    """Drop every process-wide table and reinstall the NOPs (tests)."""
    _TRIE_ROOT.children.clear()
    _TRIE_ROOT.leaf = None
    _FORM_INDEX.clear()
    _RAW_LEAVES.clear()
    _REP_INSTRS.clear()
    _FORM_FACTS.clear()
    _install_nops()


# ---------------------------------------------------------------------------
# Per-core rows and compiled block entries
# ---------------------------------------------------------------------------

class _Row:
    """One signature item on one core's µarch: its form facts plus the
    µop database's answer, and its dependence template when the core
    computes Precedence.  *error* is what characterizing it raised."""

    __slots__ = ("rep", "facts", "fused_uops", "issued_uops", "port_sets",
                 "dec_op", "template", "error")

    def __init__(self, item: _SigItem, db: UopsDatabase,
                 precedence: bool):
        self.rep = rep = _REP_INSTRS[item]
        self.facts = facts = _facts(item)
        self.template: Optional[DepTemplate] = None
        self.error: Optional[BaseException] = None
        try:
            info = db.info(rep)
        except Exception as exc:
            # Form-deterministic (e.g. a template the µarch lacks):
            # every entry holding the item replays it.
            self.error = exc
            return
        self.fused_uops = info.fused_uops
        self.issued_uops = info.issued_uops
        self.port_sets = info.port_sets
        self.dec_op: DecOp = (info.requires_complex_decoder,
                              info.n_available_simple_decoders,
                              facts.macro_fusible, facts.branch)
        if precedence:
            self.template = apply_latencies(facts.dataflow, info)


class _Projection(NamedTuple):
    """What a signature's rows project onto the components: the µop
    totals and the inputs of each kernel, in the shapes the object
    model's projections give (``block_layout``, ``decoder_ops``,
    ``port_ops``, ``branch_spans``, ``lower_dependences``)."""

    n_fused: int
    n_issued: int
    num_bytes: int
    layout: Layout
    dec_ops: Tuple[DecOp, ...]
    port_ops: Tuple[PortOp, ...]
    spans: Tuple[Span, ...]
    templates: Tuple[Optional[DepTemplate], ...]


class _BlockEntry:
    """One compiled block signature: its µop totals, its predecoder
    layout (Predec depends on the mode), and the mode-independent bound
    pieces, computed when it is compiled."""

    __slots__ = ("sig", "n_fused", "n_issued", "num_bytes", "layout",
                 "jcc", "dec", "ports", "ports_critical", "precedence",
                 "protos", "error")

    def __init__(self, sig: Signature):
        self.sig = sig
        self.n_fused = 0
        self.n_issued = 0
        self.num_bytes = 0
        self.layout: Layout = ((), (), ())
        self.jcc = False
        self.dec: Optional[Fraction] = None
        self.ports: Optional[PortsResult] = None
        self.ports_critical: List[int] = []
        self.precedence: Optional[PrecedenceResult] = None
        self.protos: Dict[ThroughputMode, Prediction] = {}
        self.error: Optional[BaseException] = None


class ColumnarCore:
    """Template-compiled predictor, bit-for-bit equal to ``Facile``.

    Accepts the same variant knobs as :class:`~repro.core.model.Facile`
    (``simple_predec`` / ``simple_dec`` / ``components`` / ``exclude``),
    so every Facile variant has a compiled twin.  Entries and
    the per-item rows are held per core instance (one core serves one
    µarch + variant), each in an LRU of *max_entries*; the form trie,
    the representative instructions and the form facts are shared
    process-wide.  Entries are keyed by signature alone: every call
    walks the trie, so a repeat of exact bytes finds its entry as any
    payload variant does, and an evicted entry is held by nothing.

    Attributes:
        sig_hits / misses: lookup counters — a ``sig_hit`` is a block
            resolved to an already-compiled signature entry (repeated
            bytes included), a ``miss`` a block that compiled one.
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
        #: The enabled components relevant in each mode, in order.
        self._active = {
            mode: tuple(c for c in (UNROLLED_COMPONENTS
                                    if mode is ThroughputMode.UNROLLED
                                    else LOOP_COMPONENTS)
                        if c in self.enabled)
            for mode in ThroughputMode}
        self.max_entries = max_entries
        self._entries: "OrderedDict[Signature, _BlockEntry]" = OrderedDict()
        self._rows: "OrderedDict[_SigItem, _Row]" = OrderedDict()
        self.sig_hits = 0
        self.misses = 0

    # -- entry resolution ----------------------------------------------

    def _remember(self, store: OrderedDict, key, entry) -> None:
        while len(store) >= self.max_entries:
            store.popitem(last=False)
        store[key] = entry

    def _row(self, item: _SigItem) -> _Row:
        row = self._rows.get(item)
        if row is None:
            row = _Row(item, self.db,
                       Component.PRECEDENCE in self.enabled)
            self._remember(self._rows, item, row)
        else:
            self._rows.move_to_end(item)
        return row

    def _entry_for_sig(self, sig: Signature) -> _BlockEntry:
        entry = self._entries.get(sig)
        if entry is not None:
            self.sig_hits += 1
            self._entries.move_to_end(sig)
            return entry
        self.misses += 1
        entry = _BlockEntry(sig)
        try:
            self._compile(entry)
        except Exception as exc:
            # Signature-deterministic (unsupported template on this
            # µarch, empty block): replay the same failure for every
            # block sharing the signature, exactly as the object path
            # re-raises per call.
            entry.error = exc
        self._remember(self._entries, sig, entry)
        return entry

    def _compile(self, entry: _BlockEntry) -> None:
        """Fill *entry* from its rows: the µop totals, the layout, and
        every enabled mode-independent bound (Dec, Ports, Precedence)
        and the JCC check, each by the object model's kernel."""
        projection = self._project(entry.sig)
        cfg = self.cfg
        enabled = self.enabled
        entry.n_fused = projection.n_fused
        entry.n_issued = projection.n_issued
        entry.num_bytes = projection.num_bytes
        entry.layout = projection.layout
        entry.jcc = cfg.jcc_erratum and spans_affected(projection.spans)
        if Component.DEC in enabled:
            entry.dec = (simple_dec_cycles(projection.dec_ops, cfg)
                         if self.simple_dec
                         else dec_cycles(projection.dec_ops, cfg))
        if Component.PORTS in enabled:
            entry.ports = ports_bound_counts(
                port_multiset(projection.port_ops))
            entry.ports_critical = critical_port_ops(projection.port_ops,
                                                     entry.ports)
        if Component.PRECEDENCE in enabled:
            entry.precedence = compiled_precedence_bound(
                projection.templates)

    def _project(self, sig: Signature) -> _Projection:
        """One pass over the rows of *sig*: macro-fusion pairing (as
        ``analyze_block``), the µop totals (as ``macro_ops``), and each
        kernel's input (see :class:`_Projection`).  Raises the first
        failing row's error, or the empty block's."""
        if not sig:
            BasicBlock(())  # raises the empty-block error
        rows = [self._row(item) for item in sig]
        for row in rows:
            if row.error is not None:
                # Shared by every entry holding the item: raise it
                # without the frames of an earlier raise.
                raise row.error.with_traceback(None)
        cfg = self.cfg
        opcode_bytes: List[int] = []
        last_bytes: List[int] = []
        lcps: List[bool] = []
        dec_ops: List[DecOp] = []
        port_ops: List[PortOp] = []
        spans: List[Span] = []
        n_fused = n_issued = offset = 0
        n = len(rows)
        i = 0
        while i < n:
            row = rows[i]
            facts = row.facts
            opcode_bytes.append(offset + facts.opcode_offset)
            lcps.append(facts.lcp)
            end = offset + facts.length
            last_bytes.append(end - 1)
            if facts.branch:
                spans.append((offset, end - 1))
            if (facts.fuses_first and i + 1 < n
                    and rows[i + 1].facts.cond_branch
                    and can_macro_fuse(row.rep, rows[i + 1].rep, cfg)):
                second = rows[i + 1].facts
                opcode_bytes.append(end + second.opcode_offset)
                lcps.append(second.lcp)
                pair_end = end + second.length
                last_bytes.append(pair_end - 1)
                if second.branch:
                    spans.append((offset, pair_end - 1))
                n_fused += 1
                n_issued += 1
                # ``macro_ops``'s merged record: one simple-decoder µop.
                dec_ops.append((False, cfg.n_decoders - 1, True,
                                second.branch))
                port_ops.append((i, (cfg.ports_for("fused_branch"),)))
                offset = pair_end
                i += 2
                continue
            n_fused += row.fused_uops
            n_issued += row.issued_uops
            dec_ops.append(row.dec_op)
            port_ops.append((i, row.port_sets))
            offset = end
            i += 1
        return _Projection(
            n_fused=n_fused, n_issued=n_issued, num_bytes=offset,
            layout=(tuple(opcode_bytes), tuple(last_bytes), tuple(lcps)),
            dec_ops=tuple(dec_ops), port_ops=tuple(port_ops),
            spans=tuple(spans),
            templates=tuple(row.template for row in rows))

    def _entry_for_block(self, block: BasicBlock) -> _BlockEntry:
        return self._entry_for_sig(
            tuple(_leaf_for_instruction(instr) for instr in block))

    def _entry_for_raw(self, raw: bytes) -> _BlockEntry:
        sig: List[_SigItem] = []
        offset = 0
        end = len(raw)
        while offset < end:
            item = _walk(raw, offset)
            if item is None:
                # An unknown form: decode this instruction only, which
                # also inserts its form for later walks.
                _decode_missing_reps(raw, sig)
                item = _leaf_for_instruction(decode(raw, offset)[0])
            sig.append(item)
            offset += item[0].length
        key = tuple(sig)
        entry = self._entries.get(key)
        if entry is not None:
            self.sig_hits += 1
            self._entries.move_to_end(key)
            return entry
        _decode_missing_reps(raw, key)
        return self._entry_for_sig(key)

    def _predec_bound(self, entry: _BlockEntry,
                      mode: ThroughputMode) -> Fraction:
        if self.simple_predec:
            return simple_predec_cycles(entry.num_bytes)
        return predec_cycles(entry.layout, entry.num_bytes, self.cfg, mode)

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

        active = self._active[mode]

        if Component.PREDEC in active:
            bounds[Component.PREDEC] = self._predec_bound(entry, mode)
        if Component.DEC in active:
            bounds[Component.DEC] = entry.dec
        if Component.DSB in active:
            bounds[Component.DSB] = dsb_cycles(entry.n_fused,
                                               entry.num_bytes, self.cfg)
        if Component.LSD in active:
            bounds[Component.LSD] = lsd_cycles(entry.n_fused, self.cfg)
        if Component.ISSUE in active:
            bounds[Component.ISSUE] = issue_cycles(entry.n_issued, self.cfg)
        if Component.PORTS in active:
            ports_detail = entry.ports
            ports_critical = entry.ports_critical
            bounds[Component.PORTS] = ports_detail.bound
        if Component.PRECEDENCE in active:
            precedence_detail = entry.precedence
            bounds[Component.PRECEDENCE] = precedence_detail.bound

        jcc_affected = mode is ThroughputMode.LOOP and entry.jcc
        lsd_applicable = (mode is ThroughputMode.LOOP
                          and lsd_fits_uops(entry.n_fused, self.cfg))

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
        return self._predict_entry(self._entry_for_block(block), mode)

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
        return self._predict_entry(self._entry_for_raw(raw), mode)

    def predict_raw_counted(self, raw: bytes, mode: ThroughputMode
                            ) -> Tuple[Prediction, int]:
        """:meth:`predict_raw` plus the block's instruction count, read
        off the compiled signature, so a caller holding only bytes can
        serialize the prediction without decoding the block."""
        entry = self._entry_for_raw(raw)
        return self._predict_entry(entry, mode), len(entry.sig)

    def predict_raw_many(self, raws: Iterable[bytes],
                         mode: ThroughputMode) -> List[Prediction]:
        """:meth:`predict_raw` over a batch."""
        return [self.predict_raw(raw, mode) for raw in raws]

    def stats(self) -> Dict[str, int]:
        """Lookup counters plus the compiled-entry and per-item row
        populations (``templates`` counts the rows, which hold the
        dependence templates)."""
        return {
            "entries": len(self._entries),
            "templates": len(self._rows),
            "sig_hits": self.sig_hits,
            "misses": self.misses,
        }

    def clear(self) -> None:
        """Drop this core's compiled entries and rows (counters are
        kept).

        The process-wide form trie, representatives and form facts are
        shared with other cores and stay; tests that need a cold trie
        use ``_reset_global_tables``.
        """
        self._entries.clear()
        self._rows.clear()
