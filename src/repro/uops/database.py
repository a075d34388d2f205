"""The per-µarch instruction database (uops.info substitute).

:class:`UopsDatabase` characterizes instruction instances on one
microarchitecture: fused-domain/issued/dispatched µop counts, port usage,
latencies, and decoder constraints.  The characterization is composed from
the instruction template's *archetype* plus instance-level properties
(addressing mode, zero idioms) and the µarch configuration.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.isa.instruction import Instruction
from repro.isa.operands import MemOperand
from repro.isa.registers import Register
from repro.uarch.config import MicroArchConfig
from repro.uops.info import InstrInfo

#: Default execution latency per archetype (cycles).  Per-µarch deltas live
#: in MicroArchConfig.lat_overrides.
_DEFAULT_LATENCY: Dict[str, int] = {
    "alu": 1, "alu_noflags": 1, "alu_any": 1, "adc": 1, "mov_rr": 1,
    "mov_ri": 1, "cdq": 1, "setcc": 1, "cmov": 1, "shift": 1,
    "shift_cl": 1, "imul": 3, "mul_wide": 3, "div": 36, "bit_scan": 3,
    "lea": 1, "xchg": 2, "bswap": 2, "nop": 0, "branch": 1,
    "cond_branch": 1, "push": 1, "pop": 1, "load": 1, "store": 1,
    "alu_load": 1, "cmp_load": 1, "alu_rmw": 1,
    "fp_add": 4, "fp_mul": 4, "fma": 4, "fp_add_load": 4, "fp_mul_load": 4,
    "fp_div": 11, "fp_div_scalar": 11, "fp_sqrt": 12,
    "vec_int": 1, "vec_int_mul": 10, "vec_logic": 1, "vec_mov": 1,
    "vec_load": 1, "vec_store": 1,
}

#: Archetypes whose load-form latency adds the L1 load-to-use latency on
#: the path from the address registers (and from memory to the result).
_LOADING_ARCHETYPES = frozenset({
    "load", "pop", "vec_load", "alu_load", "cmp_load", "alu_rmw",
    "fp_add_load", "fp_mul_load",
})


class UopsDatabase:
    """Instruction characterizations for one microarchitecture.

    The database is memoized per (template, addressing-shape, idiom) key,
    so repeated queries for the same instruction form are O(1).
    """

    def __init__(self, cfg: MicroArchConfig):
        self.cfg = cfg
        self._cache: Dict[tuple, InstrInfo] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def info(self, instr: Instruction) -> InstrInfo:
        """Return the characterization of *instr* on this µarch."""
        key = self._cache_key(instr)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._characterize(instr)
            self._cache[key] = cached
        return cached

    def latency(self, instr: Instruction) -> int:
        """Execution latency of *instr* (register path)."""
        return self.info(instr).latency

    def dep_latencies(
            self, instr: Instruction,
    ) -> List[Tuple[Register, Register, int]]:
        """Latency edges (src_root, dst_root, cycles) for *instr*.

        This provides the data the paper's dependence graph (§4.9) reads
        from uops.info: for every consumed/produced value pair, the latency
        between consumption and production.  Address-register sources of
        loading instructions additionally pay the L1 load-to-use latency.
        """
        info = self.info(instr)
        base, through_address = edge_latencies(info)
        return [(src, dst, through_address if address else base)
                for src, dst, address in dependence_pairs(instr)]

    def supports(self, instr: Instruction) -> bool:
        """True when the instruction exists on this µarch."""
        return self.cfg.supports(instr.template.feature)

    # ------------------------------------------------------------------
    # Characterization
    # ------------------------------------------------------------------

    def _cache_key(self, instr: Instruction) -> tuple:
        mem = instr.mem_operand()
        return (
            instr.template.name,
            mem.has_index if mem is not None else False,
            self._mem_components(mem),
            instr.is_zeroing_idiom(),
        )

    @staticmethod
    def _mem_components(mem) -> int:
        if mem is None:
            return 0
        return sum((mem.base is not None, mem.index is not None,
                    mem.disp != 0))

    def _base_latency(self, archetype: str) -> int:
        override = self.cfg.lat_overrides.get(archetype)
        if override is not None:
            return override
        return _DEFAULT_LATENCY[archetype]

    def _characterize(self, instr: Instruction) -> InstrInfo:
        if not self.supports(instr):
            raise UnsupportedInstruction(
                f"{instr.template.name} requires {instr.template.feature!r}"
                f" which {self.cfg.abbrev} does not support")
        archetype = instr.template.uop_archetype
        mem = instr.mem_operand()
        indexed = mem.has_index if mem is not None else False

        fused, kinds, eliminated, is_nop, latency = self._compose(
            instr, archetype, mem, indexed)

        micro_fused = len(kinds) > fused
        issued = fused
        if self.cfg.unlaminate_indexed and micro_fused and indexed:
            issued = len(kinds)

        port_sets: Tuple = ()
        if not eliminated and not is_nop:
            port_sets = tuple(self.cfg.ports_for(k) for k in kinds)

        requires_complex = fused > 1
        n_avail = self.cfg.n_decoders - 1
        if requires_complex:
            n_avail = max(0, self.cfg.n_decoders - 1 - max(0, fused - 2))

        load_latency = (self.cfg.load_latency
                        if archetype in _LOADING_ARCHETYPES else 0)

        return InstrInfo(
            template_name=instr.template.name,
            fused_uops=fused,
            issued_uops=issued,
            port_sets=port_sets,
            latency=latency,
            load_latency=load_latency,
            requires_complex_decoder=requires_complex,
            n_available_simple_decoders=n_avail,
            eliminated=eliminated,
            is_nop=is_nop,
        )

    def _compose(self, instr: Instruction, archetype: str,
                 mem, indexed: bool):
        """Return (fused_uops, µop kinds, eliminated, is_nop, latency)."""
        cfg = self.cfg
        latency = self._base_latency(
            archetype if archetype != "lea" else "lea")
        store_agu = "store_agu_indexed" if indexed else "store_agu"
        eliminated = False
        is_nop = False
        fused = 1
        kinds: List[str]

        if archetype in ("alu", "alu_noflags", "alu_any", "mov_ri", "cdq"):
            kinds = ["int_alu"]
        elif archetype == "mov_rr":
            kinds = ["int_alu"]
            eliminated = cfg.gpr_move_elim
        elif archetype == "adc":
            n = 2 if self._base_latency("adc") > 1 else 1
            fused, kinds = n, ["flags_alu"] * n
        elif archetype == "cmov":
            n = 2 if self._base_latency("cmov") > 1 else 1
            fused, kinds = n, ["flags_alu"] * n
        elif archetype == "setcc":
            kinds = ["flags_alu"]
        elif archetype == "shift":
            kinds = ["int_shift"]
        elif archetype == "shift_cl":
            fused, kinds = 2, ["int_shift", "flags_alu"]
            latency = 1
        elif archetype == "imul":
            kinds = ["int_mul"]
        elif archetype == "mul_wide":
            fused, kinds = 2, ["int_mul", "int_mul_aux"]
        elif archetype == "div":
            fused, kinds = 4, ["div"] * 4
        elif archetype == "bit_scan":
            kinds = ["bit_scan"]
        elif archetype == "lea":
            slow = self._mem_components(mem) >= 3
            kinds = ["lea_slow" if slow else "lea_simple"]
            latency = 3 if slow else 1
        elif archetype in ("load", "pop"):
            kinds = ["load"]
            latency = 0  # the load path is carried by load_latency
        elif archetype in ("store", "push"):
            kinds = [store_agu, "store_data"]
        elif archetype in ("alu_load", "cmp_load"):
            kinds = ["load", "int_alu"]
            latency = 1
        elif archetype == "alu_rmw":
            fused = 2
            kinds = ["load", "int_alu", store_agu, "store_data"]
            latency = 1
        elif archetype == "xchg":
            fused, kinds = 3, ["int_alu"] * 3
        elif archetype == "bswap":
            fused, kinds = 2, ["int_alu", "int_alu"]
        elif archetype == "nop":
            kinds = []
            is_nop = True
        elif archetype in ("branch", "cond_branch"):
            kinds = ["branch"]
        elif archetype == "vec_mov":
            kinds = ["vec_mov"]
            eliminated = cfg.vec_move_elim
        elif archetype == "vec_load":
            kinds = ["load"]
            latency = 0
        elif archetype == "vec_store":
            kinds = [store_agu, "store_data"]
        elif archetype in ("vec_int", "vec_logic"):
            kinds = [archetype]
        elif archetype == "vec_int_mul":
            kinds = ["vec_int_mul"]
        elif archetype in ("fp_add", "fp_mul", "fma"):
            kinds = {"fp_add": ["vec_fp_add"], "fp_mul": ["vec_fp_mul"],
                     "fma": ["fma"]}[archetype]
        elif archetype in ("fp_add_load", "fp_mul_load"):
            kinds = ["load",
                     "vec_fp_add" if archetype == "fp_add_load"
                     else "vec_fp_mul"]
        elif archetype in ("fp_div", "fp_div_scalar"):
            kinds = ["vec_fp_div"]
        elif archetype == "fp_sqrt":
            kinds = ["fp_sqrt"]
        else:
            raise KeyError(f"unknown archetype {archetype!r}")

        if instr.is_zeroing_idiom():
            eliminated = True
            latency = 0

        return fused, kinds, eliminated, is_nop, latency


def dependence_pairs(instr: Instruction,
                     written: Optional[List[Register]] = None,
                     ) -> List[Tuple[Register, Register, bool]]:
    """Every (src_root, dst_root, address source) pair of *instr*, in
    :meth:`UopsDatabase.dep_latencies` order: the µarch-independent
    dataflow, to which :func:`edge_latencies` gives cycles.  *written*
    is ``instr.regs_written()``, when the caller has it already."""
    mem = instr.mem_operand()
    addr_roots = set()
    if mem is not None:
        addr_roots = {r.root().name for r in mem.address_regs()}
    if written is None:
        written = instr.regs_written()
    return [(src, dst, src.name in addr_roots)
            for src in instr.regs_read() for dst in written]


def edge_latencies(info: InstrInfo) -> Tuple[int, int]:
    """The cycles of a dependence edge of an instruction characterized
    by *info*: ``(from a register source, from an address source)``."""
    base = 0 if info.eliminated else info.latency
    return base, base + info.load_latency


class UnsupportedInstruction(Exception):
    """Raised when an instruction is queried on a µarch lacking it."""
