"""Concrete instruction instances (template + operands + encoding)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.isa.operands import ImmOperand, MemOperand, Operand, RegOperand
from repro.isa.registers import FLAGS, Register, register_by_name
from repro.isa.templates import Access, InstrTemplate, SlotKind


@dataclass(eq=False)
class Instruction:
    """A fully-specified instruction instance.

    Instances are compared by identity: two occurrences of the same
    instruction in a block are distinct nodes for dependence analysis.

    Attributes:
        template: the instruction form.
        operands: concrete operands, one per template slot.
        raw: the byte encoding.
        opcode_offset: offset of the first nominal-opcode byte, i.e. the
            first byte that is not a legacy or REX prefix.  This is the
            quantity the predecoder model's ``O(b)`` definition relies on.
    """

    template: InstrTemplate
    operands: Tuple[Operand, ...]
    raw: bytes
    opcode_offset: int

    @classmethod
    def create(cls, template: InstrTemplate,
               operands: Tuple[Operand, ...]) -> "Instruction":
        """Build an instruction and compute its encoding."""
        from repro.isa.encoder import encode_parts
        raw, opcode_offset = encode_parts(template, operands)
        return cls(template, tuple(operands), raw, opcode_offset)

    # ------------------------------------------------------------------
    # Encoding-derived facts consumed by the front-end models.
    # ------------------------------------------------------------------

    @property
    def length(self) -> int:
        """Instruction length in bytes."""
        return len(self.raw)

    @property
    def has_lcp(self) -> bool:
        """True when the encoding has a length-changing prefix."""
        return self.template.has_lcp

    @property
    def mnemonic(self) -> str:
        return self.template.mnemonic

    @property
    def is_branch(self) -> bool:
        return self.template.is_branch

    @property
    def is_cond_branch(self) -> bool:
        return self.template.is_cond_branch

    # ------------------------------------------------------------------
    # Dataflow facts consumed by the dependence model.
    # ------------------------------------------------------------------

    def mem_operand(self) -> Optional[MemOperand]:
        """Return the memory operand, if the instruction has one."""
        for op in self.operands:
            if isinstance(op, MemOperand):
                return op
        return None

    def is_zeroing_idiom(self) -> bool:
        """True for dependency-breaking zero idioms (xor r,r; pxor x,x)."""
        if self.mnemonic in ("xor", "pxor", "sub", "psubd"):
            regs = [op.reg for op in self.operands
                    if isinstance(op, RegOperand)]
            if len(regs) == 2 and regs[0].name == regs[1].name:
                return self.mnemonic in ("xor", "pxor", "psubd")
        if self.mnemonic in ("vpxor", "vsubps"):
            regs = [op.reg for op in self.operands
                    if isinstance(op, RegOperand)]
            if (len(regs) == 3 and regs[1].name == regs[2].name
                    and self.mnemonic == "vpxor"):
                return True
        return False

    def is_reg_move(self) -> bool:
        """True for register-to-register moves (elimination candidates)."""
        return (self.template.uop_archetype in ("mov_rr", "vec_mov")
                and all(isinstance(op, RegOperand) for op in self.operands))

    def regs_read(self) -> List[Register]:
        """Root registers read, including addressing and flags inputs.

        Zero idioms read nothing: the renamer recognises them as
        dependency-breaking.
        """
        if self.is_zeroing_idiom():
            return []
        regs: List[Register] = []
        for slot, op in zip(self.template.slots, self.operands):
            if isinstance(op, RegOperand) and slot.access.reads:
                regs.append(op.reg.root())
            elif isinstance(op, MemOperand):
                regs.extend(r.root() for r in op.address_regs())
        if self.template.reads_flags:
            regs.append(FLAGS)
        regs.extend(self._implicit_reads())
        return regs

    def regs_written(self) -> List[Register]:
        """Root registers written, including flags outputs."""
        regs: List[Register] = []
        for slot, op in zip(self.template.slots, self.operands):
            if isinstance(op, RegOperand) and slot.access.writes:
                regs.append(op.reg.root())
        if self.template.writes_flags:
            regs.append(FLAGS)
        regs.extend(self._implicit_writes())
        return regs

    def _implicit_reads(self) -> List[Register]:
        mnem = self.mnemonic
        if mnem in ("mul", "div"):
            regs = [register_by_name("rax")]
            if mnem == "div":
                regs.append(register_by_name("rdx"))
            return regs
        if mnem in ("cdq", "cqo"):
            return [register_by_name("rax")]
        if self.template.uop_archetype == "shift_cl":
            return [register_by_name("rcx")]
        return []

    def _implicit_writes(self) -> List[Register]:
        mnem = self.mnemonic
        if mnem in ("mul", "div"):
            return [register_by_name("rax"), register_by_name("rdx")]
        if mnem == "cdq":
            return [register_by_name("rdx")]
        if mnem == "cqo":
            return [register_by_name("rdx")]
        return []

    def text(self) -> str:
        """Render as assembly text."""
        if not self.operands:
            return self.mnemonic
        ops = ", ".join(str(op) for op in self.operands)
        return f"{self.mnemonic} {ops}"

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"<Instruction {self.text()!r} len={self.length}>"
