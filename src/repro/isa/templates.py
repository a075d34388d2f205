"""Instruction templates for the x86-64 subset.

A template describes one *form* of an instruction (mnemonic + operand
signature + encoding).  Templates are the unit the uops database is keyed
by, mirroring how uops.info keys its measurements by instruction variant.

The template table is built programmatically at import time; use
:func:`all_templates` / :func:`template_by_name` to access it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class SlotKind(enum.Enum):
    """Kind of an operand slot."""

    REG = "reg"
    MEM = "mem"
    IMM = "imm"


class Access(enum.Enum):
    """How an instruction accesses an operand slot."""

    R = "r"
    W = "w"
    RW = "rw"

    @property
    def reads(self) -> bool:
        return self in _READING

    @property
    def writes(self) -> bool:
        return self in _WRITING


# Module constants: looking members up on the enum class per call is
# several times slower, and dataflow queries ask once per operand.
_READING = (Access.R, Access.RW)
_WRITING = (Access.W, Access.RW)


@dataclass(frozen=True)
class OperandSlot:
    """One operand slot of a template.

    Attributes:
        kind: register, memory, or immediate.
        width: operand width in bits.
        access: read/write behaviour.
        regclass: "gpr" or "vec" for register/memory slots.
    """

    kind: SlotKind
    width: int
    access: Access
    regclass: str = "gpr"


@dataclass(frozen=True)
class VexSpec:
    """VEX prefix parameters.

    Attributes:
        l: vector length (128 or 256).
        pp: mandatory-prefix field (0: none, 1: 66, 2: F3, 3: F2).
        mmm: opcode-map field (1: 0F, 2: 0F38, 3: 0F3A).
        w: VEX.W bit, or None when the instruction ignores W (WIG).
        has_vvvv: True for three-operand (NDS) forms.
    """

    l: int
    pp: int
    mmm: int
    w: Optional[int] = None
    has_vvvv: bool = True


@dataclass(frozen=True)
class Encoding:
    """Encoding recipe for a template.

    Attributes:
        opcode: the opcode byte (after any escape bytes).
        esc: escape bytes, e.g. ``(0x0F,)``; empty for one-byte opcodes.
        simd_prefix: mandatory SIMD prefix (0x66/0xF2/0xF3) or None.
        legacy_66: emit the 0x66 operand-size prefix (16-bit forms).
        rex_w: set REX.W (64-bit operand size).
        modrm: None (no ModRM), "r" (reg+rm form), or an opcode-extension
            digit "0".."7".
        modrm_rm_slot: index of the operand slot encoded in ModRM.rm.
        modrm_reg_slot: index of the slot encoded in ModRM.reg (reg forms).
        reg_in_opcode: low 3 opcode bits carry a register index.
        imm_width: immediate width in bits (0 when there is none).
        vex: VEX parameters for AVX forms, or None.
        fixed_bytes: a fully fixed byte sequence (multi-byte NOPs).
    """

    opcode: int
    esc: Tuple[int, ...] = ()
    simd_prefix: Optional[int] = None
    legacy_66: bool = False
    rex_w: bool = False
    modrm: Optional[str] = None
    modrm_rm_slot: int = 0
    modrm_reg_slot: int = 1
    reg_in_opcode: bool = False
    imm_width: int = 0
    vex: Optional[VexSpec] = None
    fixed_bytes: Optional[bytes] = None


@dataclass(frozen=True)
class InstrTemplate:
    """One instruction form.

    Attributes:
        name: unique identifier, e.g. ``"ADD_R64_R64"``.
        mnemonic: assembly mnemonic, e.g. ``"add"``.
        slots: operand slots in assembly order (destination first).
        encoding: byte-encoding recipe.
        uop_archetype: key into the uops database's archetype tables.
        writes_flags / reads_flags: architectural flags behaviour.
        is_branch / is_cond_branch: control-flow classification.
        fusible_first: macro-fusion class when this instruction can be the
            first of a fused pair ("test", "cmp", or "incdec").
        feature: ISA extension required ("base", "avx", "avx2", "fma").
        cc: condition-code nibble for Jcc/SETcc/CMOVcc forms.
    """

    name: str
    mnemonic: str
    slots: Tuple[OperandSlot, ...]
    encoding: Encoding
    uop_archetype: str
    writes_flags: bool = False
    reads_flags: bool = False
    is_branch: bool = False
    is_cond_branch: bool = False
    fusible_first: Optional[str] = None
    feature: str = "base"
    cc: Optional[int] = None

    @property
    def has_lcp(self) -> bool:
        """True when the encoding carries a length-changing prefix.

        A 0x66 operand-size prefix changes the immediate length (imm32 →
        imm16), which forces the predecoder's slow length-decoding path.
        """
        return self.encoding.legacy_66 and self.encoding.imm_width == 16

    @property
    def has_mem_operand(self) -> bool:
        return any(s.kind is SlotKind.MEM for s in self.slots)

    @property
    def loads(self) -> bool:
        return any(s.kind is SlotKind.MEM and s.access.reads
                   for s in self.slots)

    @property
    def stores(self) -> bool:
        return any(s.kind is SlotKind.MEM and s.access.writes
                   for s in self.slots)


_TEMPLATES: Dict[str, InstrTemplate] = {}


def _reg(width: int, access: Access, regclass: str = "gpr") -> OperandSlot:
    return OperandSlot(SlotKind.REG, width, access, regclass)


def _mem(width: int, access: Access, regclass: str = "gpr") -> OperandSlot:
    return OperandSlot(SlotKind.MEM, width, access, regclass)


def _imm(width: int) -> OperandSlot:
    return OperandSlot(SlotKind.IMM, width, Access.R)


def _register(t: InstrTemplate) -> None:
    if t.name in _TEMPLATES:
        raise ValueError(f"duplicate template {t.name}")
    _TEMPLATES[t.name] = t


# ---------------------------------------------------------------------------
# Integer ALU group: add/or/adc/sbb/and/sub/xor/cmp share an encoding scheme.
# ---------------------------------------------------------------------------

_ALU_GROUP = {
    # mnemonic: (opcode_mr, opcode_rm, /digit, archetype, fusible_first)
    "add": (0x01, 0x03, 0, "alu", "cmp"),
    "or": (0x09, 0x0B, 1, "alu", None),
    "adc": (0x11, 0x13, 2, "adc", None),
    "sbb": (0x19, 0x1B, 3, "adc", None),
    "and": (0x21, 0x23, 4, "alu", "test"),
    "sub": (0x29, 0x2B, 5, "alu", "cmp"),
    "xor": (0x31, 0x33, 6, "alu", None),
    "cmp": (0x39, 0x3B, 7, "alu", "cmp"),
}


def _build_alu_group() -> None:
    for mnem, (op_mr, op_rm, digit, arch, fuse) in _ALU_GROUP.items():
        reads_flags = arch == "adc"
        is_cmp = mnem == "cmp"
        dest_access = Access.R if is_cmp else Access.RW
        for width, rex_w in ((64, True), (32, False)):
            w = f"R{width}"
            _register(InstrTemplate(
                name=f"{mnem.upper()}_{w}_{w}",
                mnemonic=mnem,
                slots=(_reg(width, dest_access), _reg(width, Access.R)),
                encoding=Encoding(op_mr, rex_w=rex_w, modrm="r",
                                  modrm_rm_slot=0, modrm_reg_slot=1),
                uop_archetype=arch,
                writes_flags=True, reads_flags=reads_flags,
                fusible_first=fuse,
            ))
            _register(InstrTemplate(
                name=f"{mnem.upper()}_{w}_IMM8",
                mnemonic=mnem,
                slots=(_reg(width, dest_access), _imm(8)),
                encoding=Encoding(0x83, rex_w=rex_w, modrm=str(digit),
                                  modrm_rm_slot=0, imm_width=8),
                uop_archetype=arch,
                writes_flags=True, reads_flags=reads_flags,
                fusible_first=fuse,
            ))
            _register(InstrTemplate(
                name=f"{mnem.upper()}_{w}_IMM32",
                mnemonic=mnem,
                slots=(_reg(width, dest_access), _imm(32)),
                encoding=Encoding(0x81, rex_w=rex_w, modrm=str(digit),
                                  modrm_rm_slot=0, imm_width=32),
                uop_archetype=arch,
                writes_flags=True, reads_flags=reads_flags,
                fusible_first=fuse,
            ))
            _register(InstrTemplate(
                name=f"{mnem.upper()}_{w}_M{width}",
                mnemonic=mnem,
                slots=(_reg(width, dest_access), _mem(width, Access.R)),
                encoding=Encoding(op_rm, rex_w=rex_w, modrm="r",
                                  modrm_rm_slot=1, modrm_reg_slot=0),
                uop_archetype="cmp_load" if is_cmp else "alu_load",
                writes_flags=True, reads_flags=reads_flags,
                fusible_first=fuse,
            ))
            if not is_cmp:
                _register(InstrTemplate(
                    name=f"{mnem.upper()}_M{width}_{w}",
                    mnemonic=mnem,
                    slots=(_mem(width, Access.RW), _reg(width, Access.R)),
                    encoding=Encoding(op_mr, rex_w=rex_w, modrm="r",
                                      modrm_rm_slot=0, modrm_reg_slot=1),
                    uop_archetype="alu_rmw",
                    writes_flags=True, reads_flags=reads_flags,
                ))
            else:
                _register(InstrTemplate(
                    name=f"CMP_M{width}_{w}",
                    mnemonic="cmp",
                    slots=(_mem(width, Access.R), _reg(width, Access.R)),
                    encoding=Encoding(op_mr, rex_w=rex_w, modrm="r",
                                      modrm_rm_slot=0, modrm_reg_slot=1),
                    uop_archetype="cmp_load",
                    writes_flags=True,
                    fusible_first=fuse,
                ))
        # 16-bit immediate form: carries a length-changing prefix.
        _register(InstrTemplate(
            name=f"{mnem.upper()}_R16_IMM16",
            mnemonic=mnem,
            slots=(_reg(16, dest_access), _imm(16)),
            encoding=Encoding(0x81, legacy_66=True, modrm=str(digit),
                              modrm_rm_slot=0, imm_width=16),
            uop_archetype=arch,
            writes_flags=True, reads_flags=reads_flags,
            fusible_first=fuse,
        ))


# ---------------------------------------------------------------------------
# TEST, MOV, MOVZX/MOVSXD, LEA
# ---------------------------------------------------------------------------

def _build_test_mov() -> None:
    for width, rex_w in ((64, True), (32, False)):
        w = f"R{width}"
        _register(InstrTemplate(
            name=f"TEST_{w}_{w}",
            mnemonic="test",
            slots=(_reg(width, Access.R), _reg(width, Access.R)),
            encoding=Encoding(0x85, rex_w=rex_w, modrm="r",
                              modrm_rm_slot=0, modrm_reg_slot=1),
            uop_archetype="alu",
            writes_flags=True,
            fusible_first="test",
        ))
        _register(InstrTemplate(
            name=f"MOV_{w}_{w}",
            mnemonic="mov",
            slots=(_reg(width, Access.W), _reg(width, Access.R)),
            encoding=Encoding(0x89, rex_w=rex_w, modrm="r",
                              modrm_rm_slot=0, modrm_reg_slot=1),
            uop_archetype="mov_rr",
        ))
        _register(InstrTemplate(
            name=f"MOV_{w}_M{width}",
            mnemonic="mov",
            slots=(_reg(width, Access.W), _mem(width, Access.R)),
            encoding=Encoding(0x8B, rex_w=rex_w, modrm="r",
                              modrm_rm_slot=1, modrm_reg_slot=0),
            uop_archetype="load",
        ))
        _register(InstrTemplate(
            name=f"MOV_M{width}_{w}",
            mnemonic="mov",
            slots=(_mem(width, Access.W), _reg(width, Access.R)),
            encoding=Encoding(0x89, rex_w=rex_w, modrm="r",
                              modrm_rm_slot=0, modrm_reg_slot=1),
            uop_archetype="store",
        ))
    _register(InstrTemplate(
        name="MOV_R32_IMM32",
        mnemonic="mov",
        slots=(_reg(32, Access.W), _imm(32)),
        encoding=Encoding(0xB8, reg_in_opcode=True, imm_width=32),
        uop_archetype="mov_ri",
    ))
    _register(InstrTemplate(
        name="MOV_R64_IMM32",
        mnemonic="mov",
        slots=(_reg(64, Access.W), _imm(32)),
        encoding=Encoding(0xC7, rex_w=True, modrm="0", modrm_rm_slot=0,
                          imm_width=32),
        uop_archetype="mov_ri",
    ))
    _register(InstrTemplate(
        name="MOV_R64_IMM64",
        mnemonic="mov",
        slots=(_reg(64, Access.W), _imm(64)),
        encoding=Encoding(0xB8, rex_w=True, reg_in_opcode=True,
                          imm_width=64),
        uop_archetype="mov_ri",
    ))
    _register(InstrTemplate(
        name="MOV_R16_IMM16",
        mnemonic="mov",
        slots=(_reg(16, Access.W), _imm(16)),
        encoding=Encoding(0xB8, legacy_66=True, reg_in_opcode=True,
                          imm_width=16),
        uop_archetype="mov_ri",
    ))
    _register(InstrTemplate(
        name="MOVZX_R32_R8",
        mnemonic="movzx",
        slots=(_reg(32, Access.W), _reg(8, Access.R)),
        encoding=Encoding(0xB6, esc=(0x0F,), modrm="r",
                          modrm_rm_slot=1, modrm_reg_slot=0),
        uop_archetype="alu_any",
    ))
    _register(InstrTemplate(
        name="MOVZX_R32_R16",
        mnemonic="movzx",
        slots=(_reg(32, Access.W), _reg(16, Access.R)),
        encoding=Encoding(0xB7, esc=(0x0F,), modrm="r",
                          modrm_rm_slot=1, modrm_reg_slot=0),
        uop_archetype="alu_any",
    ))
    _register(InstrTemplate(
        name="MOVSXD_R64_R32",
        mnemonic="movsxd",
        slots=(_reg(64, Access.W), _reg(32, Access.R)),
        encoding=Encoding(0x63, rex_w=True, modrm="r",
                          modrm_rm_slot=1, modrm_reg_slot=0),
        uop_archetype="alu_any",
    ))
    _register(InstrTemplate(
        name="LEA_R64_M",
        mnemonic="lea",
        slots=(_reg(64, Access.W), _mem(64, Access.R)),
        encoding=Encoding(0x8D, rex_w=True, modrm="r",
                          modrm_rm_slot=1, modrm_reg_slot=0),
        uop_archetype="lea",
    ))


# ---------------------------------------------------------------------------
# Unary group, shifts, multiply/divide, misc scalar
# ---------------------------------------------------------------------------

def _build_unary_shift_muldiv() -> None:
    for mnem, digit, arch, fuse in (
            ("inc", 0, "alu", "incdec"), ("dec", 1, "alu", "incdec"),
            ("not", 2, "alu_noflags", None), ("neg", 3, "alu", None)):
        _register(InstrTemplate(
            name=f"{mnem.upper()}_R64",
            mnemonic=mnem,
            slots=(_reg(64, Access.RW),),
            encoding=Encoding(0xFF if mnem in ("inc", "dec") else 0xF7,
                              rex_w=True, modrm=str(digit), modrm_rm_slot=0),
            uop_archetype=arch,
            writes_flags=mnem != "not",
            fusible_first=fuse,
        ))
    for mnem, digit in (("shl", 4), ("shr", 5), ("sar", 7)):
        _register(InstrTemplate(
            name=f"{mnem.upper()}_R64_IMM8",
            mnemonic=mnem,
            slots=(_reg(64, Access.RW), _imm(8)),
            encoding=Encoding(0xC1, rex_w=True, modrm=str(digit),
                              modrm_rm_slot=0, imm_width=8),
            uop_archetype="shift",
            writes_flags=True,
        ))
        _register(InstrTemplate(
            name=f"{mnem.upper()}_R64_CL",
            mnemonic=mnem,
            slots=(_reg(64, Access.RW),),
            encoding=Encoding(0xD3, rex_w=True, modrm=str(digit),
                              modrm_rm_slot=0),
            uop_archetype="shift_cl",
            writes_flags=True,
        ))
    _register(InstrTemplate(
        name="IMUL_R64_R64",
        mnemonic="imul",
        slots=(_reg(64, Access.RW), _reg(64, Access.R)),
        encoding=Encoding(0xAF, esc=(0x0F,), rex_w=True, modrm="r",
                          modrm_rm_slot=1, modrm_reg_slot=0),
        uop_archetype="imul",
        writes_flags=True,
    ))
    _register(InstrTemplate(
        name="MUL_R64",
        mnemonic="mul",
        slots=(_reg(64, Access.R),),
        encoding=Encoding(0xF7, rex_w=True, modrm="4", modrm_rm_slot=0),
        uop_archetype="mul_wide",
        writes_flags=True,
    ))
    _register(InstrTemplate(
        name="DIV_R64",
        mnemonic="div",
        slots=(_reg(64, Access.R),),
        encoding=Encoding(0xF7, rex_w=True, modrm="6", modrm_rm_slot=0),
        uop_archetype="div",
        writes_flags=True,
    ))
    _register(InstrTemplate(
        name="XCHG_R64_R64",
        mnemonic="xchg",
        slots=(_reg(64, Access.RW), _reg(64, Access.RW)),
        encoding=Encoding(0x87, rex_w=True, modrm="r",
                          modrm_rm_slot=0, modrm_reg_slot=1),
        uop_archetype="xchg",
    ))
    _register(InstrTemplate(
        name="PUSH_R64",
        mnemonic="push",
        slots=(_reg(64, Access.R),),
        encoding=Encoding(0x50, reg_in_opcode=True),
        uop_archetype="push",
    ))
    _register(InstrTemplate(
        name="POP_R64",
        mnemonic="pop",
        slots=(_reg(64, Access.W),),
        encoding=Encoding(0x58, reg_in_opcode=True),
        uop_archetype="pop",
    ))
    _register(InstrTemplate(
        name="CDQ", mnemonic="cdq", slots=(),
        encoding=Encoding(0x99),
        uop_archetype="cdq",
    ))
    _register(InstrTemplate(
        name="CQO", mnemonic="cqo", slots=(),
        encoding=Encoding(0x99, rex_w=True),
        uop_archetype="cdq",
    ))
    _register(InstrTemplate(
        name="BSWAP_R64",
        mnemonic="bswap",
        slots=(_reg(64, Access.RW),),
        encoding=Encoding(0xC8, esc=(0x0F,), rex_w=True,
                          reg_in_opcode=True),
        uop_archetype="bswap",
    ))
    for mnem, opcode, prefix in (
            ("popcnt", 0xB8, 0xF3), ("lzcnt", 0xBD, 0xF3),
            ("tzcnt", 0xBC, 0xF3), ("bsf", 0xBC, None), ("bsr", 0xBD, None)):
        _register(InstrTemplate(
            name=f"{mnem.upper()}_R64_R64",
            mnemonic=mnem,
            slots=(_reg(64, Access.W), _reg(64, Access.R)),
            encoding=Encoding(opcode, esc=(0x0F,), simd_prefix=prefix,
                              rex_w=True, modrm="r",
                              modrm_rm_slot=1, modrm_reg_slot=0),
            uop_archetype="bit_scan",
            writes_flags=True,
        ))


# ---------------------------------------------------------------------------
# Condition-code families: Jcc, CMOVcc, SETcc, and unconditional JMP/NOP.
# ---------------------------------------------------------------------------

#: Condition-code nibbles for the conditions in the subset.
CONDITION_CODES = {
    "o": 0x0, "no": 0x1, "b": 0x2, "ae": 0x3, "e": 0x4, "ne": 0x5,
    "be": 0x6, "a": 0x7, "s": 0x8, "ns": 0x9, "l": 0xC, "ge": 0xD,
    "le": 0xE, "g": 0xF,
}

#: Conditions that macro-fuse with cmp/add/sub (flag-arithmetic family).
CMP_FUSIBLE_CCS = frozenset(
    CONDITION_CODES[c] for c in ("b", "ae", "e", "ne", "be", "a",
                                 "l", "ge", "le", "g"))
#: Conditions that macro-fuse with inc/dec (no carry-flag conditions).
INCDEC_FUSIBLE_CCS = frozenset(
    CONDITION_CODES[c] for c in ("e", "ne", "l", "ge", "le", "g"))


def _build_cc_families() -> None:
    for cond, cc in CONDITION_CODES.items():
        _register(InstrTemplate(
            name=f"J{cond.upper()}_REL8",
            mnemonic=f"j{cond}",
            slots=(_imm(8),),
            encoding=Encoding(0x70 + cc, imm_width=8),
            uop_archetype="cond_branch",
            reads_flags=True, is_branch=True, is_cond_branch=True, cc=cc,
        ))
        _register(InstrTemplate(
            name=f"J{cond.upper()}_REL32",
            mnemonic=f"j{cond}",
            slots=(_imm(32),),
            encoding=Encoding(0x80 + cc, esc=(0x0F,), imm_width=32),
            uop_archetype="cond_branch",
            reads_flags=True, is_branch=True, is_cond_branch=True, cc=cc,
        ))
    for cond in ("e", "ne", "l", "ge", "b", "ae", "s", "ns"):
        cc = CONDITION_CODES[cond]
        _register(InstrTemplate(
            name=f"CMOV{cond.upper()}_R64_R64",
            mnemonic=f"cmov{cond}",
            slots=(_reg(64, Access.RW), _reg(64, Access.R)),
            encoding=Encoding(0x40 + cc, esc=(0x0F,), rex_w=True, modrm="r",
                              modrm_rm_slot=1, modrm_reg_slot=0),
            uop_archetype="cmov",
            reads_flags=True, cc=cc,
        ))
        _register(InstrTemplate(
            name=f"SET{cond.upper()}_R8",
            mnemonic=f"set{cond}",
            slots=(_reg(8, Access.W),),
            encoding=Encoding(0x90 + cc, esc=(0x0F,), modrm="0",
                              modrm_rm_slot=0),
            uop_archetype="setcc",
            reads_flags=True, cc=cc,
        ))
    _register(InstrTemplate(
        name="JMP_REL8", mnemonic="jmp", slots=(_imm(8),),
        encoding=Encoding(0xEB, imm_width=8),
        uop_archetype="branch", is_branch=True,
    ))
    _register(InstrTemplate(
        name="JMP_REL32", mnemonic="jmp", slots=(_imm(32),),
        encoding=Encoding(0xE9, imm_width=32),
        uop_archetype="branch", is_branch=True,
    ))


#: Canonical multi-byte NOP encodings (Intel SDM recommended forms, padded
#: with 0x66 prefixes beyond 9 bytes).
_NOP_BYTES = {
    1: b"\x90",
    2: b"\x66\x90",
    3: b"\x0f\x1f\x00",
    4: b"\x0f\x1f\x40\x00",
    5: b"\x0f\x1f\x44\x00\x00",
    6: b"\x66\x0f\x1f\x44\x00\x00",
    7: b"\x0f\x1f\x80\x00\x00\x00\x00",
    8: b"\x0f\x1f\x84\x00\x00\x00\x00\x00",
    9: b"\x66\x0f\x1f\x84\x00\x00\x00\x00\x00",
    10: b"\x66\x66\x0f\x1f\x84\x00\x00\x00\x00\x00",
    11: b"\x66\x66\x66\x0f\x1f\x84\x00\x00\x00\x00\x00",
    12: b"\x66\x66\x66\x66\x0f\x1f\x84\x00\x00\x00\x00\x00",
    13: b"\x66\x66\x66\x66\x66\x0f\x1f\x84\x00\x00\x00\x00\x00",
    14: b"\x66\x66\x66\x66\x66\x66\x0f\x1f\x84\x00\x00\x00\x00\x00",
    15: b"\x66\x66\x66\x66\x66\x66\x66\x0f\x1f\x84\x00\x00\x00\x00\x00",
}


def _build_nops() -> None:
    for length, raw in _NOP_BYTES.items():
        _register(InstrTemplate(
            name=f"NOP{length}",
            mnemonic="nop" if length == 1 else f"nop{length}",
            slots=(),
            encoding=Encoding(0x90, fixed_bytes=raw),
            uop_archetype="nop",
        ))


def nop_bytes(length: int) -> bytes:
    """Return the canonical NOP encoding of the given byte *length*."""
    return _NOP_BYTES[length]


# ---------------------------------------------------------------------------
# SSE scalar/packed floating point and integer vector instructions.
# ---------------------------------------------------------------------------

_SSE_ARITH = {
    # mnemonic: (opcode, simd_prefix, archetype)
    "addps": (0x58, None, "fp_add"),
    "addpd": (0x58, 0x66, "fp_add"),
    "addss": (0x58, 0xF3, "fp_add"),
    "addsd": (0x58, 0xF2, "fp_add"),
    "subps": (0x5C, None, "fp_add"),
    "mulps": (0x59, None, "fp_mul"),
    "mulpd": (0x59, 0x66, "fp_mul"),
    "mulss": (0x59, 0xF3, "fp_mul"),
    "mulsd": (0x59, 0xF2, "fp_mul"),
    "divps": (0x5E, None, "fp_div"),
    "divss": (0x5E, 0xF3, "fp_div_scalar"),
    "sqrtps": (0x51, None, "fp_sqrt"),
    "minps": (0x5D, None, "fp_add"),
    "maxps": (0x5F, None, "fp_add"),
}

_SSE_INT = {
    "paddd": (0xFE, "vec_int"),
    "psubd": (0xFA, "vec_int"),
    "paddq": (0xD4, "vec_int"),
    "pand": (0xDB, "vec_logic"),
    "por": (0xEB, "vec_logic"),
    "pxor": (0xEF, "vec_logic"),
    "pmulld": (None, "vec_int_mul"),  # 66 0F 38 40
}


def _build_sse() -> None:
    for mnem, (opcode, prefix, arch) in _SSE_ARITH.items():
        _register(InstrTemplate(
            name=f"{mnem.upper()}_X_X",
            mnemonic=mnem,
            slots=(_reg(128, Access.RW, "vec"), _reg(128, Access.R, "vec")),
            encoding=Encoding(opcode, esc=(0x0F,), simd_prefix=prefix,
                              modrm="r", modrm_rm_slot=1, modrm_reg_slot=0),
            uop_archetype=arch,
        ))
    for mnem, (opcode, arch) in _SSE_INT.items():
        if opcode is None:
            continue
        _register(InstrTemplate(
            name=f"{mnem.upper()}_X_X",
            mnemonic=mnem,
            slots=(_reg(128, Access.RW, "vec"), _reg(128, Access.R, "vec")),
            encoding=Encoding(opcode, esc=(0x0F,), simd_prefix=0x66,
                              modrm="r", modrm_rm_slot=1, modrm_reg_slot=0),
            uop_archetype=arch,
        ))
    _register(InstrTemplate(
        name="PMULLD_X_X",
        mnemonic="pmulld",
        slots=(_reg(128, Access.RW, "vec"), _reg(128, Access.R, "vec")),
        encoding=Encoding(0x40, esc=(0x0F, 0x38), simd_prefix=0x66,
                          modrm="r", modrm_rm_slot=1, modrm_reg_slot=0),
        uop_archetype="vec_int_mul",
    ))
    _register(InstrTemplate(
        name="MOVAPS_X_X",
        mnemonic="movaps",
        slots=(_reg(128, Access.W, "vec"), _reg(128, Access.R, "vec")),
        encoding=Encoding(0x28, esc=(0x0F,), modrm="r",
                          modrm_rm_slot=1, modrm_reg_slot=0),
        uop_archetype="vec_mov",
    ))
    _register(InstrTemplate(
        name="MOVAPS_X_M128",
        mnemonic="movaps",
        slots=(_reg(128, Access.W, "vec"), _mem(128, Access.R, "vec")),
        encoding=Encoding(0x28, esc=(0x0F,), modrm="r",
                          modrm_rm_slot=1, modrm_reg_slot=0),
        uop_archetype="vec_load",
    ))
    _register(InstrTemplate(
        name="MOVAPS_M128_X",
        mnemonic="movaps",
        slots=(_mem(128, Access.W, "vec"), _reg(128, Access.R, "vec")),
        encoding=Encoding(0x29, esc=(0x0F,), modrm="r",
                          modrm_rm_slot=0, modrm_reg_slot=1),
        uop_archetype="vec_store",
    ))
    _register(InstrTemplate(
        name="ADDPS_X_M128",
        mnemonic="addps",
        slots=(_reg(128, Access.RW, "vec"), _mem(128, Access.R, "vec")),
        encoding=Encoding(0x58, esc=(0x0F,), modrm="r",
                          modrm_rm_slot=1, modrm_reg_slot=0),
        uop_archetype="fp_add_load",
    ))
    _register(InstrTemplate(
        name="MULPS_X_M128",
        mnemonic="mulps",
        slots=(_reg(128, Access.RW, "vec"), _mem(128, Access.R, "vec")),
        encoding=Encoding(0x59, esc=(0x0F,), modrm="r",
                          modrm_rm_slot=1, modrm_reg_slot=0),
        uop_archetype="fp_mul_load",
    ))


# ---------------------------------------------------------------------------
# AVX (VEX-encoded) instructions.
# ---------------------------------------------------------------------------

def _vex_arith(name: str, mnemonic: str, opcode: int, l: int, pp: int,
               arch: str, feature: str, mmm: int = 1,
               w: Optional[int] = None,
               dest_access: Access = Access.W) -> None:
    width = 256 if l == 256 else 128
    reg = "Y" if l == 256 else "X"
    _register(InstrTemplate(
        name=f"{name}_{reg}_{reg}_{reg}",
        mnemonic=mnemonic,
        slots=(_reg(width, dest_access, "vec"), _reg(width, Access.R, "vec"),
               _reg(width, Access.R, "vec")),
        encoding=Encoding(opcode, modrm="r", modrm_rm_slot=2,
                          modrm_reg_slot=0,
                          vex=VexSpec(l=l, pp=pp, mmm=mmm, w=w,
                                      has_vvvv=True)),
        uop_archetype=arch,
        feature=feature,
    ))


def _build_avx() -> None:
    for l in (128, 256):
        _vex_arith("VADDPS", "vaddps", 0x58, l, 0, "fp_add", "avx")
        _vex_arith("VMULPS", "vmulps", 0x59, l, 0, "fp_mul", "avx")
        _vex_arith("VSUBPS", "vsubps", 0x5C, l, 0, "fp_add", "avx")
        _vex_arith("VDIVPS", "vdivps", 0x5E, l, 0, "fp_div", "avx")
        _vex_arith("VPADDD", "vpaddd", 0xFE, l, 1, "vec_int",
                   "avx2" if l == 256 else "avx")
        _vex_arith("VPXOR", "vpxor", 0xEF, l, 1, "vec_logic",
                   "avx2" if l == 256 else "avx")
        # FMA: dest is read-modify-write (accumulator).
        _vex_arith("VFMADD231PS", "vfmadd231ps", 0xB8, l, 1, "fma", "fma",
                   mmm=2, w=0, dest_access=Access.RW)
    reg_specs = ((128, "X"), (256, "Y"))
    for width, reg in reg_specs:
        l = width
        _register(InstrTemplate(
            name=f"VMOVAPS_{reg}_{reg}",
            mnemonic="vmovaps",
            slots=(_reg(width, Access.W, "vec"), _reg(width, Access.R, "vec")),
            encoding=Encoding(0x28, modrm="r", modrm_rm_slot=1,
                              modrm_reg_slot=0,
                              vex=VexSpec(l=l, pp=0, mmm=1, has_vvvv=False)),
            uop_archetype="vec_mov",
            feature="avx",
        ))
        _register(InstrTemplate(
            name=f"VMOVAPS_{reg}_M{width}",
            mnemonic="vmovaps",
            slots=(_reg(width, Access.W, "vec"),
                   _mem(width, Access.R, "vec")),
            encoding=Encoding(0x28, modrm="r", modrm_rm_slot=1,
                              modrm_reg_slot=0,
                              vex=VexSpec(l=l, pp=0, mmm=1, has_vvvv=False)),
            uop_archetype="vec_load",
            feature="avx",
        ))
        _register(InstrTemplate(
            name=f"VMOVAPS_M{width}_{reg}",
            mnemonic="vmovaps",
            slots=(_mem(width, Access.W, "vec"),
                   _reg(width, Access.R, "vec")),
            encoding=Encoding(0x29, modrm="r", modrm_rm_slot=0,
                              modrm_reg_slot=1,
                              vex=VexSpec(l=l, pp=0, mmm=1, has_vvvv=False)),
            uop_archetype="vec_store",
            feature="avx",
        ))


def _build_all() -> None:
    _build_alu_group()
    _build_test_mov()
    _build_unary_shift_muldiv()
    _build_cc_families()
    _build_nops()
    _build_sse()
    _build_avx()


_build_all()


def all_templates() -> List[InstrTemplate]:
    """Return every template in the subset (stable order)."""
    return list(_TEMPLATES.values())


def template_by_name(name: str) -> InstrTemplate:
    """Look up a template by its unique name.

    Raises:
        KeyError: if no template has that name.
    """
    return _TEMPLATES[name]


def templates_by_mnemonic(mnemonic: str) -> List[InstrTemplate]:
    """Return all templates sharing the given assembly *mnemonic*."""
    mnemonic = mnemonic.lower()
    return [t for t in _TEMPLATES.values() if t.mnemonic == mnemonic]
