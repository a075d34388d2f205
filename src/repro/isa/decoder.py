"""Byte-level decoder (disassembler) for the x86-64 subset.

This is the XED-substitute front end: it turns raw bytes back into
:class:`~repro.isa.instruction.Instruction` objects, recovering the facts
the throughput models need (lengths, prefix offsets, operands).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.isa.instruction import Instruction
from repro.isa.operands import ImmOperand, MemOperand, RegOperand
from repro.isa.registers import RIP, gpr, vec
from repro.isa.templates import (
    InstrTemplate,
    SlotKind,
    _NOP_BYTES,
    all_templates,
    template_by_name,
)


class DecodeError(Exception):
    """Raised when bytes cannot be decoded as a subset instruction."""


_LEGACY_PREFIXES = frozenset((0x66, 0xF2, 0xF3))

# Lookup keys:
#   legacy: ("leg", simd_prefix, esc, opcode, rex_w) -> [templates]
#   vex:    ("vex", l, pp, mmm, w, opcode)           -> [templates]
_LOOKUP: Dict[tuple, List[InstrTemplate]] = {}

_NOPS_BY_LENGTH = sorted(_NOP_BYTES.items(), key=lambda kv: -kv[0])
#: The bytes a NOP pattern can start with (0x90, 0x66 and 0x0F).
_NOP_FIRST_BYTES = frozenset(pattern[0] for pattern in _NOP_BYTES.values())


def _norm_simd_prefix(t: InstrTemplate) -> Optional[int]:
    enc = t.encoding
    if enc.simd_prefix is not None:
        return enc.simd_prefix
    if enc.legacy_66:
        return 0x66
    return None


def _build_lookup() -> None:
    for t in all_templates():
        enc = t.encoding
        if enc.fixed_bytes is not None:
            continue
        if enc.vex is not None:
            w_values = (0, 1) if enc.vex.w is None else (enc.vex.w,)
            for w in w_values:
                key = ("vex", enc.vex.l, enc.vex.pp, enc.vex.mmm, w,
                       enc.opcode)
                _LOOKUP.setdefault(key, []).append(t)
            continue
        opcodes = [enc.opcode]
        if enc.reg_in_opcode:
            opcodes = [(enc.opcode & 0xF8) | low for low in range(8)]
        for op in opcodes:
            key = ("leg", _norm_simd_prefix(t), enc.esc, op, enc.rex_w)
            _LOOKUP.setdefault(key, []).append(t)


_build_lookup()


def _try_decode_nop(raw: bytes, offset: int) -> Optional[Instruction]:
    if offset >= len(raw) or raw[offset] not in _NOP_FIRST_BYTES:
        return None
    for length, pattern in _NOPS_BY_LENGTH:
        if raw[offset:offset + length] == pattern:
            template = template_by_name(f"NOP{length}")
            return Instruction.create(template, ())
    return None


def _read_int(raw: bytes, offset: int, nbytes: int, signed: bool) -> int:
    chunk = raw[offset:offset + nbytes]
    if len(chunk) != nbytes:
        raise DecodeError("truncated instruction")
    return int.from_bytes(chunk, "little", signed=signed)


def decode(raw: bytes, offset: int = 0) -> Tuple[Instruction, int]:
    """Decode one instruction starting at *offset*.

    Returns:
        (instruction, new_offset).

    Raises:
        DecodeError: when the bytes are not a subset instruction.
    """
    nop = _try_decode_nop(raw, offset)
    if nop is not None:
        return nop, offset + nop.length

    i = offset
    simd_prefix: Optional[int] = None
    while i < len(raw) and raw[i] in _LEGACY_PREFIXES:
        simd_prefix = raw[i]
        i += 1
    if i >= len(raw):
        raise DecodeError("ran out of bytes in prefixes")

    rex = 0
    vex_fields = None
    if 0x40 <= raw[i] <= 0x4F:
        rex = raw[i]
        i += 1
    elif raw[i] in (0xC4, 0xC5):
        vex_fields, i = _parse_vex(raw, i)

    if i >= len(raw):
        raise DecodeError("ran out of bytes at opcode")

    if vex_fields is not None:
        return _decode_vex(raw, offset, i, simd_prefix, vex_fields)
    return _decode_legacy(raw, offset, i, simd_prefix, rex)


def _parse_vex(raw: bytes, i: int) -> Tuple[dict, int]:
    if raw[i] == 0xC5:
        if i + 1 >= len(raw):
            raise DecodeError("truncated VEX")
        b1 = raw[i + 1]
        fields = {
            "r": 1 - (b1 >> 7), "x": 0, "b": 0, "mmm": 1,
            "w": 0, "vvvv": (~(b1 >> 3)) & 0xF,
            "l": 256 if (b1 >> 2) & 1 else 128, "pp": b1 & 3,
        }
        return fields, i + 2
    if i + 2 >= len(raw):
        raise DecodeError("truncated VEX")
    b1, b2 = raw[i + 1], raw[i + 2]
    fields = {
        "r": 1 - (b1 >> 7), "x": 1 - ((b1 >> 6) & 1),
        "b": 1 - ((b1 >> 5) & 1), "mmm": b1 & 0x1F,
        "w": b2 >> 7, "vvvv": (~(b2 >> 3)) & 0xF,
        "l": 256 if (b2 >> 2) & 1 else 128, "pp": b2 & 3,
    }
    return fields, i + 3


def _parse_modrm(raw: bytes, i: int, rex_x: int, rex_b: int,
                 mem_width: int, regclass: str):
    """Parse ModRM (+SIB +disp).  Returns (mod, reg_field, rm_operand, i)."""
    if i >= len(raw):
        raise DecodeError("truncated at ModRM")
    modrm = raw[i]
    i += 1
    mod, reg_field, rm = modrm >> 6, (modrm >> 3) & 7, modrm & 7

    if mod == 0b11:
        return mod, reg_field, (rm | (rex_b << 3)), i

    base = index = None
    scale = 1
    disp = 0
    if mod == 0b00 and rm == 0b101:
        disp = _read_int(raw, i, 4, signed=True)
        i += 4
        mem = MemOperand(base=RIP, disp=disp, width=mem_width)
        return mod, reg_field, mem, i
    if rm == 0b100:
        if i >= len(raw):
            raise DecodeError("truncated at SIB")
        sib = raw[i]
        i += 1
        scale = 1 << (sib >> 6)
        index_enc = ((sib >> 3) & 7) | (rex_x << 3)
        base_enc = (sib & 7) | (rex_b << 3)
        if ((sib >> 3) & 7) != 0b100 or rex_x:
            index = gpr(index_enc, 64)
        if (sib & 7) == 0b101 and mod == 0b00:
            disp = _read_int(raw, i, 4, signed=True)
            i += 4
            mem = MemOperand(base=None, index=index, scale=scale, disp=disp,
                             width=mem_width)
            return mod, reg_field, mem, i
        base = gpr(base_enc, 64)
    else:
        base = gpr(rm | (rex_b << 3), 64)

    if mod == 0b01:
        disp = _read_int(raw, i, 1, signed=True)
        i += 1
    elif mod == 0b10:
        disp = _read_int(raw, i, 4, signed=True)
        i += 4
    mem = MemOperand(base=base, index=index, scale=scale, disp=disp,
                     width=mem_width)
    return mod, reg_field, mem, i


def _make_reg(enc_index: int, slot) -> RegOperand:
    if slot.regclass == "vec":
        return RegOperand(vec(enc_index, slot.width))
    return RegOperand(gpr(enc_index, slot.width))


def _select_template(candidates: List[InstrTemplate], mod: Optional[int],
                     reg_field: Optional[int]) -> InstrTemplate:
    viable = []
    for t in candidates:
        enc = t.encoding
        if enc.modrm is not None and enc.modrm != "r":
            if reg_field is None or int(enc.modrm) != reg_field:
                continue
        if enc.modrm is not None and mod is not None:
            rm_slot = t.slots[enc.modrm_rm_slot]
            if mod == 0b11 and rm_slot.kind is not SlotKind.REG:
                continue
            if mod != 0b11 and rm_slot.kind is not SlotKind.MEM:
                continue
        viable.append(t)
    if not viable:
        raise DecodeError("no template matches opcode/ModRM combination")
    if len(viable) > 1:
        raise DecodeError(
            f"ambiguous decode: {[t.name for t in viable]}")
    return viable[0]


def _decode_legacy(raw: bytes, start: int, i: int,
                   simd_prefix: Optional[int], rex: int):
    rex_w = (rex >> 3) & 1
    rex_r = (rex >> 2) & 1
    rex_x = (rex >> 1) & 1
    rex_b = rex & 1

    esc: Tuple[int, ...] = ()
    if raw[i] == 0x0F:
        i += 1
        if i < len(raw) and raw[i] in (0x38, 0x3A):
            esc = (0x0F, raw[i])
            i += 1
        else:
            esc = (0x0F,)
    if i >= len(raw):
        raise DecodeError("truncated at opcode")
    opcode = raw[i]
    i += 1

    key = ("leg", simd_prefix, esc, opcode, bool(rex_w))
    candidates = _LOOKUP.get(key)
    if not candidates:
        raise DecodeError(
            f"unknown opcode {opcode:#x} (esc={esc}, prefix={simd_prefix})")

    needs_modrm = any(t.encoding.modrm is not None for t in candidates)
    mod = reg_field = None
    rm_decoded = None
    if needs_modrm:
        # All candidates for a key share the rm slot position and width.
        probe = candidates[0]
        rm_slot = probe.slots[probe.encoding.modrm_rm_slot]
        mod, reg_field, rm_decoded, i = _parse_modrm(
            raw, i, rex_x, rex_b, rm_slot.width, rm_slot.regclass)

    template = _select_template(candidates, mod, reg_field)
    enc = template.encoding

    imm_value = None
    if enc.imm_width:
        nbytes = enc.imm_width // 8
        imm_value = _read_int(raw, i, nbytes, signed=True)
        i += nbytes

    operands: List = [None] * len(template.slots)
    if enc.reg_in_opcode:
        reg_enc = (opcode & 7) | (rex_b << 3)
        operands[0] = _make_reg(reg_enc, template.slots[0])
    if enc.modrm is not None:
        rm_slot_idx = enc.modrm_rm_slot
        rm_slot = template.slots[rm_slot_idx]
        if isinstance(rm_decoded, int):
            operands[rm_slot_idx] = _make_reg(rm_decoded, rm_slot)
        else:
            operands[rm_slot_idx] = rm_decoded
        if enc.modrm == "r":
            reg_slot_idx = enc.modrm_reg_slot
            reg_slot = template.slots[reg_slot_idx]
            operands[reg_slot_idx] = _make_reg(
                (reg_field or 0) | (rex_r << 3), reg_slot)
    if imm_value is not None:
        for idx, slot in enumerate(template.slots):
            if slot.kind is SlotKind.IMM:
                operands[idx] = ImmOperand(imm_value, enc.imm_width)
                break

    if any(op is None for op in operands):
        raise DecodeError(f"could not reconstruct operands for "
                          f"{template.name}")

    instr = Instruction(template, tuple(operands), raw[start:i], _prefix_len(
        raw, start))
    return instr, i


def _decode_vex(raw: bytes, start: int, i: int,
                simd_prefix: Optional[int], vex: dict):
    if i >= len(raw):
        raise DecodeError("truncated at VEX opcode")
    opcode = raw[i]
    i += 1
    key = ("vex", vex["l"], vex["pp"], vex["mmm"], vex["w"], opcode)
    candidates = _LOOKUP.get(key)
    if not candidates:
        raise DecodeError(f"unknown VEX opcode {opcode:#x}")

    probe = candidates[0]
    rm_slot = probe.slots[probe.encoding.modrm_rm_slot]
    mod, reg_field, rm_decoded, i = _parse_modrm(
        raw, i, vex["x"], vex["b"], rm_slot.width, rm_slot.regclass)
    template = _select_template(candidates, mod, reg_field)
    enc = template.encoding

    operands: List = [None] * len(template.slots)
    rm_slot_idx = enc.modrm_rm_slot
    rm_slot = template.slots[rm_slot_idx]
    if isinstance(rm_decoded, int):
        operands[rm_slot_idx] = _make_reg(rm_decoded, rm_slot)
    else:
        operands[rm_slot_idx] = rm_decoded
    reg_slot_idx = enc.modrm_reg_slot
    operands[reg_slot_idx] = _make_reg(
        (reg_field or 0) | (vex["r"] << 3), template.slots[reg_slot_idx])
    if enc.vex is not None and enc.vex.has_vvvv:
        other = [idx for idx in range(len(template.slots))
                 if idx not in (rm_slot_idx, reg_slot_idx)]
        operands[other[0]] = _make_reg(vex["vvvv"],
                                       template.slots[other[0]])

    if any(op is None for op in operands):
        raise DecodeError(f"could not reconstruct operands for "
                          f"{template.name}")

    instr = Instruction(template, tuple(operands), raw[start:i],
                        _prefix_len(raw, start))
    return instr, i


def _prefix_len(raw: bytes, start: int) -> int:
    """Offset of the first nominal-opcode byte relative to *start*.

    Legacy prefixes and REX count as prefix bytes; a VEX prefix is treated
    as the start of the opcode (consistent with the encoder).
    """
    i = start
    while raw[i] in _LEGACY_PREFIXES:
        i += 1
    if 0x40 <= raw[i] <= 0x4F:
        i += 1
    return i - start


def decode_block(raw: bytes) -> List[Instruction]:
    """Decode a whole basic block (sequence of instructions)."""
    instructions = []
    offset = 0
    while offset < len(raw):
        instr, offset = decode(raw, offset)
        instructions.append(instr)
    return instructions
