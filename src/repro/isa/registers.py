"""Register file for the x86-64 subset.

Registers are identified by name.  Every architectural register has a *root*:
the full-width register whose storage it aliases (``eax`` and ``ax`` both
root at ``rax``; ``xmm3`` roots at ``ymm3``).  Dependence tracking in the
throughput models is done at root granularity, which matches the common
modeling assumption that 32-bit writes zero-extend and partial-register
stalls are out of scope.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List


class RegisterKind(enum.Enum):
    """Architectural register class."""

    GPR = "gpr"
    VEC = "vec"
    FLAGS = "flags"
    IP = "ip"


@dataclass(frozen=True)
class Register:
    """A single architectural register.

    Attributes:
        name: canonical lower-case name, e.g. ``"rax"`` or ``"xmm5"``.
        kind: register class.
        width: width in bits (8, 16, 32, 64, 128, 256).
        enc: 4-bit hardware encoding index (0-15); REX/VEX extends to 8-15.
        root_name: name of the full-width register this one aliases.
    """

    name: str
    kind: RegisterKind
    width: int
    enc: int
    root_name: str

    @property
    def needs_rex(self) -> bool:
        """True when the encoding index requires a REX/VEX extension bit."""
        return self.enc >= 8

    @property
    def is_byte_rex_only(self) -> bool:
        """True for spl/bpl/sil/dil, encodable only with a REX prefix."""
        return self.name in ("spl", "bpl", "sil", "dil")

    def root(self) -> "Register":
        """Return the full-width register aliased by this one."""
        return _REGISTRY[self.root_name]  # root names are canonical

    def __str__(self) -> str:
        return self.name


_GPR64 = [
    "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
]
_GPR32 = [
    "eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi",
    "r8d", "r9d", "r10d", "r11d", "r12d", "r13d", "r14d", "r15d",
]
_GPR16 = [
    "ax", "cx", "dx", "bx", "sp", "bp", "si", "di",
    "r8w", "r9w", "r10w", "r11w", "r12w", "r13w", "r14w", "r15w",
]
_GPR8 = [
    "al", "cl", "dl", "bl", "spl", "bpl", "sil", "dil",
    "r8b", "r9b", "r10b", "r11b", "r12b", "r13b", "r14b", "r15b",
]

_REGISTRY: Dict[str, Register] = {}


def _add(reg: Register) -> None:
    _REGISTRY[reg.name] = reg


def _build_registry() -> None:
    for enc, name in enumerate(_GPR64):
        _add(Register(name, RegisterKind.GPR, 64, enc, name))
    for enc, name in enumerate(_GPR32):
        _add(Register(name, RegisterKind.GPR, 32, enc, _GPR64[enc]))
    for enc, name in enumerate(_GPR16):
        _add(Register(name, RegisterKind.GPR, 16, enc, _GPR64[enc]))
    for enc, name in enumerate(_GPR8):
        _add(Register(name, RegisterKind.GPR, 8, enc, _GPR64[enc]))
    for enc in range(16):
        ymm = f"ymm{enc}"
        _add(Register(ymm, RegisterKind.VEC, 256, enc, ymm))
        _add(Register(f"xmm{enc}", RegisterKind.VEC, 128, enc, ymm))
    _add(Register("rip", RegisterKind.IP, 64, 0, "rip"))
    _add(Register("rflags", RegisterKind.FLAGS, 64, 0, "rflags"))


_build_registry()

#: The architectural flags register, used for flag dependencies.
FLAGS = _REGISTRY["rflags"]

#: The instruction pointer, used for RIP-relative addressing.
RIP = _REGISTRY["rip"]


def register_by_name(name: str) -> Register:
    """Look up a register by its canonical name.

    Raises:
        KeyError: if the name does not denote a register of the subset.
    """
    return _REGISTRY[name.lower()]


def is_register_name(name: str) -> bool:
    """Return True when *name* denotes a register of the subset."""
    return name.lower() in _REGISTRY


def gpr(enc: int, width: int) -> Register:
    """Return the GPR with hardware encoding *enc* at *width* bits."""
    table = {64: _GPR64, 32: _GPR32, 16: _GPR16, 8: _GPR8}[width]
    return _REGISTRY[table[enc]]


def vec(enc: int, width: int) -> Register:
    """Return the vector register with encoding *enc* at *width* bits."""
    prefix = {128: "xmm", 256: "ymm"}[width]
    return _REGISTRY[f"{prefix}{enc}"]


def all_registers() -> List[Register]:
    """Return all registers in the registry (stable order)."""
    return list(_REGISTRY.values())


#: GPRs that the synthetic block generator may freely clobber.  rsp is
#: excluded because push/pop and the measurement harness use it implicitly.
SCRATCH_GPR64 = tuple(
    _REGISTRY[n]
    for n in ("rax", "rcx", "rdx", "rbx", "rbp", "rsi", "rdi",
              "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15")
)

#: Vector registers available to the generator.
SCRATCH_VEC = tuple(_REGISTRY[f"ymm{i}"] for i in range(16))
