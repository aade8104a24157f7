"""Binary encoder/decoder for SR32 instructions.

All instructions are 32-bit little-endian words.  See
:mod:`repro.isa.opcodes` for field layouts.
"""

from __future__ import annotations

from functools import lru_cache

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Fmt, op_for_fields, spec


#: Distinct words :func:`decode` remembers per process, least recently
#: used out first.  The 12 guests and the 3 self-modifying scenarios
#: hold 782 distinct text words at ``tiny`` and ``small`` together.
DECODE_CACHE_SIZE = 4096


class EncodeError(ValueError):
    """Raised when an instruction cannot be encoded."""


class DecodeError(ValueError):
    """Raised when a word is not a valid SR32 instruction."""


def _check_reg(value: int, field: str) -> int:
    if not 0 <= value < 32:
        raise EncodeError(f"{field} out of range: {value}")
    return value


def _imm16(value: int, zero_ext: bool) -> int:
    if zero_ext:
        if not 0 <= value <= 0xFFFF:
            raise EncodeError(f"unsigned imm16 out of range: {value}")
        return value
    if not -0x8000 <= value <= 0x7FFF:
        raise EncodeError(f"signed imm16 out of range: {value}")
    return value & 0xFFFF


def encode(instr: Instruction) -> int:
    """Encode a decoded instruction to its 32-bit word."""
    sp = spec(instr.op)
    rs = _check_reg(instr.rs, "rs")
    rt = _check_reg(instr.rt, "rt")
    rd = _check_reg(instr.rd, "rd")
    fmt = sp.fmt
    if fmt in (Fmt.R3, Fmt.SHIFT, Fmt.JR, Fmt.JALR, Fmt.NONE):
        shamt = instr.shamt
        if not 0 <= shamt < 32:
            raise EncodeError(f"shamt out of range: {shamt}")
        assert sp.funct is not None
        return (rs << 21) | (rt << 16) | (rd << 11) | (shamt << 6) | sp.funct
    if fmt == Fmt.J:
        if not 0 <= instr.imm < (1 << 26):
            raise EncodeError(f"jump target out of range: {instr.imm}")
        return (sp.opcode << 26) | instr.imm
    # I-format variants
    imm = _imm16(instr.imm, sp.zero_ext_imm)
    return (sp.opcode << 26) | (rs << 21) | (rt << 16) | imm


def _sext16(value: int) -> int:
    return value - 0x10000 if value & 0x8000 else value


@lru_cache(maxsize=DECODE_CACHE_SIZE)
def decode(word: int) -> Instruction:
    """Decode a 32-bit word to an :class:`Instruction`.

    Raises :class:`DecodeError` for unknown opcodes.  Memoised: a word
    decoded before returns the same (frozen) instruction object, so the
    interpreter's fetch, the translator's walks and the CFG recovery
    share one decode of each word per process.  A failed decode is not
    remembered and raises again on every call.
    """
    if not 0 <= word <= 0xFFFFFFFF:
        raise DecodeError(f"word out of range: {word:#x}")
    opcode = (word >> 26) & 0x3F
    funct = word & 0x3F
    op = op_for_fields(opcode, funct)
    if op is None:
        raise DecodeError(f"unknown instruction word {word:#010x}")
    sp = spec(op)
    rs = (word >> 21) & 0x1F
    rt = (word >> 16) & 0x1F
    rd = (word >> 11) & 0x1F
    shamt = (word >> 6) & 0x1F
    fmt = sp.fmt
    if fmt in (Fmt.R3, Fmt.JALR):
        return Instruction(op, rd=rd, rs=rs, rt=rt)
    if fmt == Fmt.SHIFT:
        return Instruction(op, rd=rd, rt=rt, shamt=shamt)
    if fmt == Fmt.JR:
        return Instruction(op, rs=rs)
    if fmt == Fmt.NONE:
        return Instruction(op)
    if fmt == Fmt.J:
        return Instruction(op, imm=word & 0x03FFFFFF)
    imm_raw = word & 0xFFFF
    imm = imm_raw if sp.zero_ext_imm else _sext16(imm_raw)
    if fmt == Fmt.LUI:
        return Instruction(op, rt=rt, imm=imm)
    return Instruction(op, rs=rs, rt=rt, imm=imm)
