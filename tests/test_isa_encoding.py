"""Instruction encode/decode, including a property-based roundtrip."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.encoding import DecodeError, EncodeError, decode, encode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Fmt, InstrClass, OP_TABLE, Op, spec


class TestEncodeBasics:
    def test_add(self):
        instr = Instruction(Op.ADD, rd=3, rs=1, rt=2)
        word = encode(instr)
        assert decode(word) == instr

    def test_nop_is_zero_word(self):
        assert encode(Instruction(Op.SLL, rd=0, rt=0, shamt=0)) == 0

    def test_addi_negative_imm(self):
        instr = Instruction(Op.ADDI, rt=5, rs=29, imm=-8)
        assert decode(encode(instr)) == instr

    def test_lui_zero_extended(self):
        instr = Instruction(Op.LUI, rt=4, imm=0xFFFF)
        assert decode(encode(instr)) == instr

    def test_jump_target(self):
        instr = Instruction(Op.J, imm=0x123456)
        assert decode(encode(instr)) == instr

    def test_ret_has_no_operands(self):
        assert decode(encode(Instruction(Op.RET))) == Instruction(Op.RET)


class TestEncodeErrors:
    def test_register_out_of_range(self):
        with pytest.raises(EncodeError):
            encode(Instruction(Op.ADD, rd=32, rs=0, rt=0))

    def test_signed_imm_overflow(self):
        with pytest.raises(EncodeError):
            encode(Instruction(Op.ADDI, rt=1, rs=1, imm=0x8000))

    def test_signed_imm_underflow(self):
        with pytest.raises(EncodeError):
            encode(Instruction(Op.ADDI, rt=1, rs=1, imm=-0x8001))

    def test_unsigned_imm_rejects_negative(self):
        with pytest.raises(EncodeError):
            encode(Instruction(Op.ORI, rt=1, rs=1, imm=-1))

    def test_jump_target_overflow(self):
        with pytest.raises(EncodeError):
            encode(Instruction(Op.J, imm=1 << 26))

    def test_shamt_out_of_range(self):
        with pytest.raises(EncodeError):
            encode(Instruction(Op.SLL, rd=1, rt=1, shamt=32))


class TestDecodeErrors:
    def test_unknown_funct(self):
        with pytest.raises(DecodeError):
            decode(0x0000003F)  # opcode 0, funct 63 unused

    def test_unknown_opcode(self):
        with pytest.raises(DecodeError):
            decode(0xFC000000)  # opcode 63 unused

    def test_word_out_of_range(self):
        with pytest.raises(DecodeError):
            decode(1 << 32)
        with pytest.raises(DecodeError):
            decode(-1)


def _example(op: Op) -> Instruction:
    """One instruction of ``op`` with every field its format uses set."""
    fmt = spec(op).fmt
    if fmt in (Fmt.R3, Fmt.JALR):
        return Instruction(op, rd=3, rs=5, rt=7)
    if fmt == Fmt.SHIFT:
        return Instruction(op, rd=3, rt=7, shamt=9)
    if fmt == Fmt.JR:
        return Instruction(op, rs=5)
    if fmt == Fmt.NONE:
        return Instruction(op)
    if fmt == Fmt.J:
        return Instruction(op, imm=0x12345)
    imm = 0xBEEF if spec(op).zero_ext_imm else -42
    if fmt == Fmt.LUI:
        return Instruction(op, rt=7, imm=imm)
    return Instruction(op, rs=5, rt=7, imm=imm)


class TestDecodeMemo:
    """``decode`` is memoised per word; failures are never remembered."""

    def test_same_word_same_object(self):
        word = encode(Instruction(Op.ADDI, rt=4, rs=2, imm=-3))
        assert decode(word) is decode(word)

    def test_invalid_word_raises_every_call(self):
        for word in (0x0000003F, 0xFC000000, 1 << 32, -1):
            for _call in range(3):
                with pytest.raises(DecodeError):
                    decode(word)

    @pytest.mark.parametrize("op", list(Op), ids=lambda op: op.value)
    def test_matches_unmemoised_decode(self, op):
        word = encode(_example(op))
        assert decode(word) == decode.__wrapped__(word) == _example(op)


class TestOpcodeTable:
    def test_all_ops_have_specs(self):
        assert set(OP_TABLE) == set(Op)

    def test_mnemonics_unique(self):
        mnemonics = [s.mnemonic for s in OP_TABLE.values()]
        assert len(mnemonics) == len(set(mnemonics))

    def test_field_encodings_unique(self):
        keys = set()
        for s in OP_TABLE.values():
            key = (s.opcode, s.funct if s.opcode == 0 else None)
            assert key not in keys, key
            keys.add(key)

    def test_indirect_classification(self):
        assert spec(Op.JR).iclass is InstrClass.IJUMP
        assert spec(Op.JALR).iclass is InstrClass.ICALL
        assert spec(Op.RET).iclass is InstrClass.RET
        assert Instruction(Op.JR, rs=1).is_indirect
        assert not Instruction(Op.J, imm=0).is_indirect

    def test_control_classification(self):
        assert Instruction(Op.BEQ).is_control
        assert Instruction(Op.HALT).is_control
        assert not Instruction(Op.ADD).is_control
        assert not Instruction(Op.SYSCALL).is_control


# -- property-based roundtrip ------------------------------------------------

_reg = st.integers(0, 31)
_shamt = st.integers(0, 31)
_simm = st.integers(-0x8000, 0x7FFF)
_uimm = st.integers(0, 0xFFFF)
_jimm = st.integers(0, (1 << 26) - 1)


def _instr_strategy():
    def build(op):
        fmt = spec(op).fmt
        if fmt == Fmt.R3:
            return st.builds(lambda a, b, c: Instruction(op, rd=a, rs=b, rt=c),
                             _reg, _reg, _reg)
        if fmt == Fmt.SHIFT:
            return st.builds(lambda a, b, s: Instruction(op, rd=a, rt=b, shamt=s),
                             _reg, _reg, _shamt)
        if fmt == Fmt.JR:
            return st.builds(lambda a: Instruction(op, rs=a), _reg)
        if fmt == Fmt.JALR:
            return st.builds(lambda a, b: Instruction(op, rd=a, rs=b), _reg, _reg)
        if fmt == Fmt.NONE:
            return st.just(Instruction(op))
        if fmt == Fmt.J:
            return st.builds(lambda i: Instruction(op, imm=i), _jimm)
        if fmt == Fmt.LUI:
            return st.builds(lambda a, i: Instruction(op, rt=a, imm=i),
                             _reg, _uimm)
        imm = _uimm if spec(op).zero_ext_imm else _simm
        return st.builds(lambda a, b, i: Instruction(op, rt=a, rs=b, imm=i),
                         _reg, _reg, imm)

    return st.sampled_from(list(Op)).flatmap(build)


@given(_instr_strategy())
def test_roundtrip_property(instr):
    """decode(encode(i)) == i for every encodable instruction."""
    assert decode(encode(instr)) == instr


@given(st.integers(0, 0xFFFFFFFF))
def test_decode_total_or_error(word):
    """decode either returns an Instruction or raises DecodeError."""
    try:
        instr = decode(word)
    except DecodeError:
        return
    assert isinstance(instr, Instruction)
    # re-encoding a decoded word reproduces the canonical field bits
    assert decode(encode(instr)) == instr
