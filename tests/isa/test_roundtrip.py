"""Property tests: every encodable instruction decodes back to itself."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.isa import Cond, Imm, Mem, Mnemonic, Reg, decode, encode, reg
from repro.isa.insn import Instruction, insn
from repro.isa.registers import RIP, all_gpr64, sub_register

GPR64 = all_gpr64()


def regs(size):
    return st.sampled_from([Reg(sub_register(r, size)) for r in GPR64])


def mems(size):
    bases = st.sampled_from(GPR64)
    indexes = st.sampled_from([r for r in GPR64 if r.name != "rsp"])
    disps = st.one_of(
        st.integers(-128, 127),
        st.integers(-(1 << 31), (1 << 31) - 1),
    )

    def build(base, index, scale, disp, shape):
        if shape == "rip":
            return Mem(base=RIP, disp=disp, size=size)
        if shape == "abs":
            return Mem(disp=disp, size=size)
        if shape == "base":
            return Mem(base=base, disp=disp, size=size)
        if shape == "base+index":
            return Mem(base=base, index=index, scale=scale, disp=disp,
                       size=size)
        return Mem(index=index, scale=scale, disp=disp, size=size)

    return st.builds(
        build,
        bases,
        indexes,
        st.sampled_from([1, 2, 4, 8]),
        disps,
        st.sampled_from(["rip", "abs", "base", "base+index", "index"]),
    )


def imm(bits, size=0):
    half = 1 << (bits - 1)
    return st.builds(Imm, st.integers(-half, half - 1), st.just(size))


def alu_instructions():
    mnemos = st.sampled_from([Mnemonic.ADD, Mnemonic.SUB, Mnemonic.XOR,
                              Mnemonic.AND, Mnemonic.OR, Mnemonic.CMP])
    size = st.sampled_from([1, 4, 8])

    @st.composite
    def build(draw):
        m = draw(mnemos)
        s = draw(size)
        form = draw(st.sampled_from(["rm_r", "r_m", "m_r", "rm_imm"]))
        if form == "rm_r":
            return insn(m, draw(regs(s)), draw(regs(s)))
        if form == "r_m":
            return insn(m, draw(regs(s)), draw(mems(s)))
        if form == "m_r":
            return insn(m, draw(mems(s)), draw(regs(s)))
        dst = draw(st.one_of(regs(s), mems(s)))
        immediate = draw(imm(8 if s == 1 else 32))
        return insn(m, dst, immediate)

    return build()


def mov_instructions():
    size = st.sampled_from([1, 4, 8])

    @st.composite
    def build(draw):
        s = draw(size)
        form = draw(st.sampled_from(["rr", "rm", "mr", "ri", "mi", "movabs"]))
        if form == "rr":
            return insn(Mnemonic.MOV, draw(regs(s)), draw(regs(s)))
        if form == "rm":
            return insn(Mnemonic.MOV, draw(regs(s)), draw(mems(s)))
        if form == "mr":
            return insn(Mnemonic.MOV, draw(mems(s)), draw(regs(s)))
        if form == "ri":
            bits = 8 if s == 1 else 32
            return insn(Mnemonic.MOV, draw(regs(s)), draw(imm(bits)))
        if form == "mi":
            bits = 8 if s == 1 else 32
            return insn(Mnemonic.MOV, draw(mems(s)), draw(imm(bits)))
        return insn(Mnemonic.MOV, draw(regs(8)), draw(imm(64, 8)))

    return build()


def misc_instructions():
    conds = st.sampled_from(list(Cond))

    @st.composite
    def build(draw):
        kind = draw(st.sampled_from(
            ["push", "pop", "pushimm", "lea", "jmp", "jcc", "call", "ret",
             "setcc", "cmov", "movzx", "imul", "shift", "unary", "incdec",
             "test", "fixed", "indirect"]))
        if kind == "push":
            return insn(Mnemonic.PUSH, draw(regs(8)))
        if kind == "pop":
            return insn(Mnemonic.POP, draw(regs(8)))
        if kind == "pushimm":
            return insn(Mnemonic.PUSH, draw(imm(32)))
        if kind == "lea":
            return insn(Mnemonic.LEA, draw(regs(8)), draw(mems(8)))
        if kind == "jmp":
            return insn(Mnemonic.JMP, draw(imm(32)))
        if kind == "jcc":
            return insn(Mnemonic.JCC, draw(imm(32)), cond=draw(conds))
        if kind == "call":
            return insn(Mnemonic.CALL, draw(imm(32)))
        if kind == "ret":
            return insn(Mnemonic.RET)
        if kind == "setcc":
            return insn(Mnemonic.SETCC, draw(regs(1)), cond=draw(conds))
        if kind == "cmov":
            s = draw(st.sampled_from([4, 8]))
            return insn(Mnemonic.CMOVCC, draw(regs(s)),
                        draw(st.one_of(regs(s), mems(s))), cond=draw(conds))
        if kind == "movzx":
            s = draw(st.sampled_from([4, 8]))
            return insn(Mnemonic.MOVZX, draw(regs(s)),
                        draw(st.one_of(regs(1), mems(1))))
        if kind == "imul":
            s = draw(st.sampled_from([4, 8]))
            return insn(Mnemonic.IMUL, draw(regs(s)),
                        draw(st.one_of(regs(s), mems(s))))
        if kind == "shift":
            m = draw(st.sampled_from([Mnemonic.SHL, Mnemonic.SHR,
                                      Mnemonic.SAR]))
            s = draw(st.sampled_from([1, 4, 8]))
            amount = draw(st.one_of(
                st.builds(Imm, st.integers(0, 63), st.just(1)),
                st.just(Reg(reg("cl"))),
            ))
            return insn(m, draw(st.one_of(regs(s), mems(s))), amount)
        if kind == "unary":
            m = draw(st.sampled_from([Mnemonic.NEG, Mnemonic.NOT]))
            s = draw(st.sampled_from([1, 4, 8]))
            return insn(m, draw(st.one_of(regs(s), mems(s))))
        if kind == "incdec":
            m = draw(st.sampled_from([Mnemonic.INC, Mnemonic.DEC]))
            s = draw(st.sampled_from([1, 4, 8]))
            return insn(m, draw(st.one_of(regs(s), mems(s))))
        if kind == "test":
            s = draw(st.sampled_from([1, 4, 8]))
            src = draw(st.one_of(regs(s),
                                 st.just(None)))
            dst = draw(st.one_of(regs(s), mems(s)))
            if src is None:
                return insn(Mnemonic.TEST, dst,
                            draw(imm(8 if s == 1 else 32)))
            return insn(Mnemonic.TEST, dst, src)
        if kind == "indirect":
            m = draw(st.sampled_from([Mnemonic.JMP, Mnemonic.CALL]))
            return insn(m, draw(st.one_of(regs(8), mems(8))))
        m = draw(st.sampled_from([Mnemonic.NOP, Mnemonic.SYSCALL,
                                  Mnemonic.HLT, Mnemonic.INT3,
                                  Mnemonic.UD2, Mnemonic.PUSHFQ,
                                  Mnemonic.POPFQ]))
        return insn(m)

    return build()


def any_instruction():
    return st.one_of(alu_instructions(), mov_instructions(),
                     misc_instructions())


def semantically_equal(a: Instruction, b: Instruction) -> bool:
    """Compare ignoring encoding-size annotations on immediates."""
    if a.mnemonic is not b.mnemonic or a.cond is not b.cond:
        return False
    if len(a.operands) != len(b.operands):
        return False
    for x, y in zip(a.operands, b.operands):
        if isinstance(x, Imm) != isinstance(y, Imm):
            return False
        if isinstance(x, Imm):
            if x.value != y.value:
                return False
        elif x != y:
            return False
    return True


@given(any_instruction())
@settings(max_examples=800, deadline=None)
def test_encode_decode_roundtrip(instruction):
    code = encode(instruction)
    decoded = decode(code)
    assert decoded.length == len(code)
    assert semantically_equal(instruction, decoded), (
        f"{instruction} -> {code.hex()} -> {decoded}")


@given(any_instruction())
@settings(max_examples=300, deadline=None)
def test_reencode_is_stable(instruction):
    """decode(encode(x)) re-encodes to the same bytes (canonical form)."""
    code = encode(instruction)
    decoded = decode(code)
    assert encode(decoded) == code
