"""Property test: assembled programs disassemble to the same stream.

Random straight-line instruction sequences (no control flow, so linear
decode is well-defined) are assembled into an executable; decoding the
.text section must yield semantically identical instructions, and the
GTIRB round trip (disassemble -> pretty-print -> reassemble) must
preserve the bytes' behaviour-relevant content.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.asm import assemble
from repro.disasm import disassemble, reassemble
from repro.isa import Imm, Mem, Mnemonic, Reg
from repro.isa.decoder import decode_all
from repro.isa.registers import all_gpr64

# straight-line data ops only; operands chosen to be assembly-printable
GPR = [r for r in all_gpr64() if r.name not in ("rsp", "rbp")]


def regs64():
    return st.sampled_from([Reg(r) for r in GPR])


def small_imm():
    return st.builds(Imm, st.integers(-(1 << 31), (1 << 31) - 1),
                     st.just(0))


def mems():
    return st.builds(
        lambda base, disp: Mem(base=base, disp=disp, size=8),
        st.sampled_from(GPR), st.integers(-128, 127))


@st.composite
def straightline(draw):
    kind = draw(st.sampled_from(["alu_rr", "alu_ri", "mov_rm", "mov_mr",
                                 "mov_ri", "lea", "unary", "shift"]))
    alu = st.sampled_from([Mnemonic.ADD, Mnemonic.SUB, Mnemonic.XOR,
                           Mnemonic.AND, Mnemonic.OR, Mnemonic.CMP])
    from repro.isa.insn import insn as mk
    if kind == "alu_rr":
        return mk(draw(alu), draw(regs64()), draw(regs64()))
    if kind == "alu_ri":
        return mk(draw(alu), draw(regs64()), draw(small_imm()))
    if kind == "mov_rm":
        return mk(Mnemonic.MOV, draw(regs64()), draw(mems()))
    if kind == "mov_mr":
        return mk(Mnemonic.MOV, draw(mems()), draw(regs64()))
    if kind == "mov_ri":
        return mk(Mnemonic.MOV, draw(regs64()), draw(small_imm()))
    if kind == "lea":
        return mk(Mnemonic.LEA, draw(regs64()), draw(mems()))
    if kind == "unary":
        mnem = draw(st.sampled_from([Mnemonic.INC, Mnemonic.DEC,
                                     Mnemonic.NEG, Mnemonic.NOT]))
        return mk(mnem, draw(regs64()))
    mnem = draw(st.sampled_from([Mnemonic.SHL, Mnemonic.SHR,
                                 Mnemonic.SAR]))
    return mk(mnem, draw(regs64()), Imm(draw(st.integers(1, 63)), 1))


def render(instruction) -> str:
    from repro.disasm.pprint import render_instruction
    from repro.gtirb.ir import InsnEntry
    return render_instruction(InsnEntry(instruction))


@given(st.lists(straightline(), min_size=1, max_size=12))
@settings(max_examples=120, deadline=None)
def test_assemble_decode_roundtrip(instructions):
    body = "\n".join(f"    {render(i)}" for i in instructions)
    source = (".text\n.global _start\n_start:\n" + body +
              "\n    mov rax, 60\n    mov rdi, 0\n    syscall\n")
    exe = assemble(source)
    text = exe.section(".text")
    decoded = list(decode_all(text.data, text.addr))
    # strip the exit epilogue (3 instructions)
    decoded = decoded[:len(instructions)]
    assert len(decoded) == len(instructions)
    for want, got in zip(instructions, decoded):
        assert want.mnemonic is got.mnemonic
        for a, b in zip(want.operands, got.operands):
            if isinstance(a, Imm):
                assert a.value == b.value
            else:
                assert a == b


@given(st.lists(straightline(), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_gtirb_roundtrip_preserves_stream(instructions):
    body = "\n".join(f"    {render(i)}" for i in instructions)
    source = (".text\n.global _start\n_start:\n" + body +
              "\n    mov rax, 60\n    mov rdi, 0\n    syscall\n")
    exe = assemble(source)
    rebuilt = reassemble(disassemble(exe))
    original = list(decode_all(exe.section(".text").data, 0))
    regenerated = list(decode_all(rebuilt.section(".text").data, 0))
    assert [i.name for i in original] == [i.name for i in regenerated]
