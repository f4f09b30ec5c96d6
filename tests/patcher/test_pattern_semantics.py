"""Property tests: protection patterns preserve program semantics.

For randomly generated register/memory values and every condition code,
a patched program must produce exactly the behaviour of the original.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.asm import assemble
from repro.disasm import disassemble, reassemble
from repro.emu import run_executable
from repro.isa.cond import Cond
from repro.isa.insn import Mnemonic
from repro.patcher import Patcher


def patch_all(exe, mnemonics):
    module = disassemble(exe)
    patcher = Patcher(module)
    targets = [
        entry
        for block in module.text().code_blocks()
        for entry in list(block.entries)
        if entry.insn.mnemonic in mnemonics and not entry.protected
    ]
    applied = sum(patcher.patch_entry(e) for e in targets)
    return reassemble(module), applied


@given(st.integers(-100, 100), st.integers(-100, 100),
       st.sampled_from([c for c in Cond if c not in (Cond.P, Cond.NP)]))
@settings(max_examples=60, deadline=None)
def test_jcc_pattern_all_conditions(a, b, cond):
    """cmp a, b; j<cc> — patched and unpatched must agree for every
    condition code and operand signs."""
    source = f"""
    .text
    .global _start
    _start:
        mov rbx, {a}
        mov rcx, {b}
        cmp rbx, rcx
        j{cond.suffix} taken
        mov rdi, 1
        mov rax, 60
        syscall
    taken:
        mov rdi, 2
        mov rax, 60
        syscall
    """
    exe = assemble(source)
    want = run_executable(exe).exit_code
    patched, applied = patch_all(exe, {Mnemonic.JCC})
    assert applied == 1
    assert run_executable(patched).exit_code == want


@given(st.integers(-100, 100), st.integers(-100, 100),
       st.sampled_from(["e", "ne", "b", "ae", "l", "ge"]))
@settings(max_examples=40, deadline=None)
def test_cmp_pattern_preserves_flags(a, b, suffix):
    """The duplicated-compare pattern must leave the original compare's
    flags for the following consumer."""
    source = f"""
    .text
    .global _start
    _start:
        mov rbx, {a}
        mov rcx, {b}
        cmp rbx, rcx
        set{suffix} dil
        movzx rdi, dil
        mov rax, 60
        syscall
    """
    exe = assemble(source)
    want = run_executable(exe).exit_code
    patched, applied = patch_all(exe, {Mnemonic.CMP})
    assert applied == 1
    assert run_executable(patched).exit_code == want


@given(st.integers(0, 255), st.integers(-128, 127))
@settings(max_examples=40, deadline=None)
def test_mov_pattern_random_values(value, disp8):
    source = f"""
    .text
    .global _start
    _start:
        mov rbx, qword ptr [rel value]
        mov rdi, rbx
        and rdi, 0xff
        mov rax, 60
        syscall
    .data
    value: .quad {value}
    """
    exe = assemble(source)
    want = run_executable(exe).exit_code
    patched, applied = patch_all(exe, {Mnemonic.MOV})
    assert applied >= 2
    assert run_executable(patched).exit_code == want == value


class TestFlagSafeMovVariant:
    def test_mov_between_cmp_and_jcc(self):
        """Flags are live across the mov: the patcher must use the
        pushfq-wrapped variant and keep the branch decision intact."""
        source = """
        .text
        .global _start
        _start:
            mov rbx, 5
            cmp rbx, 5              # sets ZF=1
            mov rdx, qword ptr [rel value]   # patched; flags LIVE
            je good
            mov rdi, 1
            mov rax, 60
            syscall
        good:
            mov rdi, qword ptr [rel value]
            mov rax, 60
            syscall
        .data
        value: .quad 0
        """
        exe = assemble(source)
        module = disassemble(exe)
        patcher = Patcher(module)
        target = next(
            e for b in module.text().code_blocks()
            for e in b.entries
            if e.insn.mnemonic is Mnemonic.MOV
            and 1 in e.sym_operands)
        assert patcher.patch_entry(target)
        assert "flags live" in patcher.log[-1].reason
        rebuilt = reassemble(module)
        assert run_executable(rebuilt).exit_code == 0  # je taken

    def test_flag_dead_uses_paper_exact_pattern(self):
        source = """
        .text
        .global _start
        _start:
            mov rdx, qword ptr [rel value]   # flags dead here
            cmp rdx, 1
            je one
            mov rdi, 9
            mov rax, 60
            syscall
        one:
            mov rdi, 1
            mov rax, 60
            syscall
        .data
        value: .quad 1
        """
        exe = assemble(source)
        module = disassemble(exe)
        patcher = Patcher(module)
        target = module.text().code_blocks()[0].entries[0]
        assert patcher.patch_entry(target)
        assert "flags dead" in patcher.log[-1].reason
        rebuilt = reassemble(module)
        assert run_executable(rebuilt).exit_code == 1
