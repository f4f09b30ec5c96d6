"""Splicing edge cases: block boundaries, symbols, loop limits."""

from repro.asm import assemble
from repro.disasm import disassemble, reassemble
from repro.emu import run_executable
from repro.isa.insn import Mnemonic
from repro.patcher import FaulterPatcherLoop, Patcher
from repro.workloads import pincheck


class TestSpliceBoundaries:
    def test_patch_first_instruction_of_labeled_block(self):
        """Symbols pointing at the patched block must stay on it."""
        source = """
        .text
        .global _start
        _start:
            jmp work
        work:
            mov rbx, qword ptr [value]   # first insn of labeled block
            mov rdi, rbx
            mov rax, 60
            syscall
        .data
        value: .quad 6
        """
        exe = assemble(source)
        module = disassemble(exe)
        patcher = Patcher(module)
        work_block = module.symbol("work").referent
        assert patcher.patch_entry(work_block.entries[0])
        # the 'work' symbol must still resolve to executable code: the
        # jmp at _start lands on the pattern's first instruction
        rebuilt = reassemble(module)
        assert run_executable(rebuilt).exit_code == 6

    def test_patch_block_terminator(self):
        """Patching a jcc (last entry) leaves an empty-post split."""
        source = """
        .text
        .global _start
        _start:
            mov rbx, qword ptr [value]
            cmp rbx, 5
            je five
            mov rdi, 1
            mov rax, 60
            syscall
        five:
            mov rdi, 5
            mov rax, 60
            syscall
        .data
        value: .quad 5
        """
        exe = assemble(source)
        module = disassemble(exe)
        patcher = Patcher(module)
        jcc_entry = next(
            e for b in module.text().code_blocks()
            for e in b.entries if e.insn.mnemonic is Mnemonic.JCC)
        assert patcher.patch_entry(jcc_entry)
        rebuilt = reassemble(module)
        assert run_executable(rebuilt).exit_code == 5

    def test_two_patches_same_block(self):
        source = """
        .text
        .global _start
        _start:
            mov rbx, qword ptr [value]
            mov rcx, qword ptr [value]
            mov rdi, rbx
            add rdi, rcx
            mov rax, 60
            syscall
        .data
        value: .quad 4
        """
        exe = assemble(source)
        module = disassemble(exe)
        patcher = Patcher(module)
        movs = [e for b in module.text().code_blocks()
                for e in b.entries
                if e.insn.mnemonic is Mnemonic.MOV and 1 in
                e.sym_operands and not e.protected]
        applied = sum(patcher.patch_entry(e) for e in list(movs)[:2])
        assert applied == 2
        rebuilt = reassemble(module)
        assert run_executable(rebuilt).exit_code == 8


class TestLoopLimits:
    def test_max_iterations_respected(self):
        wl = pincheck.workload()
        loop = FaulterPatcherLoop(
            wl.build(), wl.good_input, wl.bad_input, wl.grant_marker,
            models=("skip",), max_iterations=1, name=wl.name)
        result = loop.run()
        assert len(result.iterations) == 1
        # one iteration patches but cannot confirm convergence
        assert not result.converged

    def test_loop_with_multiple_models(self):
        wl = pincheck.workload()
        result = FaulterPatcherLoop(
            wl.build(), wl.good_input, wl.bad_input, wl.grant_marker,
            models=("skip", "stuck0"), name=wl.name).run()
        # behaviour must be intact whatever the convergence outcome
        good = run_executable(result.hardened, stdin=wl.good_input)
        assert wl.grant_marker in good.stdout

    def test_naive_symbolization_loop(self):
        """The loop also works on naive-mode symbolization for
        decoy-free binaries."""
        wl = pincheck.workload()
        result = FaulterPatcherLoop(
            wl.build(), wl.good_input, wl.bad_input, wl.grant_marker,
            models=("skip",), symbolization="naive",
            name=wl.name).run()
        assert result.converged
