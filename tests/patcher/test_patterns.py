"""Pattern-level tests: each Table I-III pattern in isolation."""

from repro.disasm import disassemble, reassemble
from repro.emu import run_executable
from repro.faulter import Faulter
from repro.gtirb.ir import InsnEntry
from repro.isa.insn import Mnemonic
from repro.patcher import Patcher
from repro.workloads import pincheck
from repro.asm import assemble


def harden_instructions(exe, predicate):
    """Disassemble, patch every instruction matching ``predicate``."""
    module = disassemble(exe)
    patcher = Patcher(module)
    targets = [
        entry
        for block in module.text().code_blocks()
        for entry in list(block.entries)
        if predicate(entry)
    ]
    applied = sum(patcher.patch_entry(e) for e in targets)
    return module, patcher, applied


class TestMovPattern:
    SOURCE = """
    .text
    .global _start
    _start:
        mov rax, qword ptr [value]     # protected load
        mov rdi, rax
        mov rax, 60
        syscall
    .data
    value: .quad 7
    """

    def test_protected_load_still_works(self):
        exe = assemble(self.SOURCE)
        module, patcher, applied = harden_instructions(
            exe, lambda e: e.insn.mnemonic is Mnemonic.MOV
            and not e.protected)
        assert applied >= 1
        hardened = reassemble(module)
        result = run_executable(hardened)
        assert result.exit_code == 7

    def test_pattern_adds_faulthandler(self):
        exe = assemble(self.SOURCE)
        module, patcher, _ = harden_instructions(
            exe, lambda e: e.insn.mnemonic is Mnemonic.MOV)
        assert module.has_symbol("fi_faulthandler")
        assert module.has_symbol("fi_fault_msg")

    def test_self_referencing_load_not_patched(self):
        source = """
        .text
        .global _start
        _start:
            lea rax, [rel value]
            mov rax, qword ptr [rax]    # dst is also the base: no pattern
            mov rdi, rax
            mov rax, 60
            syscall
        .data
        value: .quad 3
        """
        exe = assemble(source)
        module = disassemble(exe)
        patcher = Patcher(module)
        _, block, index = module.find_instruction(0x401007)
        entry = block.entries[index]
        assert entry.insn.mnemonic is Mnemonic.MOV
        assert not patcher.patch_entry(entry)


class TestCmpPattern:
    def test_cmp_protection_preserves_semantics(self):
        wl = pincheck.workload()
        exe = wl.build()
        module, patcher, applied = harden_instructions(
            exe, lambda e: e.insn.mnemonic is Mnemonic.CMP)
        assert applied >= 3
        hardened = reassemble(module)
        good = run_executable(hardened, stdin=wl.good_input)
        bad = run_executable(hardened, stdin=wl.bad_input)
        assert wl.grant_marker in good.stdout
        assert b"DENIED" in bad.stdout

    def test_final_flags_match_original(self):
        # flags after the pattern must equal the original compare flags
        source = """
        .text
        .global _start
        _start:
            mov rax, 3
            cmp rax, 5          # patched: CF should survive (3 < 5)
            setb cl
            movzx rdi, cl
            mov rax, 60
            syscall
        """
        exe = assemble(source)
        module, patcher, applied = harden_instructions(
            exe, lambda e: e.insn.mnemonic is Mnemonic.CMP)
        assert applied == 1
        result = run_executable(reassemble(module))
        assert result.exit_code == 1


class TestJccPattern:
    def test_jcc_protection_preserves_both_paths(self):
        wl = pincheck.workload()
        exe = wl.build()
        module, patcher, applied = harden_instructions(
            exe, lambda e: e.insn.mnemonic is Mnemonic.JCC)
        assert applied >= 3
        hardened = reassemble(module)
        good = run_executable(hardened, stdin=wl.good_input)
        bad = run_executable(hardened, stdin=wl.bad_input)
        assert wl.grant_marker in good.stdout
        assert b"DENIED" in bad.stdout

    def test_skip_of_protected_branch_is_detected(self):
        wl = pincheck.workload()
        exe = wl.build()
        module, patcher, _ = harden_instructions(
            exe, lambda e: e.insn.mnemonic is Mnemonic.JCC)
        hardened = reassemble(module)
        faulter = Faulter(hardened, wl.good_input, wl.bad_input,
                          wl.grant_marker, name="jcc-hardened")
        report = faulter.run_campaign("skip")
        vulnerable_jcc = [p for p in report.vulnerable_points()
                          if p.mnemonic.startswith("j")]
        assert not vulnerable_jcc


class TestPatcherBookkeeping:
    def test_protected_entries_refused(self):
        wl = pincheck.workload()
        module = disassemble(wl.build())
        patcher = Patcher(module)
        block = module.text().code_blocks()[0]
        entry = block.entries[0]
        entry.protected = True
        assert not patcher.patch_entry(entry)
        assert patcher.log[-1].reason == "already protected"

    def test_faulthandler_injected_once(self):
        wl = pincheck.workload()
        module = disassemble(wl.build())
        patcher = Patcher(module)
        first = patcher.ensure_faulthandler()
        second = patcher.ensure_faulthandler()
        assert first is second

    def test_faulthandler_exits_42(self):
        source = """
        .text
        .global _start
        _start:
            jmp fi_faulthandler
        """
        module = disassemble(assemble(
            source.replace("jmp fi_faulthandler", "nop\n    mov rax, 60\n"
                           "    mov rdi, 0\n    syscall")))
        patcher = Patcher(module)
        handler = patcher.ensure_faulthandler()
        # redirect the program into the handler
        from repro.gtirb.ir import SymExpr
        from repro.isa.insn import Instruction
        from repro.isa.operands import Imm
        block = module.text().code_blocks()[0]
        block.entries[0] = InsnEntry(
            Instruction(Mnemonic.JMP, (Imm(0, 4),)),
            {0: SymExpr("branch", handler)})
        result = run_executable(reassemble(module))
        assert result.exit_code == 42
        assert b"FAULT DETECTED" in result.stderr
