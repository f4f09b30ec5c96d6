"""Dataflow analyses over recovered modules."""

from repro.analysis import FlagLiveness
from repro.asm import assemble
from repro.disasm import disassemble
from repro.isa.insn import Mnemonic
from repro.isa.registers import reg
from tests.duplication import RegisterLiveness


def module_of(source):
    return disassemble(assemble(source))


FLAGS_PROGRAM = """
.text
.global _start
_start:
    mov rbx, 5
    cmp rbx, 5          # flags live until the jcc
    mov rdx, 1          # mov does not kill flags
    je yes
    mov rdi, 0
    jmp done
yes:
    mov rdi, 1
done:
    mov rax, 60
    syscall
"""


class TestFlagLiveness:
    def test_live_between_cmp_and_jcc(self):
        module = module_of(FLAGS_PROGRAM)
        liveness = FlagLiveness(module)
        block = module.text().code_blocks()[0]
        cmp_index = next(i for i, e in enumerate(block.entries)
                         if e.insn.mnemonic is Mnemonic.CMP)
        assert liveness.live_after(block, cmp_index)

    def test_dead_after_consuming_branch(self):
        module = module_of(FLAGS_PROGRAM)
        liveness = FlagLiveness(module)
        # in the 'yes' block nothing reads flags before the exit
        yes_block = module.symbol("yes").referent
        assert not liveness.live_in(yes_block)

    def test_dead_before_writer(self):
        source = """
        .text
        .global _start
        _start:
            mov rbx, 1      # flags dead here: cmp below rewrites them
            cmp rbx, 1
            je out
        out:
            mov rax, 60
            mov rdi, 0
            syscall
        """
        module = module_of(source)
        liveness = FlagLiveness(module)
        block = module.text().code_blocks()[0]
        assert not liveness.live_after(block, 0)


class TestRegisterLiveness:
    def test_dead_register_is_reported(self):
        source = """
        .text
        .global _start
        _start:
            mov rbx, 7
            mov rdi, rbx
            mov rax, 60
            syscall
        """
        module = module_of(source)
        liveness = RegisterLiveness(module)
        block = module.text().code_blocks()[0]
        # after the last use of rbx it is dead
        dead = liveness.dead_after(block, 1)
        assert reg("rbx") in dead
        # but alive right after its definition
        assert reg("rbx") in liveness.live_after(block, 0)

    def test_loop_keeps_counter_alive(self):
        from repro.workloads import pincheck
        module = disassemble(pincheck.build())
        liveness = RegisterLiveness(module)
        loop_block = next(
            b for b in module.text().code_blocks()
            if any(e.insn.mnemonic is Mnemonic.INC for e in b.entries))
        inc_index = next(i for i, e in enumerate(loop_block.entries)
                         if e.insn.mnemonic is Mnemonic.INC)
        assert reg("rcx") in liveness.live_after(loop_block, inc_index)
