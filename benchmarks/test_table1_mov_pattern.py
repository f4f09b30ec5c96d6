"""Table I — local protection pattern for ``mov`` operations.

Regenerates the original/protected listings and verifies the pattern's
semantics: the protected load still works, and a corrupted destination
diverts into the fault handler.
"""

from conftest import once

from repro.asm import assemble
from repro.disasm import disassemble, reassemble
from repro.disasm.pprint import render_instruction
from repro.emu import Machine, run_executable
from repro.emu.effects import SkipEffect
from repro.isa.insn import Mnemonic
from repro.patcher import Patcher

SOURCE = """
.text
.global _start
_start:
    mov rax, qword ptr [value]
    mov rdi, rax
    mov rax, 60
    syscall
.data
value: .quad 7
"""


def _protect_first_load():
    module = disassemble(assemble(SOURCE))
    patcher = Patcher(module)
    block = module.text().code_blocks()[0]
    target = block.entries[0]
    assert patcher.patch_entry(target)
    return module, target


def test_table1(benchmark, record):
    module, target = once(benchmark, _protect_first_load)

    # regenerate the table: original vs protected listing
    protected_block = module.text().code_blocks()[0]
    lines = [render_instruction(e) for e in protected_block.entries]
    following = module.text().code_blocks()[1]
    lines += [render_instruction(e) for e in following.entries[:1]]
    table = [
        "TABLE I: local protection pattern for mov operations",
        "  original              | protected",
        "  --------------------- | ---------------------------",
    ]
    original = ["mov rax, qword ptr [value]", "(happyflow) ..."]
    for index in range(max(len(original), len(lines))):
        left = original[index] if index < len(original) else ""
        right = lines[index] if index < len(lines) else ""
        table.append(f"  {left:<21} | {right}")
    record("table1_mov_pattern", "\n".join(table))

    # the pattern shape: mov; cmp; je happyflow; call faulthandler
    mnems = [e.insn.mnemonic for e in protected_block.entries]
    assert mnems[:3] == [Mnemonic.MOV, Mnemonic.CMP, Mnemonic.JCC]
    assert protected_block.entries[-1].insn.mnemonic is Mnemonic.CALL

    # semantics: the protected binary still computes exit code 7
    rebuilt = reassemble(module)
    assert run_executable(rebuilt).exit_code == 7

    # fault detection: corrupt the loaded value right after the mov and
    # observe the fault handler firing (exit 42)
    machine = Machine(rebuilt)
    trace = machine.run(record_trace=True).trace
    mov_step = 0  # the protected mov is the first instruction
    machine2 = Machine(rebuilt)
    result = machine2.run(fault_plan={mov_step: SkipEffect()})
    assert result.exit_code == 42  # faulthandler detected the fault
    assert b"FAULT DETECTED" in result.stderr
