"""Table III — local protection pattern for conditional jumps.

Regenerates the protected listing (set<cc> verification on both edges,
re-executed jump) and verifies that condition-inverting faults are
caught.
"""

from conftest import once

from repro.asm import assemble
from repro.disasm import disassemble, reassemble
from repro.disasm.pprint import render_instruction
from repro.emu import Machine, run_executable
from repro.emu.effects import BranchInvertEffect
from repro.isa.insn import Mnemonic
from repro.patcher import Patcher

SOURCE = """
.text
.global _start
_start:
    mov rbx, 3
    cmp rbx, 5
    je equal            # not taken for 3 != 5
    mov rdi, 7
    jmp done
equal:
    mov rdi, 9
done:
    mov rax, 60
    syscall
"""


def _protect_jump():
    module = disassemble(assemble(SOURCE))
    patcher = Patcher(module)
    target = next(
        entry
        for block in module.text().code_blocks()
        for entry in block.entries
        if entry.insn.mnemonic is Mnemonic.JCC and not entry.protected)
    assert patcher.patch_entry(target)
    return module


def test_table3(benchmark, record):
    module = once(benchmark, _protect_jump)

    lines = []
    for block in module.text().code_blocks():
        names = [s.name for s in module.symbols_for(block)]
        for name in names:
            lines.append(f"{name}:")
        lines.extend("    " + render_instruction(e)
                     for e in block.entries)
        if len(lines) > 40:
            break
    record("table3_jcc_pattern",
           "TABLE III: local protection for conditional jumps\n"
           + "\n".join(lines[:40]))

    rendered = "\n".join(lines)
    assert "sete cl" in rendered          # set<cond> cl
    assert "cmp cl, 0" in rendered        # fall-through expects false
    assert "cmp cl, 1" in rendered        # taken edge expects true
    assert "push rcx" in rendered
    assert rendered.count("fi_faulthandler") >= 4

    rebuilt = reassemble(module)
    assert run_executable(rebuilt).exit_code == 7  # branch not taken

    # attack: invert the protected branch's condition (je -> jne); the
    # edge validation must catch the inconsistency
    machine = Machine(rebuilt)
    trace = machine.run(record_trace=True).trace
    jcc_steps = [i for i, addr in enumerate(trace)
                 if machine.fetch_decode(addr).mnemonic is Mnemonic.JCC]

    caught = 0
    for step in jcc_steps:
        result = Machine(rebuilt).run(
            fault_plan={step: BranchInvertEffect()})
        if result.exit_code == 42:
            caught += 1
        else:
            assert result.exit_code == 7, (
                f"inverting the jcc at step {step} changed behaviour "
                f"without detection: {result}")
    assert caught >= 1
