"""Table II — local protection pattern for ``cmp`` operations.

Regenerates the protected listing (red-zone hop, duplicated compare,
RFLAGS snapshot comparison) and verifies both the preserved semantics
and the fault-detection behaviour.
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
    mov rbx, 3
    mov rcx, 5
    cmp rbx, rcx
    setb dil            # rdi = 1 iff 3 < 5
    movzx rdi, dil
    mov rax, 60
    syscall
"""


def _protect_compare():
    module = disassemble(assemble(SOURCE))
    patcher = Patcher(module)
    block = module.text().code_blocks()[0]
    target = next(e for e in block.entries
                  if e.insn.mnemonic is Mnemonic.CMP)
    assert patcher.patch_entry(target)
    return module


def test_table2(benchmark, record):
    module = once(benchmark, _protect_compare)

    blocks = module.text().code_blocks()
    lines = []
    for block in blocks[:3]:
        lines.extend(render_instruction(e) for e in block.entries)
    table = [
        "TABLE II: local protection pattern for cmp operations",
        "  original: cmp rbx, rcx",
        "  protected:",
    ] + [f"    {line}" for line in lines]
    record("table2_cmp_pattern", "\n".join(table))

    rendered = "\n".join(lines)
    # pattern ingredients from the paper listing
    assert "lea rsp, qword ptr [rsp-128]" in rendered  # red-zone hop
    assert rendered.count("cmp rbx, rcx") >= 2         # duplicated cmp
    assert "pushfq" in rendered                        # flag snapshots
    assert "qword ptr [rsp]" in rendered               # snapshot compare

    # semantics: CF must survive the pattern (3 < 5 -> exit 1)
    rebuilt = reassemble(module)
    assert run_executable(rebuilt).exit_code == 1

    # fault detection: flip the first compare into a different compare
    # (bit flips on its ModRM) and check for detection or harmlessness
    machine = Machine(rebuilt)
    trace = machine.run(record_trace=True).trace
    # exit code 1 == 'grant marker' proxy: reuse campaign machinery by
    # defining the marker as the setb-true exit path output (none), so
    # instead verify by direct skip injection on the duplicated cmp:
    protected_block = module.text().code_blocks()[0]
    cmp_steps = [i for i, addr in enumerate(trace)
                 if machine.fetch_decode(addr).mnemonic is Mnemonic.CMP]
    detected = 0
    for step in cmp_steps[:2]:  # the two duplicated compares
        m2 = Machine(rebuilt)
        result = m2.run(fault_plan={step: SkipEffect()})
        if result.exit_code == 42:
            detected += 1
        else:
            assert result.exit_code == 1  # fault was harmless
    assert detected >= 1
