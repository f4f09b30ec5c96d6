"""Known correctness defects, pinned as strict expected failures.

Each test asserts the correct behaviour.  ``strict=True`` turns a fix
into an XPASS failure, so a pin is removed together with its defect.
Both fixes change seed-0 campaign reports whose digests the benchmark
pins (``perfbench/expected.json``), so each lands with a refresh of
that file.
"""

import pytest

from repro.analysis.traceflow import derive_step_facts
from repro.asm import assemble
from repro.emu.machine import Machine
from repro.faulter.space import WindowedSpace
from repro.isa.registers import reg
from repro.workloads import bootloader, pincheck
from tests.reference import reference_report

JIT_LOAD_ELISION = (
    "emu/jit/lift.py runs dce with remove_dead_loads=True: once "
    "flag_materialization prunes a dead `test` marker, its guest load "
    "is erased together with the memory fault it would raise")

BASE_READ_DROPPED = (
    "derive_step_facts marks a write-only destination value-independent "
    "even when the same register is the address base it reads")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason=JIT_LOAD_ELISION)
def test_jit_keeps_faulting_load_bootloader():
    """Bitflip bit 5 of the ``cmp`` at 0x401016 turns it into a 5-byte
    ``push imm32``; the next fetch decodes a ``test`` whose memory read
    faults, so the run must crash."""
    faulter = bootloader.workload().target().faulter()
    space = WindowedSpace(indices=(5,))
    assert faulter.trace()[5] == 0x401016
    report = faulter.engine().run("bitflip", space, reduce=False,
                                  collect_outcomes=True)
    assert report == reference_report(faulter, "bitflip", space,
                                      collect_outcomes=True)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason=JIT_LOAD_ELISION)
def test_jit_keeps_faulting_load_rich_pincheck():
    faulter = pincheck.workload(rich=True).target().faulter()
    report = faulter.engine().run("bitflip", WindowedSpace(
        indices=(25, 26, 29, 30)), reduce=False)
    assert report == reference_report(
        faulter, "bitflip", WindowedSpace(indices=(25, 26, 29, 30)))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason=BASE_READ_DROPPED)
@pytest.mark.parametrize("source, base", [
    ("lea rsp, [rsp-128]", "rsp"),
    ("mov rax, [rax+8]", "rax"),
    ("movzx eax, byte ptr [rax]", "rax"),
])
def test_address_base_is_a_read(source, base):
    exe = assemble(f".text\n.globl _start\n_start:\n    {source}\n")
    insn = Machine(exe).fetch_decode(exe.entry)
    assert reg(base).code in derive_step_facts(insn).reads
