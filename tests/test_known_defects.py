"""Known correctness defects, pinned as strict expected failures.

Each test asserts the correct behaviour.  ``strict=True`` turns a fix
into an XPASS failure, so a pin is removed together with its defect.
Both fixes change seed-0 campaign reports whose digests the benchmark
pins (``perfbench/expected.json``), so each lands with a refresh of
that file.
"""

import pytest

from repro.analysis.traceflow import derive_step_facts
from repro.api import Target
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


#: (trace offset, bitflip detail) of the faulter+patcher-hardened
#: pincheck's points that the elided load turns from crash to ignored
PATCHED_PINCHECK_ELIDED = {(4, (1,)), (5, (5,)), (5, (11,)), (5, (15,))}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason=JIT_LOAD_ELISION)
def test_jit_keeps_faulting_load_patched_pincheck():
    """The same defect on the faulter+patcher-hardened pincheck: four
    bitflips at trace offsets 4 and 5 report ``ignored`` where the
    reference crashes.  Every other point of the window must already
    match, so the defect cannot move unseen (a compiled block shared
    across addresses must not move it either)."""
    wl = pincheck.workload()
    exe = wl.target().harden("faulter+patcher").hardened
    faulter = Target(exe, wl.good_input, wl.bad_input,
                     wl.grant_marker).faulter()
    space = WindowedSpace(indices=(4, 5))
    report = faulter.engine().run("bitflip", space, reduce=False,
                                  collect_outcomes=True)
    reference = reference_report(faulter, "bitflip", space,
                                 collect_outcomes=True)
    wrong = {(got.fault.trace_index, got.fault.detail)
             for got, want in zip(report.all_outcomes,
                                  reference.all_outcomes)
             if got != want}
    if wrong != PATCHED_PINCHECK_ELIDED:
        pytest.fail(f"the elided-load points moved: {sorted(wrong)}")
    assert report == reference


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


#: bitflip bits at trace offset 19 (0x401049, ``lea rsp,[rsp+128]``) of
#: the faulter+patcher-hardened pincheck that an ``encoding-dead``
#: proof settles as ``ignored`` where the run crashes
HARDENED_LEA_DEAD_BITS = {0, 24, 26, 28, *range(45, 64)}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason=BASE_READ_DROPPED)
def test_encoding_proof_keeps_the_base_read_hardened_pincheck():
    """The same defect in a reduced campaign, on the image the
    benchmark's evaluate stage hardens: 23 bitflips of the ``lea`` at
    trace offset 19 get ``encoding-dead`` proofs settling at step 23,
    whose ``lea rsp,[rsp-128]`` is taken not to read rsp, so they
    report ``ignored``; the unreduced run and the reference crash.
    Every other point of the offset must already match, so the defect
    cannot move unseen."""
    wl = pincheck.workload()
    exe = wl.target().harden(
        "faulter+patcher", fault_models=("skip", "bitflip")).hardened
    faulter = Target(exe, wl.good_input, wl.bad_input,
                     wl.grant_marker).faulter()
    space = WindowedSpace(indices=(19,))
    assert faulter.trace()[19] == 0x401049
    report = faulter.engine().run("bitflip", space, collect_outcomes=True)
    reference = reference_report(faulter, "bitflip", space,
                                 collect_outcomes=True)
    assert faulter.engine().run("bitflip", space, reduce=False,
                                collect_outcomes=True) == reference
    wrong = {got.fault.detail[0]
             for got, want in zip(report.all_outcomes,
                                  reference.all_outcomes)
             if got != want}
    if wrong != HARDENED_LEA_DEAD_BITS:
        pytest.fail(f"the unsound encoding proofs moved: {sorted(wrong)}")
    assert report == reference
