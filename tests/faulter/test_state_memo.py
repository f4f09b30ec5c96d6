"""The master walk's post-fault state memo against the reference.

A single-fault point whose state right after the faulted step equals
the golden state (the unfaulted step's) or an earlier point's at the
same offset takes that known outcome instead of running its suffix
(:mod:`repro.faulter.executor`).  The memoized engine must reproduce
the paper's fresh-machine protocol (:mod:`tests.reference`) exactly.
It runs on the precise tier and unreduced here, so a difference can
only come from the memo.  Negative controls drop the journaled bytes
and the IO state from the key on guests built so that each part
decides an outcome, and the comparison must then fail.
"""

import pytest

from repro.asm import assemble
from repro.emu.machine import Machine
from repro.faulter import (
    Faulter, MultiprocessBackend, SequentialBackend, executor)
from repro.faulter.space import ExhaustiveSpace, WindowedSpace
from repro.workloads import bootloader, pincheck
from tests.reference import reference_report

MODELS = ("skip", "bitflip", "reg-bitflip", "mem-bitflip", "flag-stuck",
          "branch-invert")
APPROACHES = ("faulter+patcher", "hybrid", "detour")
# the hybrid image's register and encoding spaces take the reference
# about 50 s in full; every 8th offset keeps them in tier-1 budget
STRIDED = {("hybrid", "reg-bitflip"), ("hybrid", "bitflip")}


def _images(workload):
    target = workload.target()
    images = {"original": target.exe}
    for approach in APPROACHES:
        images[approach] = target.harden(approach).hardened
    return {name: Faulter(exe, workload.good_input, workload.bad_input,
                          workload.grant_marker, name=name)
            for name, exe in images.items()}


@pytest.fixture(scope="module")
def pincheck_faulters():
    return _images(pincheck.workload())


@pytest.fixture(scope="module")
def bootloader_faulters():
    return _images(bootloader.workload())


def _memoized(faulter, model, space):
    return faulter.engine().run(
        model, space, backend=SequentialBackend(trace_compile=False),
        reduce=False, collect_outcomes=True)


def _check(faulter, model, space):
    assert _memoized(faulter, model, space) == reference_report(
        faulter, model, space, collect_outcomes=True)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("image", ("original",) + APPROACHES)
def test_pincheck_full_spaces(pincheck_faulters, image, model):
    faulter = pincheck_faulters[image]
    space = ExhaustiveSpace()
    if (image, model) in STRIDED:
        space = WindowedSpace(tuple(range(0, len(faulter.trace()), 8)))
    _check(faulter, model, space)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("image", ("original",) + APPROACHES)
def test_bootloader_trace_windows(bootloader_faulters, image, model):
    faulter = bootloader_faulters[image]
    length = len(faulter.trace())
    # both ends of the run and three offsets spread through it; the
    # reference runs every point from step 0
    offsets = (0, 1, length // 3, length // 2, 2 * length // 3,
               length - 2)
    _check(faulter, model, WindowedSpace(offsets))


def test_memo_hits_are_exact():
    report = pincheck.workload().target().campaign(("bitflip",))[
        "bitflip"]
    assert report.meta["memo_hits"] == 172
    assert report.meta["emulated_steps"] == 3331


def test_fleet_shards_merge_memo_hits():
    # a partition boundary inside an offset can only lose hits
    wl = pincheck.workload()
    faulter = Faulter(wl.build(), wl.good_input, wl.bad_input,
                      wl.grant_marker)
    report = faulter.run_campaign(
        "bitflip", backend=MultiprocessBackend(workers=2))
    assert 0 < report.meta["memo_hits"] <= 172


def test_one_machine_run_per_executed_point(monkeypatch):
    wl = pincheck.workload()
    faulter = Faulter(wl.build(), wl.good_input, wl.bad_input,
                      wl.grant_marker)
    calls = []
    run = Machine.run

    def counting_run(self, *args, **kwargs):
        if kwargs.get("fault_plan"):
            calls.append(kwargs["after_fault"])
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "run", counting_run)
    report = faulter.engine().run("bitflip", ExhaustiveSpace(),
                                  reduce=False)
    assert len(calls) == report.total_faults
    assert report.meta["memo_hits"] > 0
    assert all(hook is not None for hook in calls)


# -- negative controls --------------------------------------------------

_KEY = executor._state_key


def _without_memory(machine):
    return _KEY(machine)[:6]


def _without_io(machine):
    key = _KEY(machine)
    return key[:3] + key[6:]


_PROLOGUE = [
    ".section .text", ".global _start", "_start:",
    "    xor eax, eax", "    xor edi, edi", "    lea rsi, [rel buf]",
    "    mov edx, 1", "    syscall",
    "    lea rsi, [rel buf]", "    cmp byte ptr [rsi], 1",
    "    je grant",
]
_EPILOGUE = [
    "    mov eax, 60", "    mov edi, 1", "    syscall",
    "grant:",
    "    mov eax, 1", "    mov edi, 1", "    lea rsi, [rel ok]",
    "    mov edx, 2", "    syscall",
    "    mov eax, 60", "    xor edi, edi", "    syscall",
    ".section .data", 'ok: .ascii "OK"', 'n: .ascii "N"',
    ".section .bss", "buf: .zero 8", "flag: .zero 8",
]


def _write(label):
    return ["    mov eax, 1", "    mov edi, 1",
            f"    lea rsi, [rel {label}]", "    mov edx, 1", "    syscall"]


# A store of 0 to a zero flag leaves the golden memory unchanged; a
# flipped immediate makes the flag nonzero and the run grants, with
# registers, flags and IO equal to the golden state's.
MEMORY_GUEST = _PROLOGUE + [
    "    lea rdi, [rel flag]", "    mov byte ptr [rdi], 0",
    "    cmp byte ptr [rdi], 0", "    jne grant",
] + _EPILOGUE

# The bad input prints "ONK"; skipping the "N" write prints the "OK"
# marker.  rcx and r11 already hold what the syscall leaves there, so
# the skip differs from the golden state only in stdout.
IO_GUEST = _PROLOGUE + _write("ok") + [
    "    pushfq", "    pop r11", "    lea rcx, [rel after]",
    "    mov eax, 1", "    mov edi, 1", "    lea rsi, [rel n]",
    "    mov edx, 1", "    syscall", "after:",
] + _write("ok + 1") + _EPILOGUE


@pytest.mark.parametrize("source, model, key", [
    (MEMORY_GUEST, "bitflip", _without_memory),
    (IO_GUEST, "skip", _without_io),
])
def test_key_parts_decide_outcomes(monkeypatch, source, model, key):
    faulter = Faulter(assemble("\n".join(source)), b"\x01", b"\x00",
                      b"OK")
    space = ExhaustiveSpace()
    reference = reference_report(faulter, model, space,
                                 collect_outcomes=True)
    assert reference.successes
    assert _memoized(faulter, model, space) == reference
    monkeypatch.setattr(executor, "_state_key", key)
    assert _memoized(faulter, model, space) != reference
