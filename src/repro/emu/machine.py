"""Machine: ELF loading, the run loop, tracing and fault effects.

This is the faulter's execution vehicle.  ``Machine.run`` supports:

* instruction tracing (the list of executed instruction addresses, which
  the faulter enumerates to place faults),
* *fault effects*: at each dynamic step named by the fault plan, one
  :class:`~repro.emu.effects.FaultEffect` is applied — a fetch-stage
  effect substitutes or drops the fetched instruction (bit flip in the
  encoding, instruction skip), a state-stage effect corrupts
  registers/flags/memory/PC around the step,
* CPU/IO snapshotting which, combined with the memory write journal,
  substitutes for the paper's per-fault ``fork()``.

The decode cache is coherent under code mutation: any write landing in
an executable page — a guest's self-modifying store, an injected
memory fault, or a journal rollback undoing either — evicts the
overlapping cached decodes.  A miss decodes through the process-wide
memo of :func:`~repro.emu.effects.decode_window`, keyed by the whole
fetch window, which no write can make stale.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.binfmt.image import Executable
from repro.binfmt.reader import read_elf
from repro.emu.cpu import CPU, ExitProgram, Halt
from repro.emu.effects import as_effect, decode_window
from repro.emu.memory import Memory
from repro.emu.syscalls import IOState, SyscallHandler
from repro.errors import DecodingError, EmulationError
from repro.isa.insn import Instruction

STACK_TOP = 0x7FFF_F000
STACK_SIZE = 0x10000
DEFAULT_MAX_STEPS = 200_000

# Outcome reasons
EXIT = "exit"
HALT = "hlt"
CRASH = "crash"
MAX_STEPS = "max-steps"


@dataclass
class RunResult:
    """Observable outcome of one guest execution."""

    reason: str
    exit_code: Optional[int] = None
    stdout: bytes = b""
    stderr: bytes = b""
    steps: int = 0
    crash_detail: str = ""
    trace: list[int] = field(default_factory=list)
    # watched guest memory, captured at run end for memory-predicate
    # oracles: {(address, size): bytes}; ranges that were unmapped
    # when the run finished are simply absent
    memory: dict = field(default_factory=dict)

    @property
    def crashed(self) -> bool:
        return self.reason in (CRASH, MAX_STEPS)

    def behavior(self) -> tuple:
        """The equality key the fault oracle compares runs with."""
        return (self.reason, self.exit_code, bytes(self.stdout))

    def __str__(self):
        out = self.stdout.decode("latin-1", "replace").strip()
        return (f"RunResult({self.reason}, code={self.exit_code}, "
                f"steps={self.steps}, stdout={out!r})")


def _exec_write_hook(machine: "Machine") -> Callable[[int, int], None]:
    """The memory's exec-write hook for ``machine``, holding it weakly:
    a bound method would make every machine, with its trace compiler
    and compiled blocks, a reference cycle that only the cyclic
    collector frees."""
    machine_ref = weakref.ref(machine)

    def hook(address: int, size: int) -> None:
        owner = machine_ref()
        if owner is not None:
            owner._on_exec_write(address, size)

    return hook


class Machine:
    """A loaded guest program ready to run."""

    def __init__(self, image: Executable | bytes, stdin: bytes = b""):
        if isinstance(image, (bytes, bytearray)):
            image = read_elf(bytes(image))
        self.image = image
        self.memory = Memory()
        for section in image.sections:
            flags = section.flags
            if section.nobits:
                self.memory.map(section.addr, section.mem_size, flags)
            else:
                self.memory.load(section.addr, section.data, flags)
                if section.mem_size > len(section.data):
                    self.memory.map(section.addr + len(section.data),
                                    section.mem_size - len(section.data),
                                    flags)
        self.memory.map(STACK_TOP - STACK_SIZE, STACK_SIZE, "rw")
        self.io = IOState(stdin)
        self.cpu = CPU(self.memory)
        self.cpu.rip = image.entry
        self.cpu.regs[4] = STACK_TOP - 0x1000  # rsp with headroom
        self.cpu.syscall_handler = SyscallHandler(self.io)
        self._decode_cache: dict[int, Instruction] = {}
        # Optional trace compiler (emu.jit.TraceCompiler); attached by
        # the engine, shared across per-fault machine resets.
        self.jit = None
        self.memory.exec_write_hook = _exec_write_hook(self)

    def _on_exec_write(self, address: int, size: int) -> None:
        """A write landed in an executable page: evict stale decodes.

        Without this, a memory-corrupting fault or a self-modifying
        store would keep executing the pre-write decode of the
        clobbered bytes.  Entries are matched by their decoded length,
        so only decodes actually overlapping the written range drop.
        The JIT is notified last: it may abort a compiled block that
        just modified its own bytes.
        """
        cache = self._decode_cache
        if cache:
            end = address + size
            stale = [cached_address
                     for cached_address, insn in cache.items()
                     if cached_address < end
                     and address < cached_address + (insn.length or 15)]
            for cached_address in stale:
                del cache[cached_address]
        if self.jit is not None:
            self.jit.on_exec_write(address, size)

    # -- snapshot/restore (fork substitute) ------------------------------

    def snapshot(self):
        """Capture CPU + I/O state; pair with ``memory.journal_begin``."""
        cpu = self.cpu
        return (list(cpu.regs), cpu.rip, cpu.flags.copy(),
                self.io.snapshot())

    def restore(self, state):
        regs, rip, flags, io_state = state
        cpu = self.cpu
        cpu.regs = list(regs)
        cpu.rip = rip
        cpu.flags = flags.copy()
        self.io.restore(io_state)

    # -- execution ---------------------------------------------------------

    def fetch_decode(self, address: int) -> Instruction:
        cached = self._decode_cache.get(address)
        if cached is not None:
            return cached
        # a miss decodes through the process-wide memo, so a fresh
        # machine on the same image decodes no window again
        instruction = decode_window(address, self.memory.fetch(address, 15))
        self._decode_cache[address] = instruction
        return instruction

    def run(self,
            max_steps: int = DEFAULT_MAX_STEPS,
            record_trace: bool = False,
            fault_plan: Optional[dict] = None,
            watches: tuple = (),
            after_fault: Optional[Callable[[], Optional[RunResult]]]
            = None) -> RunResult:
        """Run until exit/halt/crash or ``max_steps``.

        ``fault_plan`` maps dynamic instruction indices (0-based) to
        the :class:`~repro.emu.effects.FaultEffect` applied there (the
        paper notes the faulter is parametric in "the number of faults
        injected per run").  An effect that returns a replacement
        instruction has it executed in place of the fetched one; an
        effect that consumes the step (skip, forced branch) advances
        the PC itself.

        ``watches`` is a tuple of ``(address, size)`` guest ranges to
        capture (permission-blind) into ``RunResult.memory`` when the
        run finishes — however it finishes — so memory-predicate
        oracles can classify the end state.

        ``after_fault`` is called after each planned step that did not
        stop the run; a :class:`RunResult` it returns ends the run as
        that result (the master walk's post-fault state memo), so the
        faulted step and its continuation share this loop's stop
        handling.
        """
        cpu = self.cpu
        trace: list[int] = []
        steps = 0
        reason, exit_code, detail = MAX_STEPS, None, ""
        plan = fault_plan or None
        # Compiled fast path: disabled while tracing (every executed
        # address must be observed) — fault steps and the step budget
        # bound each burst below.
        jit = self.jit if not record_trace else None
        # the planned steps a compiled burst must stop at, soonest last
        ahead: list = []
        if plan:
            for entry in plan.values():
                as_effect(entry)
            if jit is not None:
                ahead = (list(plan) if len(plan) == 1
                         else sorted(plan, reverse=True))
        try:
            while steps < max_steps:
                rip = cpu.rip
                if record_trace:
                    trace.append(rip)
                if jit is not None:
                    stop = max_steps
                    if ahead:
                        while ahead and ahead[-1] < steps:
                            ahead.pop()
                        if ahead and ahead[-1] < stop:
                            stop = ahead[-1]
                    # a PC known uncompilable would run nothing
                    if stop > steps and jit.runnable(rip):
                        advanced = jit.execute(self, stop - steps)
                        if advanced:
                            steps += advanced
                            continue
                try:
                    instruction = self.fetch_decode(rip)
                    effect = plan.get(steps) if plan else None
                    if effect is not None:
                        # None: the effect consumed the step (skip /
                        # forced branch) and set the next PC
                        instruction = effect.apply(self, instruction)
                    if instruction is not None:
                        cpu.execute(instruction)
                except DecodingError as exc:
                    raise EmulationError(f"invalid opcode at {rip:#x}: "
                                         f"{exc}") from exc
                steps += 1
                if effect is not None and after_fault is not None:
                    known = after_fault()
                    if known is not None:
                        return known
        except ExitProgram as exc:
            reason, exit_code = EXIT, exc.code
        except Halt:
            reason = HALT
        except EmulationError as exc:
            reason, detail = CRASH, str(exc)
        io = self.io
        return RunResult(
            reason,
            exit_code,
            bytes(io.stdout),
            bytes(io.stderr),
            steps,
            detail,
            trace,
            self._capture_watches(watches) if watches else {},
        )

    def _capture_watches(self, watches: tuple) -> dict:
        """Permission-blind reads of the watched ranges (run end)."""
        captured: dict = {}
        for address, size in watches or ():
            try:
                captured[(address, size)] = self.memory.peek(
                    address, size)
            except EmulationError:
                pass  # unmapped at run end: the oracle sees no value
        return captured


def run_executable(image: Executable | bytes, stdin: bytes = b"",
                   max_steps: int = DEFAULT_MAX_STEPS,
                   record_trace: bool = False,
                   watches: tuple = ()) -> RunResult:
    """One-shot convenience: load ``image`` and run it."""
    machine = Machine(image, stdin=stdin)
    return machine.run(max_steps=max_steps, record_trace=record_trace,
                       watches=watches)


def run_inputs(image: Executable | bytes, inputs) -> tuple:
    """One :func:`run_executable` per stdin of ``inputs``, in order."""
    return tuple(run_executable(image, stdin=stdin) for stdin in inputs)
