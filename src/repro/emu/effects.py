"""Fault effects: what one injected fault does to the machine.

A fault plan (``Machine.run(fault_plan=...)``) maps dynamic steps to
:class:`FaultEffect` objects, the machine's only injection primitive.
It covers encoding glitches as well as the state perturbations real
campaign tools evaluate — register corruption, flag upsets, data
faults, forced branches:

* :class:`FetchEffect` — substitute or drop the fetched instruction
  (skip and encoding corruption live here),
* :class:`StateEffect` — mutate CPU registers, flags, memory or the
  PC *around* one dynamic step; the instruction then executes on the
  corrupted state (or not at all, for PC-stage effects).

``Machine.run`` applies at most one effect per dynamic step, right
after the fetch: an effect is a pure function of the machine state at
its step, which is what makes snapshot replay and cross-process
re-execution bit-identical.

Effects are constructed in-process by fault models
(:meth:`repro.faulter.models.FaultModel.effect`) and never cross a
pickle boundary — the picklable unit stays the ``(model name, detail
tuple)`` pair.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.emu.cpu import branch_target
from repro.errors import DecodingError
from repro.isa.decoder import decode
from repro.isa.insn import Instruction, Mnemonic
from repro.isa.operands import Mem

# Effect stages (reported by models in docs and diagnostics).
FETCH_STAGE = "fetch"
STATE_STAGE = "state"

#: Capacity of the process-wide mutated-decode memo, evicted LRU-first;
#: about 1.2x the distinct windows of the largest bundled evaluate
#: (bootloader hybrid, 6,744), at ~0.5 kB per entry.
DECODE_CAPACITY = 8192

# (address, fetch window) -> Instruction, or the DecodingError message
_DECODED: OrderedDict = OrderedDict()


def decode_window(address: int, window: bytes) -> Instruction:
    """Decode a (possibly mutated) fetch window placed at ``address``.

    Memoized process-wide on the whole window, not just the original
    instruction's bytes, since a mutation may lengthen the instruction
    into the bytes that follow.  An undecodable window raises a fresh
    :class:`~repro.errors.DecodingError` with the original message on
    every call.
    """
    key = (address, window)
    entry = _DECODED.get(key)
    if entry is None:
        try:
            entry = decode(window, 0, address)
        except DecodingError as error:
            entry = str(error)
        _DECODED[key] = entry
        if len(_DECODED) > DECODE_CAPACITY:
            _DECODED.popitem(last=False)
    else:
        _DECODED.move_to_end(key)
    if isinstance(entry, str):
        raise DecodingError(entry)
    return entry


class FaultEffect:
    """Protocol: one injected fault applied at one dynamic step."""

    stage = "abstract"

    def apply(self, machine, insn: Instruction) -> Optional[Instruction]:
        """Apply the effect at the faulted step.

        ``insn`` is the instruction decoded at the current PC (under
        multi-fault plans it may differ from the instruction that was
        traced there).  Returns the instruction the machine should
        execute — the original, or a substitute — or ``None`` when the
        effect consumed the step itself, in which case it must leave
        ``machine.cpu.rip`` pointing at the next instruction to fetch.

        May raise :class:`~repro.errors.DecodingError` or
        :class:`~repro.errors.EmulationError`; the machine surfaces
        both as a crash outcome.
        """
        raise NotImplementedError


# ---------------------------------------------------------------------------
# fetch-stage effects
# ---------------------------------------------------------------------------


class FetchEffect(FaultEffect):
    """Substitute or drop the fetched instruction before execution."""

    stage = FETCH_STAGE


class SkipEffect(FetchEffect):
    """The classic glitch: the instruction is fetched, never executed."""

    def apply(self, machine, insn):
        machine.cpu.rip = insn.address + insn.length
        return None


class ReplaceEffect(FetchEffect):
    """Execute a pre-built replacement instruction instead."""

    def __init__(self, replacement: Instruction):
        self.replacement = replacement

    def apply(self, machine, insn):
        return self.replacement


class EncodingBitFlipEffect(FetchEffect):
    """Flip one bit of the fetched encoding and re-decode in place.

    The mutated bytes may form a different valid instruction (possibly
    of a different length, consuming following bytes — as on silicon)
    or an invalid one, which crashes the run.
    """

    def __init__(self, bit: int):
        self.bit = bit

    def apply(self, machine, insn):
        raw = bytearray(machine.memory.fetch(insn.address, 15))
        raw[self.bit // 8] ^= 1 << (self.bit % 8)
        return decode_window(insn.address, bytes(raw))


class EncodingStuckByteEffect(FetchEffect):
    """One encoding byte reads as 0x00 (stuck-at-zero bus fault)."""

    def __init__(self, index: int):
        self.index = index

    def apply(self, machine, insn):
        raw = bytearray(machine.memory.fetch(insn.address, 15))
        raw[self.index] = 0
        return decode_window(insn.address, bytes(raw))


def as_effect(value) -> FaultEffect:
    """Check that a plan entry is a :class:`FaultEffect`."""
    if isinstance(value, FaultEffect):
        return value
    raise TypeError(f"not a fault effect: {value!r}")


# ---------------------------------------------------------------------------
# state-stage effects
# ---------------------------------------------------------------------------


class StateEffect(FaultEffect):
    """Mutate machine state; the instruction then executes on it."""

    stage = STATE_STAGE

    def mutate(self, machine, insn: Instruction) -> None:
        raise NotImplementedError

    def apply(self, machine, insn):
        self.mutate(machine, insn)
        return insn


class RegisterBitFlipEffect(StateEffect):
    """Flip one bit of one 64-bit GPR just before the step executes."""

    def __init__(self, code: int, bit: int):
        self.code = code
        self.bit = bit

    def mutate(self, machine, insn):
        machine.cpu.regs[self.code] ^= 1 << self.bit


class FlagForceEffect(StateEffect):
    """Force one status flag to a fixed value (stuck-at upset)."""

    def __init__(self, flag: str, value: int):
        self.flag = flag
        self.value = bool(value)

    def mutate(self, machine, insn):
        setattr(machine.cpu.flags, self.flag, self.value)


class MemoryBitFlipEffect(StateEffect):
    """Flip one bit of the cell a memory operand is about to access.

    The effective address is resolved against the *current* machine
    state, exactly like the access itself would; the corrupted byte is
    written permission-blind (a physical upset does not consult the
    MMU) but journaled, so snapshot rollback observes it.  If the
    instruction at the step carries no memory operand (possible only
    under multi-fault corruption), the effect has no substrate and is
    a deterministic no-op.
    """

    def __init__(self, ordinal: int, bit: int):
        self.ordinal = ordinal
        self.bit = bit

    def mutate(self, machine, insn):
        mems = [op for op in insn.operands if isinstance(op, Mem)]
        if self.ordinal >= len(mems):
            return
        mem = mems[self.ordinal]
        address = machine.cpu.effective_address(mem, insn) + self.bit // 8
        cell = machine.memory.peek(address, 1)[0] ^ (1 << (self.bit % 8))
        machine.memory.poke(address, bytes((cell,)))


class BranchInvertEffect(StateEffect):
    """Invert a conditional branch: taken becomes fall-through and
    vice versa.  Consumes the step (the branch never "executes"; the
    PC is redirected directly), mirroring a glitched branch unit."""

    def apply(self, machine, insn):
        if insn.mnemonic is not Mnemonic.JCC:
            return insn  # no conditional to invert (multi-fault drift)
        cpu = machine.cpu
        if insn.cond.evaluate(cpu.flags):
            cpu.rip = insn.address + insn.length
        else:
            cpu.rip = branch_target(cpu, insn)
        return None
