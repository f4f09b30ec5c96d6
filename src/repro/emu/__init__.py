"""CPU emulator for the x86-64 subset (Qiling/Unicorn substitute).

The paper implements its faulter "in Python using the Qiling binary
emulator package".  This package provides the equivalent: load an ELF
image, execute it deterministically with byte-accurate RFLAGS
semantics, record instruction traces, and let a fault effect perturb
one dynamic instruction — substitute or drop the fetched encoding
(:class:`~repro.emu.effects.FetchEffect`) or corrupt
registers/flags/memory/PC around the step
(:class:`~repro.emu.effects.StateEffect`).

The paper forks each fault simulation; :class:`~repro.emu.memory.Memory`
instead offers a write journal so a campaign can snapshot CPU state at
the fault point and undo all memory effects afterwards — same effect,
no OS fork.
"""

from repro.emu.machine import Machine, RunResult, run_executable
from repro.emu.cpu import CPU
from repro.emu.effects import (
    BranchInvertEffect,
    EncodingBitFlipEffect,
    EncodingStuckByteEffect,
    FaultEffect,
    FetchEffect,
    FlagForceEffect,
    MemoryBitFlipEffect,
    RegisterBitFlipEffect,
    SkipEffect,
    StateEffect,
)
from repro.emu.memory import Memory
from repro.emu.flagops import Flags

__all__ = ["Machine", "RunResult", "run_executable", "CPU", "Memory",
           "Flags", "FaultEffect", "FetchEffect", "StateEffect",
           "SkipEffect", "EncodingBitFlipEffect",
           "EncodingStuckByteEffect", "RegisterBitFlipEffect",
           "FlagForceEffect", "MemoryBitFlipEffect",
           "BranchInvertEffect"]
