"""Fault models.

A fault model enumerates, per dynamic instruction, the concrete faults
it can inject there (:meth:`FaultModel.variants`), and maps each
variant onto the :class:`~repro.emu.effects.FaultEffect` the machine
applies at the faulted step (:meth:`FaultModel.effect`).

Models come in two families:

* **encoding** (:class:`EncodingFaultModel`) — the fault perturbs the
  instruction *fetch*: :class:`InstructionSkip`,
  :class:`SingleBitFlip` (one encoding bit), :class:`StuckAtZeroByte`
  (one encoding byte reads as zero).
* **state** (:class:`StateFaultModel`) — the fault perturbs machine
  *state* around one step: :class:`RegisterBitFlip` (one bit of one
  live register), :class:`FlagStuck` (force ZF/CF/SF at a
  flag-consuming instruction), :class:`MemOperandBitFlip` (one bit of
  the accessed memory cell), :class:`BranchInvert` (take/untake a
  conditional).  State models enumerate against the instruction's ISA
  metadata (:func:`repro.isa.metadata.effects`), so only faults with a
  live substrate are generated.

Every model is stateless and picklable; the unit that crosses process
boundaries is the ``(model name, detail tuple)`` pair, and variant
enumeration is a pure function of the traced instruction — which is
what keeps campaigns bit-identical across backends and worker
processes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.emu.effects import (
    BranchInvertEffect,
    EncodingBitFlipEffect,
    EncodingStuckByteEffect,
    FaultEffect,
    FlagForceEffect,
    MemoryBitFlipEffect,
    RegisterBitFlipEffect,
    SkipEffect,
)
from repro.isa.insn import Instruction, Mnemonic
from repro.isa.metadata import Effects, effects as isa_effects
from repro.isa.operands import Mem
from repro.isa.registers import RIP, gpr64

# Status flags a stuck-at upset can force (the ones the subset's
# conditions consume most; see repro.isa.cond).
FORCEABLE_FLAGS = ("zf", "cf", "sf")

GPR_BITS = 64


class FaultModel:
    """Base class for fault models."""

    name = "abstract"
    family = "abstract"
    stage = "abstract"

    def variants(
        self, insn: Instruction, meta: Optional[Effects] = None
    ) -> Sequence[tuple]:
        """Concrete fault parameters injectable at ``insn``.

        ``meta`` carries the instruction's ISA metadata (registers and
        flags read/written); callers that already computed it pass it
        in, otherwise it is derived on demand.
        """
        raise NotImplementedError

    def effect(self, detail: tuple) -> FaultEffect:
        """The machine-level effect for one enumerated variant."""
        raise NotImplementedError

    def describe(self, detail: tuple) -> str:
        return self.name

    def prune_variant(self, step: int, detail: tuple, facts):
        """Equivalence-reduction hook: prove one variant redundant.

        ``facts`` is a :class:`repro.analysis.traceflow.TraceFacts`
        over the bad-input trace.  Returns a
        :class:`~repro.analysis.traceflow.VariantPrune` — a *dead*
        proof (the faulted run is bit-identical to the unfaulted
        continuation) or a *crash* proof (the faulted step itself
        raises) — or ``None`` when no proof applies.  The base model
        proves nothing; models whose faults persist beyond the step
        (``mem-bitflip``) or always redirect control
        (``branch-invert``) keep this default.
        """
        return None

    def variant_class(self, step: int, detail: tuple, facts):
        """Equivalence-reduction hook: key variants with identical
        live-state effect.

        Variants mapping to the same (hashable) key are interchangeable
        under a total-cap space: one representative is executed and its
        verdict reused for the class.  ``None`` leaves the variant
        unmerged.
        """
        return None


class EncodingFaultModel(FaultModel):
    """Faults perturbing the instruction fetch (encoding corruption)."""

    family = "encoding"
    stage = "fetch"


class StateFaultModel(FaultModel):
    """Faults perturbing CPU/memory state around one dynamic step."""

    family = "state"
    stage = "state"

    def _meta(self, insn: Instruction,
              meta: Optional[Effects]) -> Effects:
        return meta if meta is not None else isa_effects(insn)


class InstructionSkip(EncodingFaultModel):
    """Skip exactly one dynamic instruction."""

    name = "skip"

    def variants(self, insn, meta=None) -> Sequence[tuple]:
        return [()]

    def effect(self, detail):
        return SkipEffect()

    def describe(self, detail: tuple) -> str:
        return "skip"

    def prune_variant(self, step, detail, facts):
        # dead when the skipped instruction's definitions (registers
        # and flags) are all dead along the trace, or when it is a
        # conditional branch that fell through anyway
        return facts.skip_prune(step)


class SingleBitFlip(EncodingFaultModel):
    """Flip one bit of the instruction encoding during fetch."""

    name = "bitflip"

    def variants(self, insn, meta=None) -> Sequence[tuple]:
        return [(bit,) for bit in range(len(insn.raw) * 8)]

    def effect(self, detail):
        (bit,) = detail
        return EncodingBitFlipEffect(bit)

    def describe(self, detail: tuple) -> str:
        return f"bitflip(bit={detail[0]})"

    def prune_variant(self, step, detail, facts):
        (bit,) = detail

        def mutate(raw: bytearray) -> None:
            raw[bit // 8] ^= 1 << (bit % 8)

        # crash when the mutated window no longer decodes; dead when
        # it decodes to a same-length instruction whose definitions
        # are all dead
        return facts.encoding_prune(step, mutate)


class StuckAtZeroByte(EncodingFaultModel):
    """One encoding byte reads as 0x00 (stuck-at-zero bus fault)."""

    name = "stuck0"

    def variants(self, insn, meta=None) -> Sequence[tuple]:
        return [(index,) for index in range(len(insn.raw))]

    def effect(self, detail):
        (index,) = detail
        return EncodingStuckByteEffect(index)

    def describe(self, detail: tuple) -> str:
        return f"stuck0(byte={detail[0]})"

    def prune_variant(self, step, detail, facts):
        (index,) = detail

        def mutate(raw: bytearray) -> None:
            raw[index] = 0

        # an already-zero byte is an identity fault (dead); otherwise
        # as for bitflip
        return facts.encoding_prune(step, mutate)


class RegisterBitFlip(StateFaultModel):
    """Flip one bit of one *live* register before the step executes.

    Live means the instruction reads or writes the register (per the
    ISA metadata); faulting a dead register cannot change the step's
    semantics, so those points are not enumerated.  Details are
    ``(gpr code, bit)`` over the full 64-bit parent register.
    """

    name = "reg-bitflip"

    def variants(self, insn, meta=None) -> Sequence[tuple]:
        meta = self._meta(insn, meta)
        live = sorted(
            {register.code for register in (meta.reads | meta.writes)
             if register is not RIP}
        )
        return [(code, bit) for code in live for bit in range(GPR_BITS)]

    def effect(self, detail):
        code, bit = detail
        return RegisterBitFlipEffect(code, bit)

    def describe(self, detail: tuple) -> str:
        code, bit = detail
        return f"reg-bitflip({gpr64(code).name}, bit={bit})"

    def prune_variant(self, step, detail, facts):
        code, bit = detail
        # dead when the flipped bit is overwritten (width-aware, e.g.
        # a 32-bit mov destination zero-extends over all 64 bits)
        # before any instruction reads it
        return facts.reg_bit_prune(step, code, bit)


class FlagStuck(StateFaultModel):
    """Force one status flag at an instruction that consumes flags.

    Enumerated only where the fault has a consumer — conditional
    branches, ``set<cc>``/``cmov<cc>`` and ``pushfq`` — which is where
    a glitched comparison changes control flow.  Details are
    ``(flag name, forced value)`` over ZF/CF/SF.
    """

    name = "flag-stuck"

    def variants(self, insn, meta=None) -> Sequence[tuple]:
        meta = self._meta(insn, meta)
        if not meta.reads_flags:
            return []
        return [(flag, value)
                for flag in FORCEABLE_FLAGS for value in (0, 1)]

    def effect(self, detail):
        flag, value = detail
        return FlagForceEffect(flag, value)

    def describe(self, detail: tuple) -> str:
        flag, value = detail
        return f"flag-stuck({flag}={value})"

    def prune_variant(self, step, detail, facts):
        flag, value = detail
        # dead when the flag already holds the forced value at the
        # step (replayed), or is neither consumed at the step nor
        # live afterwards
        return facts.flag_prune(step, flag, value)

    def variant_class(self, step, detail, facts):
        flag, value = detail
        # forces of the same flag/value with no consumer or writer
        # between them coincide from the later point on
        return facts.flag_class_key(step, flag, value)


class MemOperandBitFlip(StateFaultModel):
    """Flip one bit of the memory cell an operand is about to *read*.

    Enumerated per explicit memory operand whose cell the instruction
    consumes, one variant per bit of the accessed width; the effective
    address is resolved at injection time against the live machine
    state, exactly like the access itself.  Write-only destinations
    (``mov``/``movzx``/``set<cc>`` stores) are excluded — the store
    immediately overwrites the flipped cell, so every such point would
    be a guaranteed no-op paid at full replay cost — as is ``lea``,
    whose memory operand is an address computation that never touches
    the cell.  Details are ``(memory-operand ordinal, bit)``.
    """

    name = "mem-bitflip"

    # first-operand mnemonics whose memory destination is written
    # without being read (metadata read_dest=False)
    _WRITE_ONLY_DEST = frozenset(
        (Mnemonic.MOV, Mnemonic.MOVZX, Mnemonic.SETCC, Mnemonic.POP))

    def variants(self, insn, meta=None) -> Sequence[tuple]:
        if insn.mnemonic is Mnemonic.LEA:
            return []
        out = []
        ordinal = 0
        for position, operand in enumerate(insn.operands):
            if not isinstance(operand, Mem):
                continue
            write_only = (position == 0
                          and insn.mnemonic in self._WRITE_ONLY_DEST)
            if not write_only:
                out.extend((ordinal, bit)
                           for bit in range(operand.size * 8))
            ordinal += 1
        return out

    def effect(self, detail):
        ordinal, bit = detail
        return MemoryBitFlipEffect(ordinal, bit)

    def describe(self, detail: tuple) -> str:
        ordinal, bit = detail
        return f"mem-bitflip(operand={ordinal}, bit={bit})"


class BranchInvert(StateFaultModel):
    """Invert one conditional branch: taken becomes fall-through and
    vice versa (a glitched branch unit / corrupted predicate)."""

    name = "branch-invert"

    def variants(self, insn, meta=None) -> Sequence[tuple]:
        return [()] if insn.is_conditional else []

    def effect(self, detail):
        return BranchInvertEffect()

    def describe(self, detail: tuple) -> str:
        return "branch-invert"


MODELS: dict[str, FaultModel] = {
    model.name: model
    for model in (
        InstructionSkip(),
        SingleBitFlip(),
        StuckAtZeroByte(),
        RegisterBitFlip(),
        FlagStuck(),
        MemOperandBitFlip(),
        BranchInvert(),
    )
}

ENCODING_MODELS = tuple(
    name for name, model in MODELS.items() if model.family == "encoding"
)
STATE_MODELS = tuple(
    name for name, model in MODELS.items() if model.family == "state"
)


def model_by_name(name: str) -> FaultModel:
    """Look up a registered fault model by name (see ``MODELS``)."""
    try:
        return MODELS[name]
    except KeyError:
        raise KeyError(
            f"unknown fault model {name!r}; known: {sorted(MODELS)}"
        ) from None
