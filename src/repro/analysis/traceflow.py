"""Dynamic-trace fault-equivalence facts (the reduction layer's core).

The campaign reduction layer (:mod:`repro.faulter.reduction`) must
prove, per fault point, that injecting the fault cannot change what a
detection oracle observes.  This module supplies those proofs as pure
functions of the recorded bad-input trace, the same trace both
backends already re-derive deterministically — so every process that
reduces a share of a campaign recomputes identical facts.

It is the dynamic-trace counterpart of a static register liveness:
the forward dead-bit scan is liveness specialized to one straight-line
path (the trace), and the def/use extraction reads the per-instruction
:func:`repro.isa.metadata.effects` facts.  Flag vocabulary
(:data:`~repro.analysis.flagliveness.ALL_FLAGS`, the may/definite
write split) comes from :mod:`repro.analysis.flagliveness`.

Soundness conventions, shared with the fault models' hooks:

* A *dead* verdict means the faulted run's :class:`RunResult` is
  bit-identical to the unfaulted continuation — same termination, same
  cumulative stdout, same end memory — so *any* oracle classifies it
  as it classifies the bad baseline.
* Each dead verdict carries a ``settled`` trace step: the last step
  whose execution provably erases the fault's state difference
  (``math.inf`` when the difference merely stays unobserved until the
  run ends), recorded in the reduction certificate's examples.
* A *crash* verdict means the faulted step itself raises (an
  undecodable mutated encoding), ending the run with the unfaulted
  stdout prefix; callers gate it on oracles that map crashes to
  deterministic classes.
* Like variant enumeration itself, all proofs decode trace
  instructions from the initial image — self-modifying code is outside
  the subset the workloads exercise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.analysis.flagliveness import ALL_FLAGS
from repro.emu.effects import decode_window
from repro.errors import DecodingError
from repro.isa.insn import CONTROL_FLOW, Instruction, Mnemonic
from repro.isa.metadata import effects
from repro.isa.operands import Mem, Reg
from repro.isa.registers import RIP, parent_gpr, reg

MASK64 = (1 << 64) - 1
LOW8 = 0xFF

_RCX = reg("rcx").code
_R11 = reg("r11").code

# Destination registers written without reading their old value; a
# >= 4 byte register destination zero-extends, clobbering all 64 bits.
_WRITE_ONLY_DEST = frozenset(
    (
        Mnemonic.MOV,
        Mnemonic.MOVZX,
        Mnemonic.LEA,
        Mnemonic.POP,
        Mnemonic.SETCC,
    )
)

# dst-op == src-op forms whose result is 0 regardless of the old value.
_SAME_REG_ZEROERS = frozenset((Mnemonic.XOR, Mnemonic.SUB))

# Flag effects per mnemonic (mirrors emu/flagops and the jit lifter):
# writers that recompute all six flags from their operands, the
# inc/dec pair that preserves CF, and the shifts whose writes are
# conditional on the (dynamic) count — a may-write, never a kill.
_FLAG_KILL_ALL = frozenset(
    (
        Mnemonic.ADD,
        Mnemonic.SUB,
        Mnemonic.CMP,
        Mnemonic.NEG,
        Mnemonic.IMUL,
        Mnemonic.AND,
        Mnemonic.OR,
        Mnemonic.XOR,
        Mnemonic.TEST,
        Mnemonic.POPFQ,
    )
)
_INC_DEC = frozenset((Mnemonic.INC, Mnemonic.DEC))
_INC_DEC_FLAGS = frozenset({"pf", "af", "zf", "sf", "of"})
_SHIFTS = frozenset((Mnemonic.SHL, Mnemonic.SHR, Mnemonic.SAR))
_SHIFT_FLAGS = frozenset({"cf", "pf", "zf", "sf", "of"})

# Flags consumed per condition-code base (see repro.isa.cond.evaluate).
_COND_FLAGS = {
    0x0: frozenset({"of"}),
    0x2: frozenset({"cf"}),
    0x4: frozenset({"zf"}),
    0x6: frozenset({"cf", "zf"}),
    0x8: frozenset({"sf"}),
    0xA: frozenset({"pf"}),
    0xC: frozenset({"sf", "of"}),
    0xE: frozenset({"zf", "sf", "of"}),
}
_COND_CONSUMERS = frozenset(
    (Mnemonic.JCC, Mnemonic.SETCC, Mnemonic.CMOVCC)
)


def consumed_flags(insn: Instruction) -> frozenset:
    """The status flags ``insn`` actually reads."""
    if insn.mnemonic in _COND_CONSUMERS and insn.cond is not None:
        return _COND_FLAGS[insn.cond.value & 0xE]
    if insn.mnemonic is Mnemonic.PUSHFQ:
        return ALL_FLAGS
    return frozenset()


# The order a proof scans flags in.  A proof returns at its first live
# flag, so the scan count (``TraceFacts.scan_steps``) follows this
# order; a set's iteration order would vary with the hash seed.
_FLAG_ORDER = ("cf", "pf", "af", "zf", "sf", "of")


def _ordered_flags(flags) -> tuple:
    return tuple(flag for flag in _FLAG_ORDER if flag in flags)


def _flag_sets(mnemonic: Mnemonic) -> tuple[frozenset, frozenset]:
    """``(definitely killed, may-touched)`` flags of one writer."""
    if mnemonic in _FLAG_KILL_ALL:
        return ALL_FLAGS, ALL_FLAGS
    if mnemonic in _INC_DEC:
        return _INC_DEC_FLAGS, _INC_DEC_FLAGS
    if mnemonic in _SHIFTS:
        return frozenset(), _SHIFT_FLAGS
    return frozenset(), frozenset()


@dataclass(frozen=True)
class StepFacts:
    """Register/flag def-use facts of one traced instruction."""

    insn: Instruction
    eff: object
    reads: dict  # gpr code -> bit mask read (at view width)
    kills: frozenset  # codes clobbered independent of their old value
    spans: dict  # code -> low-bit mask independently overwritten
    write_spans: dict  # code -> bit mask a skip/replace can perturb
    consumed: frozenset  # flags read
    killed: frozenset  # flags definitely recomputed
    touched: tuple  # flags possibly written, in _FLAG_ORDER


def derive_step_facts(insn: Instruction) -> StepFacts:
    """Compute :class:`StepFacts` for one decoded instruction."""
    eff = effects(insn)
    m = insn.mnemonic
    ops = insn.operands

    kills: set[int] = set()
    spans: dict[int, int] = {}
    value_independent: set[int] = set()
    if m in _WRITE_ONLY_DEST and ops and isinstance(ops[0], Reg):
        code = ops[0].register.code
        if ops[0].size >= 4:
            kills.add(code)
        else:
            spans[code] = LOW8
    if (
        m in _SAME_REG_ZEROERS
        and len(ops) == 2
        and isinstance(ops[0], Reg)
        and isinstance(ops[1], Reg)
        and ops[0].register == ops[1].register
    ):
        code = ops[0].register.code
        if ops[0].size >= 4:
            kills.add(code)
        else:
            spans[code] = LOW8
        # the "read" of a zeroing idiom is value-independent
        value_independent.add(code)
    if m is Mnemonic.SYSCALL:
        kills.update((_RCX, _R11))
    # a killed register's syntactic "read" (the zeroing idiom) does
    # not observe its old value
    value_independent.update(kills)

    reads: dict[int, int] = {}

    def add_read(code: int, mask: int) -> None:
        if code in value_independent:
            return
        reads[code] = reads.get(code, 0) | mask

    seen: set[int] = set()
    for position, operand in enumerate(ops):
        if isinstance(operand, Reg):
            code = operand.register.code
            seen.add(code)
            if position == 0 and m in _WRITE_ONLY_DEST:
                continue
            if parent_gpr(operand.register) in eff.reads:
                add_read(code, (1 << (operand.size * 8)) - 1)
        elif isinstance(operand, Mem):
            if operand.base is not None and operand.base is not RIP:
                seen.add(operand.base.code)
                add_read(operand.base.code, MASK64)
            if operand.index is not None:
                seen.add(operand.index.code)
                add_read(operand.index.code, MASK64)
    for register in eff.reads:
        if register.code not in seen:
            add_read(register.code, MASK64)

    # by register code, so proofs scan registers in a fixed order
    write_spans: dict[int, int] = {
        code: MASK64
        for code in sorted(register.code for register in eff.writes)
    }
    if (
        ops
        and isinstance(ops[0], Reg)
        and ops[0].size == 1
        and ops[0].register.code in write_spans
        and m is not Mnemonic.SYSCALL
    ):
        # the sole write to an 8-bit destination view touches bits 0-7
        write_spans[ops[0].register.code] = LOW8

    killed, touched = _flag_sets(m)
    return StepFacts(
        insn=insn,
        eff=eff,
        reads=reads,
        kills=frozenset(kills),
        spans=spans,
        write_spans=write_spans,
        consumed=consumed_flags(insn),
        killed=killed,
        touched=_ordered_flags(touched),
    )


@dataclass(frozen=True)
class VariantPrune:
    """A per-variant proof: the fault is dead or a guaranteed crash.

    ``settled`` is the trace step whose execution erases the fault's
    state difference (``-1`` for a no-op fault, ``math.inf`` when the
    difference merely stays unobserved until the run ends).
    """

    kind: str  # "dead" | "crash"
    reason: str
    settled: float = math.inf


_MISSING = object()


def _encoding_defs(facts: StepFacts, window: bytes, mutated: bytes):
    """The step-independent half of :meth:`TraceFacts.encoding_prune`.

    Either a final verdict (a :class:`VariantPrune`, or ``None`` when
    no proof applies), or ``(spans, flags)``: the register bit spans
    and the flags the original or the mutated encoding may define,
    all of which must be dead after the step.
    """
    original = facts.insn
    length = original.length
    if mutated[:length] == window[:length]:
        # e.g. a stuck-at-zero byte that is already zero
        return VariantPrune("dead", "encoding-identity", -1)
    try:
        replacement = decode_window(original.address, mutated)
    except DecodingError:
        return VariantPrune("crash", "undecodable", math.inf)
    if replacement.length != length:
        return None
    m_old, m_new = original.mnemonic, replacement.mnemonic
    if m_old in CONTROL_FLOW or m_new in CONTROL_FLOW:
        return None
    if m_old is Mnemonic.SYSCALL or m_new is Mnemonic.SYSCALL:
        return None
    new_facts = derive_step_facts(replacement)
    if (
        facts.eff.writes_memory
        or new_facts.eff.writes_memory
        or new_facts.eff.reads_memory
    ):
        return None
    spans: dict[int, int] = {}
    for source in (facts.write_spans, new_facts.write_spans):
        for code, span in source.items():
            spans[code] = spans.get(code, 0) | span
    flags = ()
    if facts.eff.writes_flags or new_facts.eff.writes_flags:
        flags = _ordered_flags(facts.touched + new_facts.touched)
    return tuple(spans.items()), flags


class TraceFacts:
    """Lazily-computed fault-equivalence facts over one trace.

    ``insn_at(step)`` decodes the traced instruction (``None`` for the
    undecodable tail of a crashing run); ``window_at(step)`` returns
    the 15-byte fetch window an encoding fault mutates (``None`` when
    unavailable); ``flag_replay()`` lazily replays the bad-input run,
    returning the pre-step flag state per trace step.  All three are
    deterministic functions of (image, bad input), so independently
    constructed instances agree across processes.

    Per-instruction work is done once per trace *address*, not once
    per step — a loop revisits the same code: :class:`StepFacts` are
    derived once per address, and the step-independent half of an
    encoding proof (decode, early outs, defined spans and flags) once
    per (address, mutated window).  Only the liveness scans after the
    step are per step.
    """

    def __init__(
        self,
        trace: Sequence[int],
        insn_at: Callable[[int], Optional[Instruction]],
        window_at: Optional[Callable[[int], Optional[bytes]]] = None,
        flag_replay: Optional[Callable[[], list]] = None,
    ):
        self.trace = list(trace)
        self._insn_at = insn_at
        self._window_at = window_at
        self._flag_replay = flag_replay
        # trace address (None past the trace's end) -> facts
        self._at_address: dict[Optional[int], Optional[StepFacts]] = {}
        self._encodings: dict[tuple[int, bytes], object] = {}
        self._reg_profiles: dict = {}
        self._flag_dead: dict = {}
        self._flag_values: Optional[list] = None
        self.prune_cache: dict = {}
        self.scan_steps = 0

    def step(self, step: int) -> Optional[StepFacts]:
        """Facts of the instruction at ``step``, keyed by its address."""
        address = self.trace[step] if 0 <= step < len(self.trace) else None
        cached = self._at_address.get(address, _MISSING)
        if cached is not _MISSING:
            return cached
        insn = self._insn_at(step)
        facts = derive_step_facts(insn) if insn is not None else None
        self._at_address[address] = facts
        return facts

    # ----- register deadness ------------------------------------------

    def _reg_profile(self, start: int, code: int):
        """``(dead mask, ((settle step, submask), ...))`` from
        ``start``.

        A bit is *dead* when, walking the trace forward from ``start``,
        it is independently overwritten (a kill or a low-byte span)
        before any instruction reads it — or is never read before the
        run ends.  Reads are width-aware; within one step the
        instruction's reads precede its writes.  The settle events
        record *when* each dead submask is overwritten; end-of-trace
        deadness has no settle event.
        """
        key = (start, code)
        cached = self._reg_profiles.get(key)
        if cached is not None:
            return cached
        pending = MASK64
        dead = 0
        events: list[tuple[int, int]] = []
        for j in range(start, len(self.trace)):
            facts = self.step(j)
            self.scan_steps += 1
            if facts is None:
                # undecodable tail: assume the bits are observed
                pending = 0
                break
            mask = facts.reads.get(code)
            if mask:
                pending &= ~mask
                if not pending:
                    break
            if code in facts.kills:
                dead |= pending
                events.append((j, pending))
                pending = 0
                break
            mask = facts.spans.get(code)
            if mask and pending & mask:
                dead |= pending & mask
                events.append((j, pending & mask))
                pending &= ~mask
                if not pending:
                    break
        dead |= pending  # never read before the run ended
        profile = (dead, tuple(events))
        self._reg_profiles[key] = profile
        return profile

    def reg_dead_mask(self, start: int, code: int) -> int:
        return self._reg_profile(start, code)[0]

    def reg_settle(self, start: int, code: int, mask: int) -> float:
        """Step settling every bit of ``mask`` (``inf`` if end-based)."""
        dead, events = self._reg_profile(start, code)
        if mask & ~dead:
            return math.inf  # not even dead
        settled = -1.0
        remaining = mask
        for step, submask in events:
            if remaining & submask:
                settled = max(settled, step)
                remaining &= ~submask
        if remaining:
            return math.inf
        return settled

    # ----- flag deadness ----------------------------------------------

    def flag_dead(self, start: int, flag: str) -> tuple[bool, float]:
        """``(dead?, settle step)`` for a flag difference at
        ``start``.

        Walking forward, a consumer kills the proof; a definite writer
        settles the difference; a may-writer (shift) either leaves the
        difference or recomputes the flag from inputs that are
        identical in both runs, so the scan continues past it.
        """
        key = (start, flag)
        cached = self._flag_dead.get(key)
        if cached is not None:
            return cached
        verdict: tuple[bool, float] = (True, math.inf)
        for j in range(start, len(self.trace)):
            facts = self.step(j)
            self.scan_steps += 1
            if facts is None:
                verdict = (False, math.inf)
                break
            if flag in facts.consumed:
                verdict = (False, math.inf)
                break
            if flag in facts.killed:
                verdict = (True, float(j))
                break
        self._flag_dead[key] = verdict
        return verdict

    def _flag_state(self, step: int) -> Optional[dict]:
        if self._flag_replay is None:
            return None
        if self._flag_values is None:
            self._flag_values = self._flag_replay()
        if 0 <= step < len(self._flag_values):
            return self._flag_values[step]
        return None

    # ----- model-facing proofs ----------------------------------------

    def skip_prune(self, step: int) -> Optional[VariantPrune]:
        """Prove skipping the instruction at ``step`` unobservable."""
        facts = self.step(step)
        if facts is None:
            return None
        insn = facts.insn
        m = insn.mnemonic
        if m is Mnemonic.JCC:
            follow = step + 1
            if (
                follow < len(self.trace)
                and self.trace[follow] == insn.end_address
            ):
                # the branch fell through anyway: skip == not-taken
                return VariantPrune("dead", "jcc-not-taken", -1)
            return None
        if m in CONTROL_FLOW or m is Mnemonic.SYSCALL:
            return None
        if facts.eff.writes_memory:
            return None
        settled = -1.0
        for code, span in facts.write_spans.items():
            if span & ~self.reg_dead_mask(step + 1, code):
                return None
            settled = max(
                settled, self.reg_settle(step + 1, code, span)
            )
        if facts.eff.writes_flags:
            for flag in facts.touched:
                dead, flag_settled = self.flag_dead(step + 1, flag)
                if not dead:
                    return None
                settled = max(settled, flag_settled)
        if not facts.write_spans and not facts.eff.writes_flags:
            return VariantPrune("dead", "no-effect", -1)
        return VariantPrune("dead", "dead-defs", settled)

    def reg_bit_prune(
        self, step: int, code: int, bit: int
    ) -> Optional[VariantPrune]:
        """Prove a pre-step flip of ``code`` bit ``bit``
        unobservable."""
        mask = 1 << bit
        if mask & ~self.reg_dead_mask(step, code):
            return None
        settled = self.reg_settle(step, code, mask)
        return VariantPrune("dead", "reg-dead", settled)

    def flag_prune(
        self, step: int, flag: str, value: int
    ) -> Optional[VariantPrune]:
        """Prove forcing ``flag`` to ``value`` at ``step``
        unobservable."""
        facts = self.step(step)
        if facts is None:
            return None
        state = self._flag_state(step)
        if state is not None and flag in state:
            if bool(state[flag]) == bool(value):
                # the flag already holds the forced value
                return VariantPrune("dead", "flag-already-set", -1)
        if flag in facts.consumed:
            return None
        if flag in facts.killed:
            # recomputed by the faulted step itself, before any read
            return VariantPrune("dead", "flag-rewritten", step)
        if flag in facts.touched:
            dead, settled = self.flag_dead(step + 1, flag)
            if dead and not math.isinf(settled):
                return VariantPrune("dead", "flag-dead", settled)
            return None
        dead, settled = self.flag_dead(step + 1, flag)
        if dead:
            return VariantPrune("dead", "flag-dead", settled)
        return None

    def encoding_prune(
        self, step: int, mutate: Callable[[bytearray], None]
    ) -> Optional[VariantPrune]:
        """Classify a mutated-encoding fault at ``step``.

        ``mutate`` perturbs the 15-byte fetch window in place, exactly
        as the runtime effect would.  The mutation is *dead* when it
        re-decodes to the identical bytes, or to a same-length,
        non-control, non-memory instruction all of whose definitions
        (old and new) are dead; it is a *crash* when the mutated window
        no longer decodes.  Everything but the liveness scans after
        ``step`` is memoized per (address, mutated window).
        """
        facts = self.step(step)
        if facts is None or self._window_at is None:
            return None
        window = self._window_at(step)
        if window is None:
            return None
        mutated = bytearray(window)
        mutate(mutated)
        key = (facts.insn.address, bytes(mutated))
        defs = self._encodings.get(key, _MISSING)
        if defs is _MISSING:
            defs = self._encodings[key] = _encoding_defs(facts, window, key[1])
        if not isinstance(defs, tuple):
            return defs
        spans, flags = defs
        settled = -1.0
        for code, span in spans:
            if span & ~self.reg_dead_mask(step + 1, code):
                return None
            settled = max(
                settled, self.reg_settle(step + 1, code, span)
            )
        for flag in flags:
            dead, flag_settled = self.flag_dead(step + 1, flag)
            if not dead:
                return None
            settled = max(settled, flag_settled)
        return VariantPrune("dead", "encoding-dead", settled)
