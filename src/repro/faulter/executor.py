"""The master walk: the one code path that runs a faulted suffix.

One machine walks the bad-input trace forward; at each fault offset it
snapshots CPU/IO, journals memory, runs the faulted continuation and
rolls back (the paper's ``fork()`` substitute).  Every campaign point
that the equivalence reduction does not settle runs here, on both
backends.

Single-fault points are collapsed by post-fault state: the rest of a
run is a function of the machine state right after the faulted step,
so a point whose state matches the unfaulted step's (the golden state)
or an earlier point's at the same offset takes that known outcome
instead of running its suffix (``docs/engine.md``, "Post-fault state
memo").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.emu.cpu import ExitProgram, Halt
from repro.emu.jit import TraceCompiler
from repro.emu.machine import MAX_STEPS, Machine, RunResult
from repro.errors import DecodingError, EmulationError
from repro.faulter import artifacts as artifacts_mod
from repro.faulter.models import FaultModel
from repro.faulter.space import SUFFIX_CAP, FaultPoint

# An executed point: (point, outcome class).
PointOutcome = tuple[FaultPoint, str]

# Reduction certificates list at most this many dead-point examples,
# so report.meta stays small even for million-point spaces; the
# *counts* are always exact.
EXAMPLE_CAP = 32


@dataclass
class ExecutionStats:
    """Counters a backend fills while streaming outcomes.

    ``compiled_steps`` counts the subset of ``emulated_steps`` executed
    by the trace-compiled tier, and ``region_steps`` the subset of those
    run inside hot-loop regions, of which the tier formed ``regions``;
    ``divergences`` counts compiled blocks
    that aborted back to the precise stepper (guest fault or
    self-modifying code); ``compile_seconds`` is wall time spent
    lifting/lowering superblocks; ``memo_hits`` counts single-fault
    points that took a known outcome from the post-fault state memo
    (each emulated only its faulted step).

    The ``dead_*`` and ``crash_points`` fields tally the points the
    equivalence reduction (:mod:`repro.faulter.reduction`) settled
    without running them: its certificate's counts, dead-proof
    reasons and first :data:`EXAMPLE_CAP` examples, in enumeration
    order.
    """

    emulated_steps: int = 0
    peak_resident_points: int = 0
    compiled_steps: int = 0
    region_steps: int = 0
    regions: int = 0
    divergences: int = 0
    compile_seconds: float = 0.0
    memo_hits: int = 0
    artifact_counters: dict = field(default_factory=dict)
    dead_points: int = 0
    crash_points: int = 0
    dead_reasons: dict = field(default_factory=dict)
    dead_examples: list = field(default_factory=list)

    @property
    def proven_points(self) -> int:
        """Points that took a proven outcome instead of running."""
        return self.dead_points + self.crash_points

    def observe_resident(self, count: int) -> None:
        if count > self.peak_resident_points:
            self.peak_resident_points = count

    def merge_artifacts(self, counters: dict) -> None:
        """Fold an artifact hit/miss delta into this stats."""
        for key, value in counters.items():
            self.artifact_counters[key] = (
                self.artifact_counters.get(key, 0) + value
            )

    def merge(self, other: "ExecutionStats") -> None:
        """Fold a later run's counters (a worker shard, in partition
        order) into this one; resident peaks combine as a maximum."""
        self.emulated_steps += other.emulated_steps
        self.observe_resident(other.peak_resident_points)
        self.compiled_steps += other.compiled_steps
        self.region_steps += other.region_steps
        self.regions += other.regions
        self.divergences += other.divergences
        self.compile_seconds += other.compile_seconds
        self.memo_hits += other.memo_hits
        self.merge_artifacts(other.artifact_counters)
        self.dead_points += other.dead_points
        self.crash_points += other.crash_points
        for reason, count in other.dead_reasons.items():
            self.dead_reasons[reason] = (
                self.dead_reasons.get(reason, 0) + count
            )
        room = EXAMPLE_CAP - len(self.dead_examples)
        self.dead_examples.extend(other.dead_examples[: max(0, room)])


def master_step(machine: Machine) -> bool:
    """Advance the master machine one instruction; False when done."""
    try:
        instruction = machine.fetch_decode(machine.cpu.rip)
        machine.cpu.execute(instruction)
    except (ExitProgram, Halt, EmulationError, DecodingError):
        return False
    return True


def _state_key(machine: Machine) -> tuple:
    """Every input to the rest of a run, right after a faulted step:
    CPU state, IO state and the memory changed since the offset (the
    walk journals from the pre-fault state)."""
    cpu = machine.cpu
    io = machine.io
    return (
        tuple(cpu.regs),
        cpu.rip,
        cpu.flags.to_rflags(),
        io.stdin_pos,
        bytes(io.stdout),
        bytes(io.stderr),
        machine.memory.journal_changes(),
    )


class _OffsetMemo:
    """Run results of the single-fault points at one walk offset, keyed
    by the state right after the faulted step.

    ``golden`` is the unfaulted step's key (None when there is none),
    whose result is the bad baseline's, ``golden_steps`` long;
    ``after_fault`` is the :meth:`Machine.run` hook that ends a run on
    a known state; ``settle`` closes each run.
    """

    def __init__(
        self,
        machine: Machine,
        golden: Optional[tuple],
        baseline: RunResult,
        golden_steps: int,
    ):
        self._machine = machine
        self._golden = golden
        self._baseline = baseline
        self._golden_steps = golden_steps
        self._outcomes: dict = {}
        self._pending: Optional[tuple] = None
        self._hit = False

    def after_fault(self) -> Optional[RunResult]:
        key = _state_key(self._machine)
        if key == self._golden:
            known, steps = self._baseline, self._golden_steps
        else:
            known = self._outcomes.get(key)
            if known is None:
                self._pending = key
                return None
            steps = known.steps
        self._hit = True
        return RunResult(
            known.reason,
            known.exit_code,
            known.stdout,
            known.stderr,
            steps,
            known.crash_detail,
            known.trace,
            dict(known.memory),
        )

    def settle(self, result: RunResult) -> bool:
        """Whether the run ended on a known state; a run that missed
        files its result under its key."""
        hit, self._hit = self._hit, False
        if self._pending is not None:
            self._outcomes[self._pending] = result
            self._pending = None
        return hit


def _execution_order(points: Sequence[FaultPoint]) -> list[FaultPoint]:
    return sorted(points, key=lambda p: (p.first_step, p.order))


def _valid_jit_payload(payload) -> bool:
    return isinstance(payload, dict) and isinstance(
        payload.get("blocks"), list
    )


def _warm_jit(compiler, machine, artifacts, image_key) -> None:
    """Import serialized superblock sources from the store, if any."""
    if compiler is None or artifacts is None or image_key is None:
        return
    payload = artifacts.load(
        "jit", artifacts_mod.jit_key(image_key), validate=_valid_jit_payload
    )
    if payload is not None:
        compiler.import_blocks(machine, payload)


def _persist_jit(compiler, artifacts, image_key) -> None:
    """Export the compiler's block cache if it compiled anything new.

    ``compiled_blocks`` resets on a successful save, so a long-lived
    executor (fleet workers memoize them) re-exports only after fresh
    compilation, not once per partition.
    """
    if compiler is None or artifacts is None or image_key is None:
        return
    if compiler.compiled_blocks:
        if artifacts.save(
            "jit", artifacts_mod.jit_key(image_key), compiler.export_blocks()
        ):
            compiler.compiled_blocks = 0


class MasterWalkExecutor:
    """Snapshot-replay faults while walking the master trace forward.

    State (one machine plus its dynamic step) persists across windows:
    offset-monotone spaces keep walking forward; a window whose first
    offset lies behind the walk restarts it from step 0 (the emulator
    is deterministic, so results are unaffected).
    """

    def __init__(
        self,
        faulter,
        model: FaultModel,
        cap_policy: str,
        trace_compile: bool = True,
    ):
        self._faulter = faulter
        self._model = model
        self._cap_policy = cap_policy
        self._compiler = TraceCompiler() if trace_compile else None
        self._machine: Optional[Machine] = None
        self._step = 0
        self._done = False
        self._artifacts = faulter.artifacts
        self._image_key = (faulter.image_digest()
                           if faulter.artifacts is not None else None)
        self._jit_warmed = False
        # detail -> the model's effect for it; every effect is
        # immutable, so one object serves each point with that detail
        self._effects: dict = {}

    def _effect(self, detail: tuple):
        effect = self._effects.get(detail)
        if effect is None:
            effect = self._effects[detail] = self._model.effect(detail)
        return effect

    def _fault_plan(self, point: FaultPoint) -> dict:
        """Effect plan keyed by steps relative to the walk's step."""
        if point.arity == 1:
            return {0: self._effect(point.details[0])}
        return {
            step - self._step: self._effect(detail)
            for step, detail in zip(point.steps, point.details)
        }

    def _reset(self) -> None:
        self._machine = Machine(
            self._faulter.image, stdin=self._faulter.bad_input
        )
        if self._compiler is not None:
            self._compiler.attach(self._machine)
            if not self._jit_warmed:
                self._jit_warmed = True
                _warm_jit(
                    self._compiler,
                    self._machine,
                    self._artifacts,
                    self._image_key,
                )
        self._step = 0
        self._done = False

    def finalize(self) -> None:
        _persist_jit(self._compiler, self._artifacts, self._image_key)

    def _offset_memo(self, state, stats: ExecutionStats) -> _OffsetMemo:
        """A fresh memo for the walk's current offset, seeded with the
        golden state: one unfaulted, journaled step from the offset's
        snapshot ``state``, rolled back.

        A run that leaves the golden state continues as the bad
        baseline does from here, ``baseline.steps - offset`` steps in
        all; the continuation cap (2x baseline + 256) always covers
        them.  A baseline cut off by ``max-steps`` would not be, so it
        seeds nothing.
        """
        machine = self._machine
        baseline = self._faulter.bad_baseline
        golden = None
        if baseline.reason != MAX_STEPS:
            machine.memory.journal_begin()
            try:
                if master_step(machine):
                    stats.emulated_steps += 1
                    golden = _state_key(machine)
            finally:
                machine.memory.journal_rollback()
                machine.restore(state)
        return _OffsetMemo(
            machine, golden, baseline, baseline.steps - self._step
        )

    def run_window(
        self, points: Sequence[FaultPoint], stats: ExecutionStats
    ) -> list[PointOutcome]:
        """Each point's outcome class, in execution order."""
        classify = self._faulter.classify
        return [
            (point, classify(result))
            for point, result in self.walk(points, stats)
        ]

    def walk(
        self, points: Sequence[FaultPoint], stats: ExecutionStats
    ) -> Iterator[tuple[FaultPoint, RunResult]]:
        """Run each point's faulted continuation off the master walk.

        Yields ``(point, run result)`` in trace-offset order; points
        past the end of the master run have no substrate and are
        dropped.  Consume it to the end: the compiled tier's counters
        drain into ``stats`` last.  Single-fault points share one
        post-fault state memo per offset; points with more planned
        faults always run in full.
        """
        ordered = _execution_order(points)
        if self._machine is None or ordered[0].first_step < self._step:
            self._reset()
        machine = self._machine
        memory = machine.memory
        cap = self._faulter.continuation_cap
        watches = self._faulter.watches
        index = 0
        while index < len(ordered):
            if ordered[index].first_step == self._step:
                # the offset's points share one pre-fault snapshot, one
                # budget and one post-fault state memo
                state = machine.snapshot()
                if self._cap_policy == SUFFIX_CAP:
                    budget = cap
                else:
                    budget = max(1, cap - self._step)
                memo = None
                while (
                    index < len(ordered)
                    and ordered[index].first_step == self._step
                ):
                    point = ordered[index]
                    index += 1
                    after_fault = None
                    if point.arity == 1:
                        if memo is None:
                            memo = self._offset_memo(state, stats)
                        after_fault = memo.after_fault
                    plan = self._fault_plan(point)
                    memory.journal_begin()
                    try:
                        result = machine.run(
                            max_steps=budget,
                            fault_plan=plan,
                            watches=watches,
                            after_fault=after_fault,
                        )
                    finally:
                        memory.journal_rollback()
                        machine.restore(state)
                    if after_fault is not None and memo.settle(result):
                        # only the faulted step ran
                        stats.memo_hits += 1
                        stats.emulated_steps += 1
                    else:
                        stats.emulated_steps += result.steps
                    yield point, result
            if index >= len(ordered) or self._done:
                break
            target = ordered[index].first_step
            if self._compiler is not None and target > self._step:
                # bulk-advance the master walk through compiled
                # superblocks up to the next fault offset
                advanced = self._compiler.execute(
                    machine, target - self._step
                )
                if advanced:
                    stats.emulated_steps += advanced
                    self._step += advanced
                    continue
            if not master_step(machine):
                # the master run ended; points past it (none, for
                # spaces enumerated from the recorded trace) drop
                self._done = True
                break
            stats.emulated_steps += 1
            self._step += 1
        if self._compiler is not None:
            self._compiler.drain_into(stats)
