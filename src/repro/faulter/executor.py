"""The master walk: the one code path that runs a faulted suffix.

One machine walks the bad-input trace forward; at each fault offset it
snapshots CPU/IO, journals memory, runs the faulted continuation and
rolls back (the paper's ``fork()`` substitute).  Every campaign point
runs here, on both backends, and so do the reduction planner's probe
runs (:mod:`repro.faulter.reduction`): this module sits below both the
engine and the planner, so each imports it without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.emu.cpu import ExitProgram, Halt
from repro.emu.jit import TraceCompiler
from repro.emu.machine import Machine, RunResult
from repro.errors import DecodingError, EmulationError
from repro.faulter import artifacts as artifacts_mod
from repro.faulter.models import FaultModel
from repro.faulter.space import SUFFIX_CAP, FaultPoint

# An executed point: (point, outcome class).
PointOutcome = tuple[FaultPoint, str]


@dataclass
class ExecutionStats:
    """Counters a backend fills while streaming outcomes.

    ``compiled_steps`` counts the subset of ``emulated_steps`` executed
    by the trace-compiled tier; ``divergences`` counts compiled blocks
    that aborted back to the precise stepper (guest fault or
    self-modifying code); ``compile_seconds`` is wall time spent
    lifting/lowering superblocks.
    """

    emulated_steps: int = 0
    peak_resident_points: int = 0
    compiled_steps: int = 0
    divergences: int = 0
    compile_seconds: float = 0.0
    artifact_counters: dict = field(default_factory=dict)

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
        """Fold another run's counters (a worker shard, the probe
        pass) into this one; resident peaks combine as a maximum."""
        self.emulated_steps += other.emulated_steps
        self.observe_resident(other.peak_resident_points)
        self.compiled_steps += other.compiled_steps
        self.divergences += other.divergences
        self.compile_seconds += other.compile_seconds
        self.merge_artifacts(other.artifact_counters)


def _fault_plan(
    model: FaultModel, point: FaultPoint, base_step: int
) -> dict:
    """Effect plan keyed by steps relative to a resume point
    ``base_step``."""
    return {
        step - base_step: model.effect(detail)
        for step, detail in zip(point.steps, point.details)
    }


def master_step(machine: Machine) -> bool:
    """Advance the master machine one instruction; False when done."""
    try:
        instruction = machine.fetch_decode(machine.cpu.rip)
        machine.cpu.execute(instruction)
    except (ExitProgram, Halt, EmulationError, DecodingError):
        return False
    return True


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
        drain into ``stats`` last.
        """
        ordered = _execution_order(points)
        if self._machine is None or ordered[0].first_step < self._step:
            self._reset()
        machine = self._machine
        cap = self._faulter.continuation_cap
        watches = self._faulter.watches
        index = 0
        while index < len(ordered):
            while (
                index < len(ordered)
                and ordered[index].first_step == self._step
            ):
                point = ordered[index]
                index += 1
                plan = _fault_plan(self._model, point, self._step)
                if self._cap_policy == SUFFIX_CAP:
                    budget = cap
                else:
                    budget = max(1, cap - self._step)
                state = machine.snapshot()
                machine.memory.journal_begin()
                try:
                    result = machine.run(
                        max_steps=budget,
                        fault_plan=plan,
                        watches=watches,
                    )
                finally:
                    machine.memory.journal_rollback()
                    machine.restore(state)
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
