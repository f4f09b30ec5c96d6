"""The unified fault-campaign engine.

Every campaign flavor — exhaustive, windowed, statistical, k-fault,
chunked — is the same computation: enumerate a :class:`FaultSpace`
over the bad-input trace, execute each point on an
:class:`ExecutionBackend`, and fold the per-point outcomes into one
:class:`CampaignReport`.  ``CampaignEngine.run(model, space, backend)``
is that computation; ``Faulter.run_campaign`` and friends build the
space and call it.

Execution is *streaming* end-to-end: spaces enumerate lazily, backends
pull points through a bounded reorder window (``max_resident_points``)
— executing each window in trace-offset order for machine-state reuse,
then emitting its outcomes back in enumeration order — and the engine
folds the ordered outcome stream into the report incrementally.  Peak
resident fault points are therefore bounded by the window size rather
than the population.  Every report equals the one the paper's literal
protocol (a fresh machine per point) produces; ``tests/reference.py``
is that protocol, and the bit-identity tests compare against it.

Execution is one strategy, the *master walk*: one machine walks the
master trace; each fault snapshots CPU/IO, journals memory, replays
only the suffix and rolls back (the paper's ``fork()`` substitute).
The walk persists across windows for offset-monotone spaces; a window
behind the walk restarts it.

``MultiprocessBackend`` partitions the space declaratively and runs
the master walk on a persistent *warm fleet* of worker processes;
each worker receives a :class:`~repro.faulter.space.SpacePartition` —
the base space spec plus an enumeration-order window, O(1) bytes per
worker instead of O(points) — derives the trace and context locally
(or loads them from the content-addressed
:class:`~repro.faulter.artifacts.ArtifactStore`, when one is
configured), and streams its own share.  Workers reuse the probe's
validated baseline (shipped as the continuation cap + grant marker)
instead of re-validating the oracle per process, live across
campaigns (``evaluate``/``r2r compare`` stop paying derivation
twice), and pull partitions from a shared work-stealing queue, so a
straggler partition no longer gates the whole wave.
"""

from __future__ import annotations

import atexit
import math
import os
import pickle
from dataclasses import dataclass, field
from multiprocessing import get_context
from queue import Empty
from typing import Iterator, Optional, Sequence

from repro.analysis.traceflow import TraceFacts, VariantPrune
from repro.binfmt.reader import read_elf
from repro.binfmt.writer import write_elf
from repro.emu.cpu import ExitProgram, Halt
from repro.emu.jit import TraceCompiler
from repro.emu.machine import Machine
from repro.errors import DecodingError, EmulationError
from repro.faulter import artifacts as artifacts_mod
from repro.faulter.artifacts import ArtifactStats, ArtifactStore
from repro.faulter.models import FaultModel, model_by_name
from repro.faulter.reduction import plan_reduction
from repro.faulter.report import (
    CampaignReport,
    CampaignReportBuilder,
    Fault,
)
from repro.faulter.space import (
    SUFFIX_CAP,
    FaultPoint,
    FaultSpace,
    SpaceContext,
    WindowedSpace,
)
from repro.isa.metadata import effects as isa_effects

# An executed point: (point, outcome class).
PointOutcome = tuple[FaultPoint, str]

# Default reorder-window size for streaming execution: the bound on
# fault points resident at once (pending execution or reordering).
DEFAULT_MAX_RESIDENT = 4096


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
                self.artifact_counters.get(key, 0) + value)

    def merge(self, other: "ExecutionStats") -> None:
        """Fold another run's counters (a worker shard, a chunk) into
        this one; resident peaks combine as a maximum."""
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


def _master_step(machine: Machine) -> bool:
    """Advance the master machine one instruction; False when done."""
    try:
        instruction = machine.fetch_decode(machine.cpu.rip)
        machine.cpu.execute(instruction)
    except (ExitProgram, Halt, EmulationError, DecodingError):
        return False
    return True


def _execution_order(points: Sequence[FaultPoint]) -> list[FaultPoint]:
    return sorted(points, key=lambda p: (p.first_step, p.order))


def _valid_trace(payload) -> bool:
    return isinstance(payload, list) and all(
        isinstance(address, int) for address in payload)


def _valid_flag_states(payload) -> bool:
    return isinstance(payload, list) and all(
        isinstance(state, dict) for state in payload)


def _valid_facts_payload(payload) -> bool:
    return (isinstance(payload, dict)
            and isinstance(payload.get("prune"), dict)
            and isinstance(payload.get("class"), dict)
            and all(isinstance(key, tuple)
                    and (verdict is None
                         or isinstance(verdict, VariantPrune))
                    for key, verdict in payload["prune"].items())
            and all(isinstance(key, tuple)
                    for key in payload["class"]))


def _valid_jit_payload(payload) -> bool:
    return isinstance(payload, dict) and isinstance(
        payload.get("blocks"), list)


def derive_trace(
    image,
    bad_input: bytes,
    max_steps: int,
    artifacts: Optional[ArtifactStore] = None,
    image_key: Optional[str] = None,
) -> list[int]:
    """Record (or load) the bad-input instruction-address trace.

    The trace is a pure function of (image bytes, input, step budget),
    so with an artifact store attached it is content-addressed under
    :func:`~repro.faulter.artifacts.trace_key` and re-recorded only on
    a miss.
    """
    def record() -> list[int]:
        machine = Machine(image, stdin=bad_input)
        return machine.run(max_steps=max_steps, record_trace=True).trace

    if artifacts is not None and image_key is not None:
        return list(artifacts.load_or_derive(
            "trace",
            artifacts_mod.trace_key(image_key, bad_input, max_steps),
            record,
            validate=_valid_trace,
        ))
    return record()


def build_space_context(
    image, bad_input: bytes, model: FaultModel, trace: Sequence[int],
    artifacts: Optional[ArtifactStore] = None,
    image_key: Optional[str] = None,
) -> SpaceContext:
    """Bind ``model`` to a recorded bad-input ``trace``.

    Shared by the engine (over the faulter's cached trace) and by pool
    workers (over a locally re-derived trace), so both enumerate the
    exact same fault points.  ``artifacts``/``image_key`` optionally
    back the traceflow flag replay with the content-addressed store.
    """
    probe = Machine(image, stdin=bad_input)
    # encoding models ignore the ISA metadata, so only the state
    # family pays for deriving it (once per offset; ctx memoizes)
    wants_meta = model.family == "state"

    def variants_at(step: int):
        # A bad-input run that died on an invalid opcode records the
        # failing address as its final trace entry; such a step has
        # no injectable faults (the legacy driver stopped there).
        try:
            insn = probe.fetch_decode(trace[step])
            meta = isa_effects(insn) if wants_meta else None
            return model.variants(insn, meta)
        except (DecodingError, EmulationError):
            return ()

    def mnemonic_at(step: int) -> str:
        try:
            return probe.fetch_decode(trace[step]).name
        except (DecodingError, EmulationError):
            return "?"

    def insn_at(step: int):
        try:
            return probe.fetch_decode(trace[step])
        except (IndexError, DecodingError, EmulationError):
            return None

    def window_at(step: int):
        try:
            return bytes(probe.memory.fetch(trace[step], 15))
        except (IndexError, DecodingError, EmulationError):
            return None

    def replay_flags() -> list:
        # pre-step ZF/CF/SF along the bad-input trace, re-derived
        # deterministically (same discipline as the trace itself)
        machine = Machine(image, stdin=bad_input)
        states: list[dict] = []
        for _ in range(len(trace)):
            flags = machine.cpu.flags
            states.append(
                {"zf": flags.zf, "cf": flags.cf, "sf": flags.sf}
            )
            if not _master_step(machine):
                break
        return states

    def flag_replay() -> list:
        if artifacts is not None and image_key is not None:
            return list(artifacts.load_or_derive(
                "flags",
                artifacts_mod.flags_key(image_key, bad_input,
                                        len(trace)),
                replay_flags,
                validate=_valid_flag_states,
            ))
        return replay_flags()

    def facts_factory() -> TraceFacts:
        facts = TraceFacts(trace, insn_at, window_at, flag_replay)
        facts.loaded_proofs = 0
        if artifacts is not None and image_key is not None:
            payload = artifacts.load(
                "facts",
                artifacts_mod.facts_key(image_key, bad_input,
                                        len(trace), model.name),
                validate=_valid_facts_payload,
            )
            if payload is not None:
                # the reduction hooks are deterministic, so preloaded
                # verdicts are exactly what recomputation would yield
                facts.prune_cache.update(payload["prune"])
                facts.class_cache.update(payload["class"])
                facts.loaded_proofs = (len(payload["prune"])
                                       + len(payload["class"]))
        return facts

    return SpaceContext(
        model, trace, variants_at, mnemonic_at,
        facts_factory=facts_factory,
    )


def _persist_facts(ctx, artifacts, image_key, bad_input) -> None:
    """Save the reduction proofs a campaign computed, if any.

    Only consults facts the campaign actually materialized
    (``ctx._facts``) — never forces the analysis — and only writes
    when new verdicts accumulated beyond what the store supplied.
    """
    if artifacts is None or image_key is None:
        return
    facts = getattr(ctx, "_facts", None)
    if facts is None:
        return
    proofs = len(facts.prune_cache) + len(facts.class_cache)
    if proofs <= getattr(facts, "loaded_proofs", 0):
        return
    if artifacts.save(
        "facts",
        artifacts_mod.facts_key(image_key, bad_input,
                                len(ctx.trace), ctx.model.name),
        {"prune": dict(facts.prune_cache),
         "class": dict(facts.class_cache)},
    ):
        facts.loaded_proofs = proofs


def _executor_store(faulter):
    """(store, image key) a campaign reads and writes artifacts
    through, or (None, None).

    Both come from the faulter-like target: real
    :class:`~repro.faulter.campaign.Faulter` objects and the pool's
    :class:`_WorkerTarget` expose ``artifacts``/``image_digest()``;
    anything else opts out.
    """
    store = getattr(faulter, "artifacts", None)
    if store is None or not hasattr(faulter, "image_digest"):
        return None, None
    return store, faulter.image_digest()


def _warm_jit(compiler, machine, artifacts, image_key) -> None:
    """Import serialized superblock sources from the store, if any."""
    if compiler is None or artifacts is None or image_key is None:
        return
    payload = artifacts.load("jit", artifacts_mod.jit_key(image_key),
                             validate=_valid_jit_payload)
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
        if artifacts.save("jit", artifacts_mod.jit_key(image_key),
                          compiler.export_blocks()):
            compiler.compiled_blocks = 0


class _MasterWalkExecutor:
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
        self._artifacts, self._image_key = _executor_store(faulter)
        self._jit_warmed = False

    def _reset(self) -> None:
        self._machine = Machine(
            self._faulter.image, stdin=self._faulter.bad_input
        )
        if self._compiler is not None:
            self._compiler.attach(self._machine)
            if not self._jit_warmed:
                self._jit_warmed = True
                _warm_jit(self._compiler, self._machine,
                          self._artifacts, self._image_key)
        self._step = 0
        self._done = False

    def finalize(self) -> None:
        _persist_jit(self._compiler, self._artifacts, self._image_key)

    def run_window(
        self, points: Sequence[FaultPoint], stats: ExecutionStats
    ) -> list[PointOutcome]:
        ordered = _execution_order(points)
        if self._machine is None or ordered[0].first_step < self._step:
            self._reset()
        machine = self._machine
        classify = self._faulter.classify
        cap = self._faulter.continuation_cap
        watches = getattr(self._faulter, "watches", ())
        results: list[PointOutcome] = []
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
                results.append((point, classify(result)))
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
            if not _master_step(machine):
                # the master run ended; points past it (none, for
                # spaces enumerated from the recorded trace) drop
                self._done = True
                break
            stats.emulated_steps += 1
            self._step += 1
        if self._compiler is not None:
            self._compiler.drain_into(stats)
        return results


class ExecutionBackend:
    """Protocol: turn enumerated fault points into outcomes.

    The knob attributes are recorded in every report's ``meta``;
    ``trace_compile`` also tells the reduction planner which tier its
    probe runs should use.
    """

    name = "abstract"
    max_resident_points: int | None = None
    trace_compile: bool = True

    def iter_outcomes(
        self,
        faulter,
        model: FaultModel,
        space: FaultSpace,
        ctx: SpaceContext,
        stats: ExecutionStats,
    ) -> Iterator[PointOutcome]:
        """Yield point outcomes in enumeration order, updating
        ``stats``."""
        raise NotImplementedError


def _check_window(max_resident_points: int | None) -> None:
    """Reject a reorder window that could hold no point."""
    if max_resident_points is not None and max_resident_points < 1:
        raise ValueError(
            f"max_resident_points must be >= 1, got {max_resident_points}"
        )


class SequentialBackend(ExecutionBackend):
    """In-process execution on the master walk.

    Points stream through a bounded reorder window of
    ``max_resident_points`` (default ``DEFAULT_MAX_RESIDENT``): each
    window executes offset-sorted, then emits its outcomes back in
    enumeration order.

    ``trace_compile=True`` (the default) runs unfaulted instruction
    stretches through the trace-compiled tier
    (:class:`~repro.emu.jit.TraceCompiler`); ``False`` keeps every
    step on the precise interpreter.
    """

    name = "sequential"

    def __init__(
        self,
        max_resident_points: int | None = None,
        trace_compile: bool = True,
    ):
        _check_window(max_resident_points)
        self.max_resident_points = max_resident_points
        self.trace_compile = trace_compile

    # fleet workers pin (cache dict, key prefix) here so executors —
    # machine, walk position, compiled blocks — survive across
    # partitions and campaigns; None (the default) builds per campaign
    _reuse_executors: Optional[tuple[dict, tuple]] = None

    def _executor(self, faulter, space: FaultSpace, ctx: SpaceContext):
        reuse = self._reuse_executors
        if reuse is None:
            return self._build_executor(faulter, space, ctx)
        cache, prefix = reuse
        key = prefix + (space.cap_policy,)
        executor = cache.get(key)
        if executor is None:
            executor = self._build_executor(faulter, space, ctx)
            if len(cache) >= _MAX_WORKER_EXECUTORS:
                cache.clear()
            cache[key] = executor
        return executor

    def _build_executor(self, faulter, space: FaultSpace,
                        ctx: SpaceContext):
        return _MasterWalkExecutor(
            faulter,
            ctx.model,
            space.cap_policy,
            trace_compile=self.trace_compile,
        )

    def iter_outcomes(self, faulter, model, space, ctx, stats):
        window_size = self.max_resident_points or DEFAULT_MAX_RESIDENT
        executor = None
        window: list[FaultPoint] = []
        for point in space.enumerate(ctx):
            window.append(point)
            if len(window) >= window_size:
                if executor is None:
                    executor = self._executor(faulter, space, ctx)
                yield from self._drain(executor, window, stats)
                window = []
        if window:
            if executor is None:
                executor = self._executor(faulter, space, ctx)
            yield from self._drain(executor, window, stats)
        if executor is not None:
            # persist freshly derived artifacts (JIT block sources)
            # once the campaign's windows are done
            executor.finalize()

    @staticmethod
    def _drain(
        executor,
        window: list[FaultPoint],
        stats: ExecutionStats,
    ) -> Iterator[PointOutcome]:
        """Execute one window; reorder its rows back to enumeration
        order."""
        stats.observe_resident(len(window))
        outcomes = executor.run_window(window, stats)
        outcomes.sort(key=lambda pair: pair[0].order)
        yield from outcomes


class _WorkerTarget:
    """Duck-typed stand-in for a Faulter inside a fleet worker.

    Carries only the probe's validated baseline — the continuation cap
    and the (pickled) fault-detection oracle — so workers never re-run
    the baseline validation.
    """

    def __init__(
        self,
        image,
        bad_input: bytes,
        oracle,
        continuation_cap: int,
        artifacts: Optional[ArtifactStore] = None,
        image_key: Optional[str] = None,
    ):
        self.image = image
        self.bad_input = bad_input
        self.oracle = oracle
        self.watches = oracle.watches()
        self.continuation_cap = continuation_cap
        self.artifacts = artifacts
        self._image_key = image_key

    def image_digest(self) -> Optional[str]:
        return self._image_key

    def classify(self, result) -> str:
        return self.oracle.classify(result)


# Per-process memos for fleet workers.  Deriving the trace and space
# context is deterministic, so each persistent worker process does it
# once per (binary, input[, model]) and reuses it across its queue of
# partitions — and, because the fleet outlives campaigns, across
# campaigns too.  The trace memo keeps one live target; the context
# memo keeps one entry per fault model on top of it (bounded), so an
# ``evaluate`` sweeping several models re-traces nothing.
_WORKER_TRACES: dict = {}
_WORKER_CONTEXTS: dict = {}
_WORKER_STORES: dict = {}
_MAX_WORKER_CONTEXTS = 8
# executors memoized per context entry (machine, walk position and
# compiled blocks stay warm across partitions and campaigns)
_MAX_WORKER_EXECUTORS = 4


def _worker_store(cache_root: Optional[str]):
    """Per-process ArtifactStore memo (one live root at a time)."""
    if cache_root is None:
        return None
    store = _WORKER_STORES.get(cache_root)
    if store is None:
        store = ArtifactStore(cache_root)
        _WORKER_STORES.clear()
        _WORKER_STORES[cache_root] = store
    return store


def _worker_context(
    elf_bytes: bytes,
    bad_input: bytes,
    model_name: str,
    master_max_steps: int,
    store: Optional[ArtifactStore] = None,
):
    key = (elf_bytes, bad_input, model_name, master_max_steps)
    cached = _WORKER_CONTEXTS.get(key)
    if cached is None:
        image_key = artifacts_mod.image_digest(elf_bytes)
        trace_key = (elf_bytes, bad_input, master_max_steps)
        entry = _WORKER_TRACES.get(trace_key)
        if entry is None:
            image = read_elf(elf_bytes)
            trace = derive_trace(
                image, bad_input, master_max_steps,
                artifacts=store, image_key=image_key,
            )
            _WORKER_TRACES.clear()  # one live target per process
            _WORKER_TRACES[trace_key] = (image, trace)
        else:
            image, trace = entry
        model = model_by_name(model_name)
        ctx = build_space_context(
            image, bad_input, model, trace,
            artifacts=store, image_key=image_key,
        )
        # the trailing dict memoizes executors *for this context*; its
        # lifetime is tied to the entry, so an evicted context can
        # never alias a stale executor
        cached = (image, model, ctx, image_key, {})
        if len(_WORKER_CONTEXTS) >= _MAX_WORKER_CONTEXTS:
            _WORKER_CONTEXTS.clear()
        _WORKER_CONTEXTS[key] = cached
    return cached


def _worker(job):
    """Fleet worker: stream one declarative partition of the space.

    The job carries a :class:`~repro.faulter.space.SpacePartition`
    spec, not a point list — the worker derives the bad-input trace
    (deterministic, so identical to the probe's; loaded from the
    artifact store when one is configured) and re-enumerates its own
    window locally.  Returns ``(outcomes, ExecutionStats)``; the stats
    carry this job's artifact hit/miss delta.
    """
    (
        elf_bytes,
        bad_input,
        oracle,
        model_name,
        continuation_cap,
        partition,
        master_max_steps,
        max_resident_points,
        trace_compile,
        cache_root,
    ) = job
    store = _worker_store(cache_root)
    before = store.stats.snapshot() if store is not None else None
    image, model, ctx, image_key, executors = _worker_context(
        elf_bytes, bad_input, model_name, master_max_steps, store=store
    )
    target = _WorkerTarget(
        image,
        bad_input,
        oracle,
        continuation_cap,
        artifacts=store,
        image_key=image_key,
    )
    backend = SequentialBackend(
        max_resident_points=max_resident_points,
        trace_compile=trace_compile,
    )
    # reuse this context's executor across partitions and campaigns —
    # the machine, walk position and compiled blocks stay warm in
    # the persistent worker.  The key pins every knob the executor
    # bakes in; the pickled oracle keeps two different detectors on
    # the same target from ever sharing one (a mismatch only costs a
    # rebuild).
    backend._reuse_executors = (executors, (
        max_resident_points,
        trace_compile,
        continuation_cap,
        pickle.dumps(oracle),
    ))
    stats = ExecutionStats()
    outcomes = list(
        backend.iter_outcomes(target, model, partition, ctx, stats)
    )
    if store is not None:
        stats.merge_artifacts(store.stats.delta(before))
    return outcomes, stats


def default_workers() -> int:
    """Fleet size when the caller does not pick one: 2..8 by core count."""
    return max(2, min(8, os.cpu_count() or 2))


def _picklable_error(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle roundtrip, else a summary.

    Worker exceptions travel back over a queue; an unpicklable one
    would otherwise die in the queue's feeder thread and strand the
    parent waiting for a result that never arrives.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _fleet_main(tasks, results) -> None:
    """Fleet worker loop: pull jobs until the ``None`` sentinel.

    One crashed job never kills the worker — the exception ships back
    tagged with the job id and the loop keeps serving.
    """
    while True:
        item = tasks.get()
        if item is None:
            return
        tag, job = item
        try:
            results.put((tag, "ok", _worker(job)))
        except BaseException as exc:  # noqa: BLE001 — relayed, not hidden
            results.put((tag, "err", _picklable_error(exc)))


class _WorkerFleet:
    """A persistent fleet of campaign workers around one task queue.

    The shared task queue *is* the work-stealing scheduler: idle
    workers pull the next partition the moment they finish one, so a
    straggler partition (dense fault window, crash-heavy region)
    delays only its own worker, never a wave barrier.  Workers are
    daemonic and live until :func:`shutdown_fleet` (registered via
    ``atexit``) or a size change — their per-process memos
    (trace/context/artifact store) are what make the fleet *warm*
    across campaigns.
    """

    # poll interval while waiting on results; each timeout re-checks
    # worker liveness so a killed worker surfaces as an error, not a
    # hang
    _POLL_SECONDS = 1.0

    def __init__(self, size: int):
        self.size = size
        context = (get_context("fork") if hasattr(os, "fork")
                   else get_context("spawn"))
        self._tasks = context.Queue()
        self._results = context.Queue()
        self._epoch = 0
        self._processes = []
        for _ in range(size):
            process = context.Process(
                target=_fleet_main,
                args=(self._tasks, self._results),
                daemon=True,
            )
            process.start()
            self._processes.append(process)

    def alive(self) -> bool:
        return all(p.is_alive() for p in self._processes)

    def pids(self) -> list[int]:
        return [p.pid for p in self._processes]

    def new_epoch(self) -> int:
        """Start a new campaign generation; stale results are dropped.

        An abandoned outcome generator leaves submitted jobs in
        flight; tagging every job with its epoch lets the next
        campaign discard those leftovers instead of mistaking them for
        its own shards.
        """
        self._epoch += 1
        return self._epoch

    def submit(self, epoch: int, index: int, job) -> None:
        self._tasks.put(((epoch, index), job))

    def recv(self, epoch: int) -> tuple[int, tuple]:
        """Next ``(partition index, shard)`` belonging to ``epoch``."""
        while True:
            try:
                tag, status, payload = self._results.get(
                    timeout=self._POLL_SECONDS)
            except Empty:
                if not self.alive():
                    self.shutdown()
                    raise RuntimeError(
                        "campaign worker died unexpectedly; "
                        "fleet torn down") from None
                continue
            if tag[0] != epoch:
                continue
            if status == "err":
                raise payload
            return tag[1], payload

    def shutdown(self) -> None:
        for _ in self._processes:
            try:
                self._tasks.put(None)
            except Exception:
                break
        for process in self._processes:
            process.join(timeout=2.0)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for q in (self._tasks, self._results):
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass
        self._processes = []


_FLEET: Optional[_WorkerFleet] = None


def _acquire_fleet(size: int) -> _WorkerFleet:
    """The shared fleet, (re)built on first use, size change or death."""
    global _FLEET
    fleet = _FLEET
    if fleet is not None and (fleet.size != size or not fleet.alive()):
        fleet.shutdown()
        fleet = None
    if fleet is None:
        fleet = _WorkerFleet(size)
        _FLEET = fleet
    return fleet


def shutdown_fleet() -> None:
    """Tear down the persistent worker fleet (idempotent)."""
    global _FLEET
    if _FLEET is not None:
        _FLEET.shutdown()
        _FLEET = None


atexit.register(shutdown_fleet)


class MultiprocessBackend(ExecutionBackend):
    """Partition the space across the warm worker fleet.

    Partitions are contiguous enumeration-order windows shipped as
    declarative sub-specs (O(1) bytes per job), sized so that the
    shards in flight or parked for reordering together stay within
    ``max_resident_points``.  They go onto the fleet's shared pull
    queue — idle workers steal the next one as they finish, with at
    most ``2 x workers`` jobs outstanding, and the parent reorders
    returning shards back to partition order — so aggregate residency
    stays O(workers x window) while stragglers never gate wall-clock.

    Fleet workers persist across campaigns: each derives the
    trace/context once per target (or loads it from the artifact
    store, when the faulter carries one) and reuses it for every
    partition — and for every later campaign against the same target.
    """

    name = "multiprocess"

    def __init__(
        self,
        workers: Optional[int] = None,
        max_resident_points: int | None = None,
        trace_compile: bool = True,
    ):
        self.workers = workers
        _check_window(max_resident_points)
        self.max_resident_points = max_resident_points
        self.trace_compile = trace_compile

    def _partition_count(self, total: int, workers: int) -> int:
        """Enough partitions for the fleet, capped by the window: up
        to 2 x workers shards are in flight or parked at once, so each
        gets that share of the window."""
        window = self.max_resident_points or DEFAULT_MAX_RESIDENT
        window = max(1, window // (workers * 2))
        return max(workers, math.ceil(total / window))

    def iter_outcomes(self, faulter, model, space, ctx, stats):
        workers = self.workers
        if workers is None:
            workers = default_workers()
        total = space.count(ctx)
        partitions = space.partition(
            ctx, self._partition_count(total, workers)
        )
        if len(partitions) <= 1:
            fallback = SequentialBackend(
                max_resident_points=self.max_resident_points,
                trace_compile=self.trace_compile,
            )
            yield from fallback.iter_outcomes(
                faulter, model, space, ctx, stats
            )
            return
        image = faulter.image
        if isinstance(image, (bytes, bytearray)):
            elf_bytes = bytes(image)
        else:
            elf_bytes = write_elf(image)
        store = getattr(faulter, "artifacts", None)
        cache_root = str(store.root) if store is not None else None
        jobs = [
            (
                elf_bytes,
                faulter.bad_input,
                faulter.oracle,
                model.name,
                faulter.continuation_cap,
                partition,
                faulter.max_steps,
                self.max_resident_points,
                self.trace_compile,
                cache_root,
            )
            for partition in partitions
        ]
        pool_size = min(workers, len(jobs))
        fleet = _acquire_fleet(pool_size)
        epoch = fleet.new_epoch()
        # shared pull queue, bounded look-ahead, in-order folding
        outstanding_cap = pool_size * 2
        buffered: dict[int, tuple] = {}
        submitted = 0
        next_emit = 0
        while next_emit < len(jobs):
            while (submitted < len(jobs)
                   and submitted - next_emit < outstanding_cap):
                fleet.submit(epoch, submitted, jobs[submitted])
                submitted += 1
            index, shard = fleet.recv(epoch)
            buffered[index] = shard
            while next_emit in buffered:
                yield from self._fold(buffered.pop(next_emit), stats)
                next_emit += 1
            if buffered:
                stats.observe_resident(sum(
                    len(shard[0]) for shard in buffered.values()))

    @staticmethod
    def _fold(shard, stats) -> list[PointOutcome]:
        outcomes, shard_stats = shard
        stats.merge(shard_stats)
        stats.observe_resident(len(outcomes))
        return outcomes


BACKENDS = {
    "sequential": SequentialBackend,
    "multiprocess": MultiprocessBackend,
}


def _check_optional_bool(name: str, value) -> None:
    if value is not None and not isinstance(value, bool):
        raise ValueError(
            f"{name} must be True, False or None, got {value!r}")


@dataclass(frozen=True)
class EngineConfig:
    """Declarative engine configuration: every campaign knob, once.

    Validation happens at *construction*, so a bad combination fails
    where it is written; ``resolve`` turns the config into a concrete
    :class:`ExecutionBackend`.

    ``backend`` names a registered backend (``"sequential"``/
    ``"multiprocess"``) or is ``None`` (multiprocess when ``workers``
    is given, sequential otherwise).  ``to_dict``/``from_dict``
    roundtrip losslessly.
    """

    backend: Optional[str] = None
    workers: Optional[int] = None
    k_faults: int = 1
    samples: int = 200
    seed: int = 0
    max_resident_points: Optional[int] = None
    trace_compile: Optional[bool] = None
    reduce: Optional[bool] = None
    chunk_units: Optional[bool] = None
    artifact_cache: Optional[bool] = None
    cache_dir: Optional[str] = None

    def __post_init__(self):
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; known: "
                f"{sorted(BACKENDS)}")
        if self.workers is not None:
            if self.workers < 1:
                raise ValueError(
                    f"workers must be >= 1, got {self.workers}")
            if self.backend == "sequential":
                raise ValueError(
                    "workers= only applies to the multiprocess "
                    "backend, not 'sequential'")
        if self.k_faults < 1:
            raise ValueError(
                f"k_faults must be >= 1, got {self.k_faults}")
        if self.samples < 1:
            raise ValueError(
                f"samples must be >= 1, got {self.samples}")
        _check_window(self.max_resident_points)
        _check_optional_bool("trace_compile", self.trace_compile)
        _check_optional_bool("reduce", self.reduce)
        _check_optional_bool("chunk_units", self.chunk_units)
        if self.chunk_units and self.k_faults > 1:
            raise ValueError(
                "chunk_units= applies to single-fault campaigns only "
                f"(got k_faults={self.k_faults})")
        _check_optional_bool("artifact_cache", self.artifact_cache)
        if self.cache_dir is not None and not isinstance(
                self.cache_dir, (str, os.PathLike)):
            raise ValueError(
                f"cache_dir must be a path, got {self.cache_dir!r}")
        if self.artifact_cache is False and self.cache_dir is not None:
            raise ValueError(
                "cache_dir= conflicts with artifact_cache=False")

    def resolve(self) -> ExecutionBackend:
        """Concrete backend for this configuration."""
        knobs = {
            "max_resident_points": self.max_resident_points,
            "trace_compile": self.trace_compile is not False,
        }
        if self.backend == "multiprocess" or (
                self.backend is None and self.workers is not None):
            return MultiprocessBackend(workers=self.workers, **knobs)
        return SequentialBackend(**knobs)

    def artifact_store(self) -> Optional[ArtifactStore]:
        """The configured :class:`ArtifactStore`, or ``None`` (off).

        The cache is opt-in: ``artifact_cache=True`` enables it at the
        default (``XDG_CACHE_HOME``-honoring) root, and naming a
        ``cache_dir`` implies enabling it there.
        """
        enabled = self.artifact_cache is True or (
            self.artifact_cache is None and self.cache_dir is not None)
        if not enabled:
            return None
        return ArtifactStore(self.cache_dir)

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "workers": self.workers,
            "k_faults": self.k_faults,
            "samples": self.samples,
            "seed": self.seed,
            "max_resident_points": self.max_resident_points,
            "trace_compile": self.trace_compile,
            "reduce": self.reduce,
            "chunk_units": self.chunk_units,
            "artifact_cache": self.artifact_cache,
            "cache_dir": (str(self.cache_dir)
                          if self.cache_dir is not None else None),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EngineConfig":
        return cls(
            backend=payload.get("backend"),
            workers=payload.get("workers"),
            k_faults=payload.get("k_faults", 1),
            samples=payload.get("samples", 200),
            seed=payload.get("seed", 0),
            max_resident_points=payload.get("max_resident_points"),
            trace_compile=payload.get("trace_compile"),
            reduce=payload.get("reduce"),
            chunk_units=payload.get("chunk_units"),
            artifact_cache=payload.get("artifact_cache"),
            cache_dir=payload.get("cache_dir"),
        )


class CampaignEngine:
    """Runs any fault space on any backend for one faulter target."""

    def __init__(self, faulter):
        self.faulter = faulter
        self._contexts: dict[str, SpaceContext] = {}

    def context(self, model: FaultModel | str) -> SpaceContext:
        """Space context for ``model`` over the cached bad-input trace."""
        if isinstance(model, str):
            model = model_by_name(model)
        cached = self._contexts.get(model.name)
        if cached is not None:
            return cached
        store, image_key = _executor_store(self.faulter)
        ctx = build_space_context(
            self.faulter.image,
            self.faulter.bad_input,
            model,
            self.faulter.trace(),
            artifacts=store,
            image_key=image_key,
        )
        self._contexts[model.name] = ctx
        return ctx

    def run(
        self,
        model: FaultModel | str,
        space: FaultSpace,
        backend: Optional[ExecutionBackend] = None,
        collect_outcomes: bool = False,
        target: Optional[str] = None,
        reduce: Optional[bool] = None,
    ) -> CampaignReport:
        """Execute ``space`` on ``backend`` (default: a
        :class:`SequentialBackend`); fold the streamed outcomes into
        one report incrementally.

        ``reduce`` toggles equivalence reduction
        (:mod:`repro.faulter.reduction`): ``None``/``True`` prune the
        space when a plan applies (the report still covers every point
        of the full space, with elided points inheriting their proven
        verdicts and ``meta["reduction"]`` carrying the certificate);
        ``False`` forces the full enumeration, for bit-identity
        checks.
        """
        if isinstance(model, str):
            model = model_by_name(model)
        store = getattr(self.faulter, "artifacts", None)
        # snapshot before context/trace derivation so their hits and
        # misses land in this report's counters too
        before = store.stats.snapshot() if store is not None else None
        ctx = self.context(model)
        if backend is None:
            backend = SequentialBackend()
        plan = None
        if reduce is False:
            reduction_meta: dict = {
                "enabled": False, "reason": "disabled"
            }
        else:
            plan, reason = plan_reduction(
                self.faulter,
                model,
                ctx,
                space,
                trace_compile=backend.trace_compile,
            )
            if plan is None:
                reduction_meta = {"enabled": False, "reason": reason}
        stats = ExecutionStats()
        builder = CampaignReportBuilder(
            target=target if target is not None else self.faulter.name,
            model=model.name,
            trace_length=len(ctx.trace),
            fault_for=lambda point: self._fault_for(point, ctx, model),
            collect_outcomes=collect_outcomes,
        )
        if plan is None:
            for point, outcome in backend.iter_outcomes(
                self.faulter, model, space, ctx, stats
            ):
                builder.add(point, outcome)
        else:
            executed = backend.iter_outcomes(
                self.faulter, model, plan.space, ctx, stats
            )
            for point, outcome in plan.expand(executed):
                builder.add(point, outcome)
            # plan.expand pulls exactly one outcome per survivor, which
            # leaves the backend generator one step short of exhaustion
            # — drive it to the end so post-loop cleanup (artifact
            # persistence) runs
            for _ in executed:
                pass
            plan.merge_stats(stats)
            reduction_meta = plan.certificate().to_dict()
        _persist_facts(ctx, *_executor_store(self.faulter),
                       self.faulter.bad_input)
        return builder.finish(meta=_report_meta(
            backend, space.describe(), stats, reduction_meta,
            _artifacts_meta(store, before, stats)))

    def run_chunked(
        self,
        model: FaultModel | str,
        plan,
        backend: Optional[ExecutionBackend] = None,
        collect_outcomes: bool = False,
        target: Optional[str] = None,
    ) -> CampaignReport:
        """Exhaustive campaign chunked per rewrite unit.

        The bad-input trace is partitioned by which
        :class:`~repro.disasm.units.RewriteUnit` owns each executed
        address (trampoline/injected code falls into a residual
        ``<outside>`` chunk, so coverage stays total), and each chunk
        runs as its own :class:`WindowedSpace` sub-campaign — a large
        ``.text`` streams through the backend's
        ``max_resident_points`` bound one function at a time.  Each
        outcome's point is re-keyed to its global exhaustive order, so
        the merged report is bit-identical to an unchunked
        :class:`ExhaustiveSpace` run; ``meta["units"]`` carries
        per-function rollups.  Equivalence reduction is skipped (the
        reduced and unreduced reports are proven identical, so nothing
        is lost beyond the pruning speedup).
        """
        if isinstance(model, str):
            model = model_by_name(model)
        store = getattr(self.faulter, "artifacts", None)
        before = store.stats.snapshot() if store is not None else None
        ctx = self.context(model)
        if backend is None:
            backend = SequentialBackend()

        chunks: dict[str, list[int]] = {}
        unit_info: dict[str, dict] = {}
        for step, address in enumerate(ctx.trace):
            unit = plan.unit_at(address)
            name = unit.name if unit is not None else "<outside>"
            chunks.setdefault(name, []).append(step)
            if unit is not None and name not in unit_info:
                unit_info[name] = {
                    "start": unit.start,
                    "end": unit.end,
                    "opaque": unit.opaque,
                    "origin": unit.origin,
                }

        stats = ExecutionStats()
        rollups: dict[str, dict] = {}
        rows: list[tuple[int, FaultPoint, str]] = []
        cumulative = ctx._cumulative_counts()
        for name in sorted(chunks, key=lambda n: chunks[n][0]):
            steps = chunks[name]
            chunk_stats = ExecutionStats()
            outcomes: dict[str, int] = {}
            variant_seen: dict[int, int] = {}
            space = WindowedSpace(indices=tuple(steps))
            for point, outcome in backend.iter_outcomes(
                self.faulter, model, space, ctx, chunk_stats
            ):
                first = point.first_step
                index = variant_seen.get(first, 0)
                variant_seen[first] = index + 1
                prior = cumulative[first - 1] if first else 0
                order = prior + index
                rows.append((
                    order,
                    FaultPoint(order, point.steps, point.details),
                    outcome,
                ))
                outcomes[outcome] = outcomes.get(outcome, 0) + 1
            stats.merge(chunk_stats)
            rollups[name] = {
                **unit_info.get(name, {}),
                "trace_steps": len(steps),
                "points": sum(outcomes.values()),
                "outcomes": outcomes,
            }

        rows.sort(key=lambda row: row[0])
        builder = CampaignReportBuilder(
            target=target if target is not None else self.faulter.name,
            model=model.name,
            trace_length=len(ctx.trace),
            fault_for=lambda point: self._fault_for(point, ctx, model),
            collect_outcomes=collect_outcomes,
        )
        for _, point, outcome in rows:
            builder.add(point, outcome)
        _persist_facts(ctx, *_executor_store(self.faulter),
                       self.faulter.bad_input)
        meta = _report_meta(
            backend, f"unit-chunked[{len(chunks)}]", stats,
            {"enabled": False, "reason": "chunked"},
            _artifacts_meta(store, before, stats))
        meta["units"] = rollups
        return builder.finish(meta=meta)

    @staticmethod
    def _fault_for(
        point: FaultPoint, ctx: SpaceContext, model: FaultModel
    ) -> Fault:
        first = point.first_step
        detail = point.details[0]
        if point.arity > 1:
            # legacy multi-fault format: (d0, s1, d1, s2, d2, ...)
            extra: list = []
            for step, d in zip(point.steps[1:], point.details[1:]):
                extra.extend((step, d))
            detail = (detail, *extra)
        return Fault(
            model.name,
            first,
            ctx.trace[first],
            ctx.mnemonic(first),
            detail,
        )


def _artifacts_meta(store, before, stats) -> dict:
    """Report-meta rollup of cache activity for one campaign.

    Merges the parent store's delta since ``before`` (trace/flags
    derivation in :meth:`CampaignEngine.context`, sequential-executor
    loads) with the per-worker counters the multiprocess backend folds
    into ``stats``.  Lives in ``meta`` (``compare=False``), so counter
    differences never break report bit-identity.
    """
    counters = dict(stats.artifact_counters)
    if store is None and not counters:
        return {"enabled": False}
    merged = ArtifactStats()
    if store is not None and before is not None:
        merged.merge(store.stats.delta(before))
    if counters:
        merged.merge(counters)
    meta = {
        "enabled": True,
        "hits": merged.hits,
        "misses": merged.misses,
        "saves": merged.saves,
        "derive_seconds": round(merged.derive_seconds, 6),
    }
    if store is not None:
        meta["cache_dir"] = str(store.root)
    return meta


def _report_meta(backend, space: str, stats: ExecutionStats,
                 reduction: dict, artifacts: dict) -> dict:
    """Execution metadata of one campaign (``meta`` is excluded from
    report equality)."""
    return {
        "backend": backend.name,
        "space": space,
        "max_resident_points": backend.max_resident_points,
        "peak_resident_points": stats.peak_resident_points,
        "emulated_steps": stats.emulated_steps,
        "trace_compile": backend.trace_compile,
        "compiled_steps": stats.compiled_steps,
        "precise_steps": stats.emulated_steps - stats.compiled_steps,
        "compile_seconds": round(stats.compile_seconds, 6),
        "compile_divergences": stats.divergences,
        "reduction": reduction,
        "artifacts": artifacts,
    }
