"""The unified fault-campaign engine.

Every campaign flavor — exhaustive, windowed, k-fault —
is the same computation: enumerate a :class:`FaultSpace`
over the bad-input trace, execute each point on an
:class:`ExecutionBackend`, and fold the per-point outcomes into one
:class:`CampaignReport`.  ``CampaignEngine.run(model, space, backend)``
is that computation; ``Faulter.run_campaign`` and friends build the
space and call it.

Execution is *streaming* end-to-end: spaces enumerate lazily, backends
pull points through a fixed reorder window (``MAX_RESIDENT_POINTS``)
— executing each window in trace-offset order for machine-state reuse,
then emitting its outcomes back in enumeration order — and the engine
folds the ordered outcome stream into the report incrementally.  Peak
resident fault points are therefore bounded by the window size rather
than the population.  The equivalence reduction
(:mod:`repro.faulter.reduction`) is a per-point short-circuit in that
stream: a point with a proof takes its proven outcome as it is
enumerated and joins its window's executed outcomes in the reorder
sort; only the other points fill the window.  Every report equals the
one the paper's literal protocol (a fresh machine per point)
produces; ``tests/reference.py`` is that protocol, and the
bit-identity tests compare against it.

Execution is one strategy, the *master walk*
(:mod:`repro.faulter.executor`): one machine walks the master trace;
each fault snapshots CPU/IO, journals memory, replays only the suffix
and rolls back (the paper's ``fork()`` substitute).  The walk persists
across windows for offset-monotone spaces; a window behind the walk
restarts it.

``MultiprocessBackend`` partitions the space declaratively and runs
the master walk on a persistent *warm fleet* of worker processes (a
stdlib process pool); each job carries the campaign's ``Faulter`` —
its image as ELF bytes and its validated baselines, so no worker
re-runs the good or bad input — a
:class:`~repro.faulter.space.SpacePartition` (the space spec plus an
enumeration-order window) and whether to reduce.  A worker keeps one
live ``Faulter`` per target, whose trace and contexts it derives once
(or loads from the content-addressed
:class:`~repro.faulter.artifacts.ArtifactStore`, when one is
configured), and streams its own share, reduction included; the
parent folds the shards' outcomes and tallies.  Workers live across
campaigns (``evaluate``/``r2r compare`` stop paying derivation twice)
and pull partitions from the pool's shared queue, so a straggler
partition no longer gates the whole wave.
"""

from __future__ import annotations

import atexit
import gc
import os
import weakref
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from itertools import islice
from multiprocessing import get_context
from typing import Iterator, Optional, Sequence

from repro.analysis.traceflow import TraceFacts, VariantPrune
from repro.emu.machine import Machine
from repro.errors import DecodingError, EmulationError
from repro.faulter import artifacts as artifacts_mod
from repro.faulter.artifacts import ArtifactStats, ArtifactStore
from repro.faulter.executor import (
    ExecutionStats,
    MasterWalkExecutor,
    PointOutcome,
    master_step,
)
from repro.faulter.models import FaultModel, model_by_name
from repro.faulter.reduction import ReductionPlan, plan_reduction
from repro.faulter.report import (
    CampaignReport,
    CampaignReportBuilder,
    Fault,
)
from repro.faulter.space import (
    FaultPoint,
    FaultSpace,
    SpaceContext,
)
from repro.isa.metadata import effects as isa_effects

# Reorder-window size for streaming execution: the bound on fault
# points resident at once (pending execution or reordering).  Backends
# read it at call time, so a test may patch it to force many windows.
MAX_RESIDENT_POINTS = 4096


def _valid_trace(payload) -> bool:
    return isinstance(payload, list) and all(
        isinstance(address, int) for address in payload)


def _valid_flag_states(payload) -> bool:
    return isinstance(payload, list) and all(
        isinstance(state, dict) for state in payload)


def _valid_facts_payload(payload) -> bool:
    return (isinstance(payload, dict)
            and isinstance(payload.get("prune"), dict)
            and all(isinstance(key, tuple)
                    and (verdict is None
                         or isinstance(verdict, VariantPrune))
                    for key, verdict in payload["prune"].items()))


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
            if not master_step(machine):
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
        if artifacts is not None and image_key is not None:
            # the reduction hooks are deterministic, so preloaded
            # verdicts are exactly what recomputation would yield
            for part in artifacts.load_parts(
                "facts",
                artifacts_mod.facts_key(image_key, bad_input,
                                        len(trace), model.name),
                validate=_valid_facts_payload,
                fold=_fold_facts,
            ):
                facts.prune_cache.update(part["prune"])
        # the proofs the store holds: the first ``loaded_proofs``
        # entries of the prune cache
        facts.loaded_proofs = len(facts.prune_cache)
        return facts

    return SpaceContext(
        model, trace, variants_at, mnemonic_at,
        facts_factory=facts_factory,
    )


def _fold_facts(parts: list) -> dict:
    """One ``facts`` payload holding every proof of ``parts``."""
    prune: dict = {}
    for part in parts:
        prune.update(part["prune"])
    return {"prune": _shared_proofs(prune)}


def _shared_proofs(prune: dict) -> dict:
    """``prune`` with each set of equal proofs as one object, which a
    pickle then stores once."""
    seen: dict = {}
    return {
        key: seen.setdefault(verdict, verdict)
        for key, verdict in prune.items()
    }


def _persist_facts(ctx, faulter) -> None:
    """Append the reduction proofs derived since the facts last loaded
    or saved, if any, as one part of the store's ``facts`` entry.

    Only consults facts the campaign actually materialized
    (``ctx._facts``) — never forces the analysis — and never reads
    the store: the fleet workers of one campaign each append their
    own proofs, and the next process to load the entry merges the
    parts (see :meth:`ArtifactStore.load_parts`).
    """
    artifacts = faulter.artifacts
    if artifacts is None:
        return
    facts = getattr(ctx, "_facts", None)
    if facts is None:
        return
    stored = facts.loaded_proofs
    if len(facts.prune_cache) <= stored:
        return
    derived = dict(islice(facts.prune_cache.items(), stored, None))
    key = artifacts_mod.facts_key(
        faulter.image_digest(),
        faulter.bad_input,
        len(ctx.trace),
        ctx.model.name,
    )
    if artifacts.append("facts", key, {"prune": _shared_proofs(derived)}):
        facts.loaded_proofs = len(facts.prune_cache)


class ExecutionBackend:
    """Protocol: turn enumerated fault points into outcomes.

    ``trace_compile`` is the tier every master walk of the backend
    runs on (recorded in each report's ``meta``); only the precise
    reference ``SequentialBackend(trace_compile=False)`` turns it off.
    """

    name = "abstract"
    trace_compile: bool = True

    def executor(
        self, faulter, model: FaultModel, cap_policy: str
    ) -> MasterWalkExecutor:
        """A fresh master walk on this backend's tier."""
        return MasterWalkExecutor(
            faulter, model, cap_policy, trace_compile=self.trace_compile
        )

    def iter_outcomes(
        self,
        faulter,
        model: FaultModel,
        space: FaultSpace,
        ctx: SpaceContext,
        stats: ExecutionStats,
        plan: Optional[ReductionPlan] = None,
    ) -> Iterator[PointOutcome]:
        """Yield every point's outcome in enumeration order, updating
        ``stats``; with a ``plan``, points it proves take their proven
        outcome without running."""
        raise NotImplementedError


class SequentialBackend(ExecutionBackend):
    """In-process execution on the master walk.

    Points stream through a reorder window of ``MAX_RESIDENT_POINTS``
    points to execute: each window executes offset-sorted, then emits
    its outcomes, and those of the proven points enumerated with it,
    back in enumeration order.

    ``trace_compile=True`` (the default) runs unfaulted instruction
    stretches through the trace-compiled tier
    (:class:`~repro.emu.jit.TraceCompiler`); ``False`` keeps every
    step on the precise interpreter — the reference the bench's spot
    check and the tier-agreement tests compare against.
    """

    name = "sequential"

    def __init__(self, trace_compile: bool = True):
        self.trace_compile = trace_compile

    def iter_outcomes(self, faulter, model, space, ctx, stats, plan=None):
        executor = self.executor(faulter, model, space.cap_policy)
        yield from self.stream(executor, space, ctx, stats, plan)

    @staticmethod
    def stream(
        executor: MasterWalkExecutor,
        space: FaultSpace,
        ctx: SpaceContext,
        stats: ExecutionStats,
        plan: Optional[ReductionPlan] = None,
    ) -> Iterator[PointOutcome]:
        """Run ``space`` on ``executor`` one reorder window at a time,
        settling each point ``plan`` proves as it is enumerated.

        A fleet worker hands in the executor it keeps warm across
        partitions and campaigns; ``iter_outcomes`` a fresh one.
        """
        dispose = plan.disposer(stats) if plan is not None else None
        window: list[FaultPoint] = []
        proven: list[PointOutcome] = []
        for point in space.enumerate(ctx):
            if dispose is not None:
                outcome = dispose(point)
                if outcome is not None:
                    proven.append((point, outcome))
                    continue
            window.append(point)
            if len(window) >= MAX_RESIDENT_POINTS:
                yield from _drain(executor, window, proven, stats)
                window, proven = [], []
        if window or proven:
            yield from _drain(executor, window, proven, stats)
        # persist freshly derived artifacts (JIT block sources) once
        # the campaign's windows are done
        executor.finalize()


def _drain(
    executor,
    window: list[FaultPoint],
    proven: list[PointOutcome],
    stats: ExecutionStats,
) -> Iterator[PointOutcome]:
    """Execute one window; merge its rows with the proven ones
    enumerated alongside, back in enumeration order."""
    stats.observe_resident(len(window))
    outcomes = executor.run_window(window, stats) if window else []
    outcomes += proven
    outcomes.sort(key=lambda pair: pair[0].order)
    yield from outcomes


# A fleet worker's live target: (key, Faulter, executors).  The key is
# everything that determines results — image, inputs, oracle, step
# budget and artifact store — so a re-provisioned parent Faulter for
# the same target still finds it warm.  Its trace and per-model
# contexts live in the Faulter; its executors (machine, walk position,
# compiled blocks), one per model and cap policy, live beside it.
_LIVE: Optional[tuple] = None


def _live_target(faulter) -> tuple:
    """This worker's (Faulter, executors) for the shipped ``faulter``."""
    global _LIVE
    store = faulter.artifacts
    key = (
        faulter.elf_bytes(),
        faulter.good_input,
        faulter.bad_input,
        faulter.oracle,
        faulter.max_steps,
        str(store.root) if store is not None else None,
    )
    if _LIVE is None or _LIVE[0] != key:
        _LIVE = (key, faulter, {})
    return _LIVE[1], _LIVE[2]


def _run_partition(job) -> tuple[list[PointOutcome], ExecutionStats]:
    """Fleet worker: run one declarative partition of the space.

    The job is ``(faulter, model name, partition, reduce)``: the
    parent's :class:`~repro.faulter.campaign.Faulter` (see its
    ``__getstate__``), a :class:`~repro.faulter.space.SpacePartition`
    spec, not a point list, and whether the campaign is reduced.  The
    worker derives the bad-input trace (loaded from the artifact store
    when one is configured), re-enumerates its own window locally and
    settles the points its own reduction plan proves.  The stats carry
    this job's reduction tallies and artifact hit/miss delta.
    """
    shipped, model_name, partition, reduce = job
    faulter, executors = _live_target(shipped)
    store = faulter.artifacts
    before = store.stats.snapshot() if store is not None else None
    ctx = faulter.engine().context(model_name)
    key = (model_name, partition.cap_policy)
    executor = executors.get(key)
    if executor is None:
        executor = executors[key] = SequentialBackend().executor(
            faulter, ctx.model, partition.cap_policy)
    stats = ExecutionStats()
    plan = ReductionPlan(faulter, ctx) if reduce else None
    outcomes = list(
        SequentialBackend.stream(executor, partition, ctx, stats, plan))
    # the parent derives no proofs for a fleet campaign, so each worker
    # appends its own
    _persist_facts(ctx, faulter)
    if store is not None:
        stats.merge_artifacts(store.stats.delta(before))
    return outcomes, stats


def default_workers() -> int:
    """Fleet size when the caller does not pick one: 2..8 by core count."""
    return max(2, min(8, os.cpu_count() or 2))


class _WorkerFleet:
    """The persistent campaign workers: a stdlib process pool.

    The pool's shared call queue is the work-stealing scheduler: an
    idle worker takes the next partition the moment it finishes one,
    so a straggler partition delays only its own worker.  With the
    fork start method the pool forks all its workers on the first
    submit, and they live until :func:`shutdown_fleet` (registered via
    ``atexit``), a size change or a worker death.  Their per-process
    live target is what makes the fleet *warm* across campaigns.

    A campaign tracks its own jobs in ``epoch``, a dict from future to
    partition index: it waits only on those and cancels the ones it
    leaves behind, so no result ever reaches another campaign.
    """

    def __init__(self, size: int):
        self.size = size
        context = get_context("fork" if hasattr(os, "fork") else "spawn")
        self._pool = ProcessPoolExecutor(size, mp_context=context)

    def broken(self) -> bool:
        """A worker died; the pool serves no more jobs."""
        return bool(self._pool._broken)

    def submit(self, epoch: dict, index: int, job) -> None:
        epoch[self._pool.submit(_run_partition, job)] = index

    def recv(self, epoch: dict) -> tuple[int, tuple]:
        """Next finished ``(partition index, shard)`` among ``epoch``;
        a worker's exception re-raises here."""
        done, _ = wait(epoch, return_when=FIRST_COMPLETED)
        future = min(done, key=epoch.__getitem__)
        return epoch.pop(future), future.result()

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)


_FLEET: Optional[_WorkerFleet] = None


def _acquire_fleet(size: int) -> _WorkerFleet:
    """The shared fleet, (re)built on first use, size change or death."""
    global _FLEET
    if _FLEET is not None and (_FLEET.size != size or _FLEET.broken()):
        shutdown_fleet()
    if _FLEET is None:
        _FLEET = _WorkerFleet(size)
    return _FLEET


def shutdown_fleet() -> None:
    """Tear down the persistent worker fleet (idempotent).

    The pool's internals (executor, call queue, wakeup pipes, manager
    thread) hold each other in cycles; collecting them here keeps that
    collection out of whatever the caller runs next.
    """
    global _FLEET
    if _FLEET is not None:
        _FLEET.shutdown()
        _FLEET = None
        gc.collect()


atexit.register(shutdown_fleet)


class MultiprocessBackend(ExecutionBackend):
    """Partition the space across the warm worker fleet.

    Partitions are contiguous enumeration-order windows shipped as
    declarative sub-specs (O(1) points per job), sized so that the
    shards in flight or parked for reordering together stay within
    ``MAX_RESIDENT_POINTS``.  They go onto the fleet's shared queue —
    idle workers steal the next one as they finish, with at most
    ``2 x workers`` jobs outstanding, and the parent reorders
    returning shards back to partition order — so aggregate residency
    stays O(workers x window) while stragglers never gate wall-clock.

    The sizes count every point of a window.  A reduced campaign's
    worker settles its own window's proven points and returns their
    outcomes with the executed ones, plus the reduction tallies, which
    fold in partition order; the parent disposes no point.  Resident
    points count the points that execute, as in the sequential
    stream.

    Each job carries the campaign's Faulter.  A worker keeps one live
    Faulter per target — its trace, contexts and executors — and
    reuses it for every partition and every later campaign against
    the same target.  A dead worker fails the campaign with
    ``BrokenProcessPool`` and tears the fleet down; the next campaign
    forks a fresh one.
    """

    name = "multiprocess"

    def __init__(self, workers: Optional[int] = None):
        self.workers = workers

    def iter_outcomes(self, faulter, model, space, ctx, stats, plan=None):
        workers = self.workers
        if workers is None:
            workers = default_workers()
        # up to 2 x workers shards are in flight or parked at once, so
        # each partition gets that share of the window
        window = max(1, MAX_RESIDENT_POINTS // (workers * 2))
        partitions = space.partition(ctx, workers, max_points=window)
        if len(partitions) <= 1:
            fallback = SequentialBackend()
            yield from fallback.iter_outcomes(
                faulter, model, space, ctx, stats, plan
            )
            return
        jobs = [(faulter, model.name, partition, plan is not None)
                for partition in partitions]
        pool_size = min(workers, len(jobs))
        fleet = _acquire_fleet(pool_size)
        # bounded look-ahead, in-order folding
        outstanding_cap = pool_size * 2
        epoch: dict = {}
        buffered: dict[int, tuple] = {}
        submitted = 0
        next_emit = 0
        try:
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
                        _executed(shard) for shard in buffered.values()))
        except BrokenProcessPool:
            shutdown_fleet()
            raise
        finally:
            for future in epoch:
                future.cancel()

    @staticmethod
    def _fold(shard, stats) -> list[PointOutcome]:
        outcomes, shard_stats = shard
        stats.merge(shard_stats)
        stats.observe_resident(_executed(shard))
        return outcomes


def _executed(shard) -> int:
    """The points of a fleet shard that ran."""
    outcomes, shard_stats = shard
    return len(outcomes) - shard_stats.proven_points


BACKENDS = {
    "sequential": SequentialBackend,
    "multiprocess": MultiprocessBackend,
}


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

    The execution tier and equivalence reduction are not knobs: every
    campaign runs compiled, and every single-fault campaign reduced,
    because the precise and the unreduced paths give bit-identical
    reports.  Those references stay reachable for checks as
    ``SequentialBackend(trace_compile=False)`` and
    ``CampaignEngine.run(..., reduce=False)``.
    """

    backend: Optional[str] = None
    workers: Optional[int] = None
    k_faults: int = 1
    samples: int = 200
    seed: int = 0
    artifact_cache: Optional[bool] = None
    cache_dir: Optional[str] = None

    def __post_init__(self):
        for name in ("workers", "k_faults", "samples", "seed"):
            value = getattr(self, name)
            if name == "workers" and value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(
                    f"{name} must be an int, got {value!r}")
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
        if self.artifact_cache is not None and not isinstance(
                self.artifact_cache, bool):
            raise ValueError(
                "artifact_cache must be True, False or None, got "
                f"{self.artifact_cache!r}")
        if self.cache_dir is not None and not isinstance(
                self.cache_dir, (str, os.PathLike)):
            raise ValueError(
                f"cache_dir must be a path, got {self.cache_dir!r}")
        if self.artifact_cache is False and self.cache_dir is not None:
            raise ValueError(
                "cache_dir= conflicts with artifact_cache=False")

    def resolve(self) -> ExecutionBackend:
        """Concrete backend for this configuration."""
        if self.backend == "multiprocess" or (
                self.backend is None and self.workers is not None):
            return MultiprocessBackend(workers=self.workers)
        return SequentialBackend()

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
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.cache_dir is not None:
            payload["cache_dir"] = str(self.cache_dir)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "EngineConfig":
        """Inverse of :meth:`to_dict`: missing keys take their
        defaults; an unknown key (a typo, or a knob this version no
        longer has) is an error, never silently ignored."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown EngineConfig key(s) {unknown}; known: "
                f"{sorted(known)}")
        return cls(**payload)


class CampaignEngine:
    """Runs any fault space on any backend for one faulter target.

    The faulter caches its engine (``Faulter.engine``), so the engine
    refers back to it weakly: with no reference cycle between them, a
    dropped target frees its contexts and reduction proofs at once,
    not at the interpreter's next full garbage collection.
    """

    def __init__(self, faulter):
        self._faulter = weakref.ref(faulter)
        self._contexts: dict[str, SpaceContext] = {}

    @property
    def faulter(self):
        faulter = self._faulter()
        if faulter is None:
            raise ReferenceError("the engine's faulter no longer exists")
        return faulter

    def context(self, model: FaultModel | str) -> SpaceContext:
        """Space context for ``model`` over the cached bad-input trace."""
        if isinstance(model, str):
            model = model_by_name(model)
        cached = self._contexts.get(model.name)
        if cached is not None:
            return cached
        faulter = self.faulter
        store = faulter.artifacts
        ctx = build_space_context(
            faulter.image,
            faulter.bad_input,
            model,
            faulter.trace(),
            artifacts=store,
            image_key=faulter.image_digest() if store is not None else None,
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
        (:mod:`repro.faulter.reduction`): ``None``/``True`` settle the
        points a plan proves without running them, when a plan applies
        (the report still covers every point, and ``meta["reduction"]``
        carries the certificate); ``False`` runs every point, for
        bit-identity checks.
        """
        if isinstance(model, str):
            model = model_by_name(model)
        store = self.faulter.artifacts
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
            plan, reason = plan_reduction(self.faulter, ctx, space)
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
        points = 0
        for point, outcome in backend.iter_outcomes(
            self.faulter, model, space, ctx, stats, plan
        ):
            builder.add(point, outcome)
            points += 1
        if plan is not None:
            reduction_meta = plan.certificate(space, points, stats).to_dict()
        _persist_facts(ctx, self.faulter)
        return builder.finish(meta=_report_meta(
            backend, space.describe(), stats, reduction_meta,
            _artifacts_meta(store, before, stats)))

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
        "peak_resident_points": stats.peak_resident_points,
        "emulated_steps": stats.emulated_steps,
        "trace_compile": backend.trace_compile,
        "compiled_steps": stats.compiled_steps,
        "precise_steps": stats.emulated_steps - stats.compiled_steps,
        "region_steps": stats.region_steps,
        "regions": stats.regions,
        "compile_seconds": round(stats.compile_seconds, 6),
        "compile_divergences": stats.divergences,
        "memo_hits": stats.memo_hits,
        "reduction": reduction,
        "artifacts": artifacts,
    }
