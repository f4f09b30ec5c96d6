"""Layer spans recorded from outside the program.

The tracer wraps public entry points of the ``repro`` layers at the
names their callers resolve: a module-level function is replaced in
its defining module and in every ``repro`` module that imported it by
name; a method is replaced on its class.  Each call records a span
(name, start, end, parent).  Spans stay in memory and are written out
by the caller when the run ends.

Spans are recorded only under an open root span (a measured pass), so
set-up and output checks outside the passes leave no trace.  Only the
process that installed the tracer records.  Fleet workers are forked
from it and inherit the wrappers, which then pass straight through, so
worker-side work shows up only as the time the parent spends blocked
receiving shards.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import itertools
import os
import pickle
import sys
import time
from collections import defaultdict

# (defining module, attribute or Class.method, span name).  ``isa``,
# ``gtirb`` and ``provenance`` run per instruction inside the layers
# below and are not wrapped.
LAYER_FUNCTIONS = (
    ("repro.binfmt.reader", "read_elf", "binfmt.read_elf"),
    ("repro.binfmt.writer", "write_elf", "binfmt.write_elf"),
    ("repro.disasm.recover", "disassemble", "disasm.disassemble"),
    ("repro.disasm.units", "recover_plan", "disasm.recover_plan"),
    ("repro.asm.assembler", "assemble_with_map", "asm.assemble_with_map"),
    ("repro.patcher.patcher", "Patcher.patch_entry",
     "patcher.patch_entry"),
    ("repro.patcher.loop", "FaulterPatcherLoop.run",
     "patcher.FaulterPatcherLoop.run"),
    ("repro.lift.lifter", "Lifter.lift", "lift.Lifter.lift"),
    ("repro.hybrid.branch_harden", "harden_branches",
     "hybrid.harden_branches"),
    ("repro.hybrid.pipeline", "hybrid_harden", "hybrid.hybrid_harden"),
    ("repro.lower.pipeline", "lower_module", "lower.lower_module"),
    ("repro.detour.rewriter", "detour_harden", "detour.detour_harden"),
    ("repro.ir.passes.pass_manager", "PassManager.run",
     "ir.PassManager.run"),
    ("repro.ir.verifier", "verify", "ir.verify"),
    ("repro.emu.machine", "run_executable", "emu.run_executable"),
    ("repro.emu.jit.lift", "lift_superblock", "emu.jit.lift_superblock"),
    ("repro.emu.jit.codegen", "lower_superblock",
     "emu.jit.lower_superblock"),
    ("repro.analysis.traceflow", "TraceFacts.__init__",
     "analysis.TraceFacts"),
    ("repro.faulter.engine", "CampaignEngine.run",
     "faulter.CampaignEngine.run"),
    ("repro.faulter.engine", "derive_trace", "faulter.derive_trace"),
    ("repro.faulter.reduction", "plan_reduction",
     "faulter.plan_reduction"),
    ("repro.faulter.report", "differential_report",
     "faulter.differential_report"),
    # a generator: its span covers the whole campaign it feeds,
    # including the consumer's folding between shards
    ("repro.faulter.engine", "MultiprocessBackend.iter_outcomes",
     "faulter.fleet.iter_outcomes"),
    # the fleet's job queue (private, but it is where jobs are shipped
    # and where the parent blocks on shards)
    ("repro.faulter.engine", "_WorkerFleet.recv", "faulter.fleet.recv"),
)
SPAN_NAMES = tuple(name for _, _, name in LAYER_FUNCTIONS)


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._pid = os.getpid()
        self.jit_blocks: set = set()
        self.fleet_jobs = 0
        self.fleet_job_bytes = 0

    def active(self) -> bool:
        """Inside a root span of the process that installed us."""
        return bool(self._stack) and os.getpid() == self._pid

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out "
                               "of order")

    def wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                if not tracer.active():
                    return (yield from fn(*args, **kwargs))
                index = tracer.begin(name)
                try:
                    return (yield from fn(*args, **kwargs))
                finally:
                    tracer.end(index)
            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active():
                return fn(*args, **kwargs)
            index = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)
        return wrapper

    # -- counters taken at the wrapped boundaries ----------------------

    def _count_superblock(self, fn):
        @functools.wraps(fn)
        def lift_superblock(body, start, *args, **kwargs):
            if self.active():
                self.jit_blocks.add(
                    (start, tuple(bytes(insn.raw) for insn in body)))
            return fn(body, start, *args, **kwargs)
        return lift_superblock

    def _count_job(self, fn):
        @functools.wraps(fn)
        def submit(fleet, epoch, index, job):
            if self.active():
                self.fleet_jobs += 1
                self.fleet_job_bytes += len(pickle.dumps(job))
            return fn(fleet, epoch, index, job)
        return submit

    def install(self) -> None:
        """Wrap every entry point of ``LAYER_FUNCTIONS``."""
        for module_name, attribute, name in LAYER_FUNCTIONS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                setattr(owner, method, self.wrap(name, original))
                continue
            original = getattr(module, attribute)
            wrapped = self.wrap(name, original)
            if attribute == "lift_superblock":
                wrapped = self._count_superblock(wrapped)
            _rebind(original, wrapped)
        engine = importlib.import_module("repro.faulter.engine")
        fleet = engine._WorkerFleet
        fleet.submit = self._count_job(fleet.__dict__["submit"])


def _rebind(original, wrapped) -> None:
    """Replace ``original`` wherever a ``repro`` module bound it."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


# -- aggregation --------------------------------------------------------


def export(spans, probes=()) -> list[list]:
    """Spans, all closed, as ``[name, start_s, duration_s, parent]`` rows.

    Starts are ``perf_counter`` seconds, a system-wide monotonic clock
    on Linux, so rows from several processes share one timeline.  A
    duration leaves out the calibration ``probes`` (``(start, end)``
    pairs, in order) that ran inside the span.  A probe runs from a
    signal handler, between two bytecodes, so it lies wholly inside or
    wholly outside each span.
    """
    starts = [start for start, _ in probes]
    spent = list(itertools.accumulate((end - start for start, end in probes),
                                      initial=0.0))
    rows = []
    for name, start, end, parent in spans:
        inside = (spent[bisect.bisect_left(starts, end)]
                  - spent[bisect.bisect_left(starts, start)])
        rows.append([name, start, end - start - inside, parent])
    return rows


def layer_table(rows, speed: float = 1.0,
                table: dict | None = None) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds.

    Seconds are multiplied by ``speed`` (the process's calibration
    factor).  Inclusive seconds skip spans nested in a span of the
    same name, so a re-entrant layer is not counted twice.  Self
    seconds are a span's duration minus the durations of its direct
    children.  Pass ``table`` to accumulate rows of several processes.
    """
    child_time = defaultdict(float)
    for _, _, duration, parent in rows:
        if parent >= 0:
            child_time[parent] += duration
    table = {} if table is None else table
    for index, (name, _, duration, parent) in enumerate(rows):
        entry = table.setdefault(name, {"calls": 0, "s": 0.0,
                                        "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (duration - child_time[index]) * speed
        ancestor = parent
        while ancestor >= 0 and rows[ancestor][0] != name:
            ancestor = rows[ancestor][3]
        if ancestor < 0:
            entry["s"] += duration * speed
    return table


def chrome_trace(processes) -> dict:
    """Chrome trace-event JSON (opens in Perfetto or about:tracing).

    ``processes`` maps a process label to its exported rows.
    """
    origin = min((row[1] for rows in processes.values() for row in rows),
                 default=0.0)
    events = []
    for pid, (label, rows) in enumerate(sorted(processes.items()), 1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 1, "args": {"name": label}})
        for index, (name, start, duration, parent) in enumerate(rows):
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": 1,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "args": {"id": index, "parent": parent},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
