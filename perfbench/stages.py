"""One stage of a benchmark run, in a fresh interpreter.

    python3 perfbench/stages.py '<json spec>'

``run.py`` starts this once per stage (once per approach for
``evaluate``) with ``src`` on ``PYTHONPATH``.  The spec names the
stage, workload, seed, pass count and whether to trace.  The last
line of standard output is one JSON object: operations attempted and
failed, speed-normalized and raw timings with their calibration
samples, exact outcome values, counters and (when tracing) the spans.

Stages:

- ``evaluate``: one ``Target.evaluate`` of one approach on the case
  study, models = harden models = (skip, bitflip).
- ``campaign``: set-up (image builds, trace recording, fleet spawn and
  its cold pass), then the state-model campaigns on the sequential
  backend and on the warm two-worker fleet, ``passes`` times; the
  fleet passes of each set-up repeat for ``fill_s`` seconds.
- ``harden``: ``Target.harden`` with hybrid and detour, and a
  reassembly round trip, over four binaries; at least ``passes``
  passes, repeated until ``fill_s`` seconds have passed since the
  stage began.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import inputs  # noqa: E402
from repro.api import EngineConfig  # noqa: E402
from repro.binfmt import reader, writer  # noqa: E402
from repro.disasm.roundtrip import rewrite  # noqa: E402
from repro.emu.machine import run_executable  # noqa: E402
from repro.faulter.campaign import Faulter  # noqa: E402
from repro.faulter.engine import (  # noqa: E402
    SequentialBackend,
    shutdown_fleet,
)
from repro.faulter.report import SUCCESS  # noqa: E402
from tracer import Tracer, export  # noqa: E402

EXPECTED = HERE / "expected.json"
# fault offsets per model re-run on the reference path by the spot-check
SPOT_OFFSETS = 8
# the fewest measured fleet passes after each set-up; which worker
# steals which partition varies, so fleet passes spread more than
# sequential ones, and short ones repeat for the spec's ``fill_s``
WARM_PASSES = 2


def metric_key(approach: str) -> str:
    return approach.replace("+", "_")


class Ops:
    """Operations attempted and failed; a failure is an exception or a
    failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed: dict[str, list[str]] = {}

    def run(self, label: str, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 — counted and reported
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None

    def fail(self, label: str, problem: str) -> None:
        self.failed.setdefault(label, []).append(problem)

    def verify(self, label: str, check) -> None:
        """Fail ``label`` with each problem ``check()`` returns, or with
        the exception it raises."""
        try:
            problems = check()
        except Exception as exc:  # noqa: BLE001 — counted and reported
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        for problem in problems:
            self.fail(label, problem)


class Result:
    """What a stage reports back to ``run.py``."""

    def __init__(self, spec: dict, tracer=None):
        self.spec = spec
        self.tracer = tracer
        self.calibrator = calibrate.Calibrator()
        self.ops = Ops()
        self.timings = defaultdict(list)   # metric -> normalized seconds
        self.raw = defaultdict(list)       # metric -> seconds unscaled
        self.calibration: list[list[float]] = []  # probe samples
        self.values: dict = {}             # exact outcomes
        self.observed: dict = {}           # compared with expected.json
        self.counters = Counter()
        self.wall_s = 0.0                  # normalized measured time

    def traced(self, fn):
        """``fn`` under the stage's root span, when tracing."""
        tracer = self.tracer
        if tracer is None:
            return fn

        def run():
            index = tracer.begin(f"stage.{self.spec['stage']}")
            try:
                return fn()
            finally:
                tracer.end(index)
        return run

    def timed(self, metric: str, label: str, fn):
        """Measure ``fn`` as one operation; ``None`` if it raised."""
        measured = self.ops.run(
            label, lambda: self.calibrator.measure(self.traced(fn)))
        if measured is None:
            return None
        result, raw, normalized, samples = measured
        self.timings[metric].append(normalized)
        self.raw[metric].append(raw)
        self.calibration.append(samples)
        self.wall_s += normalized
        return result

    def to_json(self) -> dict:
        tracer = self.tracer
        samples = [t for pass_ in self.calibration for t in pass_]
        payload = {
            "stage": self.spec["stage"],
            "label": ":".join(filter(None, (self.spec["stage"],
                                            self.spec.get("approach")))),
            "attempted": self.ops.attempted,
            "failed": len(self.ops.failed),
            "errors": self.ops.failed,
            "timings": self.timings,
            "raw": self.raw,
            "calibration": self.calibration,
            "speed": calibrate.speed(samples) if samples else 1.0,
            "values": self.values,
            "observed": self.observed,
            "counters": self.counters,
            "wall_s": self.wall_s,
            # fleet workers are forked, so they hold the pool too
            "peak_rss_kb": max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            - self.calibrator.pool_kb,
        }
        if tracer is not None:
            payload["spans"] = export(tracer.spans, self.calibrator.probes)
            payload["counters"].update({
                "jit_compiled": sum(1 for span in tracer.spans
                                    if span[0] == "emu.jit.lift_superblock"),
                "jit_distinct": len(tracer.jit_blocks),
                "fleet_jobs": tracer.fleet_jobs,
                "fleet_job_bytes": tracer.fleet_job_bytes,
            })
        return payload


# -- checks -----------------------------------------------------------------


def report_digest(report) -> str:
    payload = report.to_dict()
    payload.pop("meta")
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def count_meta(counters: Counter, reports) -> None:
    """Fold the deterministic execution counters of sequential runs."""
    for report in reports.values():
        meta = report.meta
        counters["steps_emulated"] += meta.get("emulated_steps", 0)
        counters["steps_compiled"] += meta.get("compiled_steps", 0)
        counters["steps_precise"] += meta.get("precise_steps", 0)
        counters["compile_s"] += meta.get("compile_seconds", 0.0)
        reduction = meta.get("reduction", {})
        total = reduction.get("full_points", report.total_faults)
        counters["points_total"] += total
        counters["points_executed"] += reduction.get("executed_points",
                                                     total)


def count_artifacts(counters: Counter, reports) -> None:
    for report in reports.values():
        artifacts = report.meta.get("artifacts", {})
        counters["artifact_hits"] += artifacts.get("hits", 0)
        counters["artifact_misses"] += artifacts.get("misses", 0)


def spot_window(report, trace_length: int, rng: random.Random) -> list[int]:
    """Up to ``SPOT_OFFSETS`` trace offsets: half of them (at most)
    where ``report`` has successes, the rest drawn from the others."""
    hits = sorted({fault.trace_index for fault in report.successes})
    window = set(rng.sample(hits, min(len(hits), SPOT_OFFSETS // 2)))
    others = [index for index in range(trace_length) if index not in window]
    window.update(rng.sample(others, min(len(others),
                                         SPOT_OFFSETS - len(window))))
    return sorted(window)


def compare_outcomes(where: str, got: list, want: list):
    """Compare two runs of one window, every outcome collected.

    Returns the problems (other faults run, or a fault that succeeds in
    one run only) and the number of faults whose other class differs:
    crash in one run, ignored in the other.
    """
    if [o.fault for o in got] != [o.fault for o in want]:
        return [f"{where}: ran other faults than the reference"], 0
    succeed = sum((a.outcome == SUCCESS) != (b.outcome == SUCCESS)
                  for a, b in zip(got, want))
    differ = sum(a.outcome != b.outcome for a, b in zip(got, want))
    problems = ([f"{where}: {succeed} of {len(want)} faults succeed in one "
                 "run only"] if succeed else [])
    return problems, differ - succeed


def spot_check(faulter, reports, rng: random.Random,
               counters: Counter) -> list[str]:
    """Re-run a seeded window of fault offsets per model three times:
    on the precise interpreter without reduction (the reference), on
    the default compiled backend without reduction, and on it with
    reduction.  Each run must inject the same faults as the one before
    it, and the same of them must succeed; the report's successes at
    those offsets must be the reference's.

    Faults that crash in one run and are ignored in the other are
    counted per path, in ``counters["class_mismatches.compiled"]``
    (compiled against precise) and ``["class_mismatches.reduction"]``
    (reduced against not), and not failed: on a few faults each path
    disagrees with the one before it today, which changes no success
    and so no vulnerable point."""
    problems = []
    trace_length = len(faulter.trace())
    reference = SequentialBackend(trace_compile=False)
    for model, report in reports.items():
        window = spot_window(report, trace_length, rng)
        want, plain, reduced = (
            faulter.run_campaign(model, trace_window=window,
                                 collect_outcomes=True, backend=backend,
                                 reduce=reduction).all_outcomes
            for backend, reduction in ((reference, False), (None, False),
                                       (None, None)))
        where = f"{faulter.name}/{model} at offsets {window}"
        for path, got, ref in (("compiled", plain, want),
                               ("reduction", reduced, plain)):
            found, classes = compare_outcomes(f"{where}, {path}", got, ref)
            problems += found
            counters[f"class_mismatches.{path}"] += classes
        offsets = set(window)
        in_report = [fault for fault in report.successes
                     if fault.trace_index in offsets]
        expected = [ref.fault for ref in want if ref.outcome == SUCCESS]
        if Counter(in_report) != Counter(expected):
            problems.append(
                f"{where}: the report has {len(in_report)} successes, "
                f"the reference {len(expected)}")
    return problems


def behaves_like(original, rewritten, target) -> list[str]:
    """Same exit reason, status and stdout on the good and the bad
    input."""
    problems = []
    for label, stdin in (("good", target.good_input),
                         ("bad", target.bad_input)):
        want = run_executable(original, stdin=stdin)
        got = run_executable(rewritten, stdin=stdin)
        if want.behavior() != got.behavior():
            problems.append(f"{target.name}: {label} input behaves "
                            "differently after rewriting")
    return problems


def compare_expected(spec: dict, key: str, observed) -> list[str]:
    """Problems if ``observed`` differs from the pinned expectation."""
    if not spec["check_expected"]:
        return []
    pinned = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    want = pinned.get(spec["workload"], {}).get(key)
    if want is None:
        return [f"no pinned expectation for {spec['workload']}/{key}"]
    got = json.loads(json.dumps(observed))
    if got != want:
        return [f"{key}: {json.dumps(got, sort_keys=True)} != pinned "
                f"{json.dumps(want, sort_keys=True)}"]
    return []


# -- stages -----------------------------------------------------------------


def stage_evaluate(spec: dict, result: Result) -> None:
    approach = spec["approach"]
    key = metric_key(approach)
    label = f"evaluate/{approach}"
    target = inputs.evaluate_target(spec["workload"], spec["seed"])
    models = inputs.EVALUATE_MODELS
    evaluation = result.timed(
        f"evaluate_s.{key}", label,
        lambda: target.evaluate(approach=approach, models=models,
                                harden_models=models))
    if evaluation is None:
        return
    hardened = evaluation.result
    result.values[f"vulnerable_after.{key}"] = sum(
        len(report.vulnerable_points())
        for report in evaluation.hardened_reports.values())
    result.values[f"text_overhead_pct.{key}"] = hardened.overhead_percent
    count_meta(result.counters, evaluation.baseline_reports)
    count_meta(result.counters, evaluation.hardened_reports)
    iterations = getattr(hardened, "iterations", None)
    if iterations is not None:
        result.counters["patcher_iterations"] += len(iterations)
    stats = getattr(hardened, "hardening", None)
    if stats is not None:
        result.counters["branches_hardened"] += stats.branches_hardened

    observed = {
        "baseline": {m: report_digest(r)
                     for m, r in evaluation.baseline_reports.items()},
        "hardened": {m: report_digest(r)
                     for m, r in evaluation.hardened_reports.items()},
        "diff": {m: dict(c) for m, c in evaluation.diff.by_model().items()},
        "text_size": hardened.hardened_text_size,
    }
    result.observed[label] = observed
    rng = random.Random(f"{spec['seed']}/{label}")
    refault = Faulter(hardened.hardened, target.good_input,
                      target.bad_input, target.oracle,
                      name=f"{target.name}-hardened",
                      max_steps=target.max_steps)

    def checks():
        return (compare_expected(spec, label, observed)
                + behaves_like(target.exe, hardened.hardened, target)
                + spot_check(target.faulter(), evaluation.baseline_reports,
                             rng, result.counters)
                + spot_check(refault, evaluation.hardened_reports, rng,
                             result.counters))

    result.ops.verify(label, checks)


def stage_campaign(spec: dict, result: Result) -> None:
    workload, seed = spec["workload"], spec["seed"]
    models = inputs.CAMPAIGN_MODELS
    out_dir = Path(spec["out_dir"])
    stores = []
    reference = None
    try:
        for index in range(spec["passes"]):
            shutdown_fleet()
            store = tempfile.mkdtemp(prefix="store-", dir=out_dir)
            stores.append(store)
            fleet = EngineConfig(backend="multiprocess", workers=2,
                                 artifact_cache=True, cache_dir=store)

            def setup():
                inputs.evaluate_target(workload, seed).faulter().trace()
                inputs.harden_targets(workload, seed)
                sequential = inputs.campaign_target(workload, seed)
                sequential.faulter().trace()
                warm = inputs.campaign_target(workload, seed)
                return sequential, warm, warm.campaign(models, fleet)

            built = result.timed("setup_s", f"setup/{index}", setup)
            if built is None:
                continue
            sequential, warm, cold = built
            count_artifacts(result.counters, cold)
            label = f"campaign/sequential/{index}"
            reports = result.timed(
                "campaign_s.sequential", label,
                lambda: sequential.campaign(models))
            if reports is None:
                continue
            result.values["campaign_faults"] = sum(
                r.total_faults for r in reports.values())
            if reference is None:
                reference = reports
                count_meta(result.counters, reports)
                observed = {m: report_digest(r) for m, r in reports.items()}
                result.observed["campaign"] = observed
                rng = random.Random(f"{seed}/campaign")
                result.ops.verify(label, lambda: (
                    compare_expected(spec, "campaign", observed)
                    + spot_check(sequential.faulter(), reports, rng,
                                 result.counters)))
            elif reports != reference:
                result.ops.fail(label, "sequential reports differ "
                                       "between passes")
            if cold != reference:
                result.ops.fail(f"setup/{index}", "cold fleet reports "
                                                  "differ from sequential")
            # passes repeat until ``fill_s`` have passed since the first
            stop = time.perf_counter() + spec["fill_s"]
            for warm_index in itertools.count():
                if (warm_index >= WARM_PASSES
                        and time.perf_counter() >= stop):
                    break
                label = f"campaign/fleet/{index}/{warm_index}"
                reports = result.timed("campaign_s.fleet", label,
                                       lambda: warm.campaign(models, fleet))
                if reports is None:
                    continue
                if reports != reference:
                    result.ops.fail(label, "warm fleet reports differ "
                                           "from sequential")
                count_artifacts(result.counters, reports)
    finally:
        shutdown_fleet()
        for store in stores:
            shutil.rmtree(store, ignore_errors=True)


def stage_harden(spec: dict, result: Result) -> None:
    targets = inputs.harden_targets(spec["workload"], spec["seed"])
    # passes repeat until ``fill_s`` have passed since the stage began
    stop = time.perf_counter() + spec["fill_s"]
    first: dict = {}
    index = 0
    while index < spec["passes"] or time.perf_counter() < stop:
        harden_pass(spec, result, targets, index, first)
        index += 1
    result.ops.verify("harden/0", lambda: compare_expected(
        spec, "harden", result.observed["harden"]))


def harden_pass(spec, result, targets, index, first) -> None:
    """One pass over every target; timings are summed per operation
    kind and normalized by the calibration over the whole pass."""
    totals = Counter()
    outputs = {}
    with result.calibrator.sampling() as sampling:
        for target in targets:
            harden_target(result, target, index, first, sampling, totals,
                          outputs)
    result.calibration.append(sampling.samples)
    for kind, raw in totals.items():
        result.timings[kind].append(raw * sampling.speed)
        result.raw[kind].append(raw)
        result.wall_s += raw * sampling.speed
    if index == 0:
        result.observed["harden"] = outputs


def harden_target(result, target, index, first, sampling, totals,
                  outputs) -> None:
    for kind, operation in (
            ("harden_s.hybrid",
             lambda: target.harden("hybrid", fault_models=())),
            ("harden_s.detour",
             lambda: target.harden("detour", fault_models=())),
            # through the modules, so the tracer's wrappers apply
            ("reassemble_s",
             lambda: reader.read_elf(writer.write_elf(
                 rewrite(target.exe))))):
        label = f"{kind}/{target.name}"
        started = sampling.clock()
        output = result.ops.run(f"{label}/{index}",
                                result.traced(operation))
        totals[kind] += sampling.clock() - started
        if output is None:
            continue
        exe = getattr(output, "hardened", output)
        elf = writer.write_elf(exe)
        if index > 0:
            if elf != first.get(label):
                result.ops.fail(f"{label}/{index}",
                                "output differs from pass 0")
            continue
        first[label] = elf
        if kind == "harden_s.hybrid":
            result.counters["branches_hardened"] += \
                output.hardening.branches_hardened
        result.ops.verify(f"{label}/{index}",
                          lambda: behaves_like(target.exe, exe, target))
        outputs.setdefault(target.name, {})[kind] = len(
            exe.section(".text").data)


STAGES = {
    "evaluate": stage_evaluate,
    "campaign": stage_campaign,
    "harden": stage_harden,
}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    result = Result(spec, tracer)
    STAGES[spec["stage"]](spec, result)
    print(json.dumps(result.to_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
