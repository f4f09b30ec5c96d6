"""The repository's benchmark: the paper's loop on one case study.

    python3 perfbench/run.py --workload bootloader --seed 0 \\
        --seconds 8 --trace 0

Workloads are the paper's two case studies, ``bootloader`` and
``pincheck``.  The seed draws their campaign inputs (PIN digits,
firmware bytes, tamper byte); seed 0 is the bundled inputs and is
checked against ``expected.json``.  Every run executes three stages,
each in a fresh interpreter (``stages.py``):

- ``evaluate``: ``Target.evaluate`` per approach (faulter+patcher,
  hybrid, detour) on the case study with skip + bitflip, which is
  ``r2r compare <case study> --model skip --model bitflip``;
- ``campaign``: set-up, then the four state-model campaigns on the
  rich variant, on the sequential backend and on a warm 2-worker fleet
  with an artifact store;
- ``harden``: hybrid and detour hardening without campaigns plus a
  reassembly round trip over four binaries, repeated (at least
  ``HARDEN_MIN_PASSES`` times) until ``--seconds`` have passed since
  the stage started.

``evaluate`` and ``campaign`` are fixed work, one north-star operation
each, so a run takes about ``--seconds`` plus their time.

Timings are speed-normalized by a calibration loop run before and
after each pass (``calibrate.py``).  With ``--trace 0`` the last line
of standard output is the JSON result with every end-to-end metric;
with ``--trace 1`` the run is made once untraced and once traced, and
the result holds the per-layer metrics (``tracer.py``), the share of
each stage's wall time no layer span covers, and traced ÷ untraced
wall time.  Details (raw seconds, calibration samples, errors) go to
``perfbench/out/``; the traced run also writes a Chrome trace-event
file there, which opens in Perfetto.

``--update-expected`` rewrites ``expected.json`` from a seed-0 run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
sys.path.insert(0, str(HERE))

from tracer import SPAN_NAMES, chrome_trace, layer_table  # noqa: E402

WORKLOADS = ("bootloader", "pincheck")
DEFAULT_SEED = 0
APPROACHES = ("faulter+patcher", "hybrid", "detour")
KEYS = tuple(approach.replace("+", "_") for approach in APPROACHES)
STAGES = ("evaluate", "campaign", "harden")
# campaign-stage set-ups per run (each followed by warm fleet passes)
SETUPS = 2
# seconds of warm fleet passes after each set-up (at least two)
WARM_FILL_S = 2.5
HARDEN_MIN_PASSES = 8
STAGE_TIMEOUT_S = 150

# end-to-end metrics and their units, in BENCHMARK.json's order
UNITS = {
    "setup_s": "s",
    **{f"evaluate_s.{key}": "s" for key in KEYS},
    "vulnerable_after": "count",
    **{f"text_overhead_pct.{key}": "%" for key in KEYS},
    "faults_per_s.sequential": "1/s",
    "faults_per_s.fleet": "1/s",
    "harden_s.hybrid": "s",
    "harden_s.detour": "s",
    "reassemble_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """A stage could not produce a result."""


def run_stage(spec: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, str(HERE / "stages.py"), json.dumps(spec)]
    started = time.perf_counter()
    # own process group: a stage that hangs is killed together with
    # the fleet workers it forked
    with subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as process:
        try:
            stdout, stderr = process.communicate(timeout=STAGE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise BenchError(f"stage {spec['stage']} timed out") from None
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchError(f"stage {spec['stage']} exited with "
                         f"{process.returncode}: {stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["process_s"] = time.perf_counter() - started
    return result


def run_stages(args, trace: bool, single: bool) -> list[dict]:
    """Every stage of one run; one result per stage process.

    ``single`` makes one pass per stage (the traced run and its
    untraced reference); otherwise the campaign stage sets up
    ``SETUPS`` times and hardening repeats for ``args.seconds``.
    """
    base = {"workload": args.workload, "seed": args.seed, "trace": trace,
            "out_dir": str(OUT),
            "check_expected": (args.seed == DEFAULT_SEED
                               and not args.update_expected)}
    results = [run_stage(dict(base, stage="evaluate", approach=approach,
                              passes=1))
               for approach in APPROACHES]
    results.append(run_stage(dict(base, stage="campaign",
                                  passes=1 if single else SETUPS,
                                  fill_s=0 if single else WARM_FILL_S)))
    results.append(run_stage(dict(
        base, stage="harden", passes=1 if single else HARDEN_MIN_PASSES,
        fill_s=0 if single else args.seconds)))
    return results


def merged(results, field: str):
    values: dict = {}
    for result in results:
        for key, value in result[field].items():
            if isinstance(value, list):
                values.setdefault(key, []).extend(value)
            else:
                values[key] = value
    return values


def end_to_end(results) -> dict:
    timings = merged(results, "timings")
    values = merged(results, "values")
    metrics = {name: statistics.median(timings[name])
               for name in UNITS if name in timings}
    faults = values["campaign_faults"]
    for backend in ("sequential", "fleet"):
        metrics[f"faults_per_s.{backend}"] = statistics.median(
            faults / seconds for seconds in timings[f"campaign_s.{backend}"])
    for key in KEYS:
        metrics[f"text_overhead_pct.{key}"] = values[
            f"text_overhead_pct.{key}"]
    metrics["vulnerable_after"] = sum(values[f"vulnerable_after.{key}"]
                                      for key in KEYS)
    metrics["peak_rss_mb"] = max(r["peak_rss_kb"] for r in results) / 1024
    missing = set(UNITS) - set(metrics)
    if missing:
        raise BenchError(f"no measurement for {sorted(missing)}")
    return {name: {"value": metrics[name], "unit": UNITS[name]}
            for name in UNITS}


def per_layer(untraced, traced) -> dict:
    """Layer metrics of the traced run, counters, uncovered shares."""
    table: dict = {}
    for result in traced:
        layer_table(result["spans"], result["speed"], table)
    metrics = {}
    for name in SPAN_NAMES:
        entry = table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.s"] = (entry["s"], "s")
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")

    counters = Counter()
    for result in traced:
        counters.update(result["counters"])
    values = merged(traced, "values")
    jit_compiled = counters["jit_compiled"]
    metrics.update({
        "patcher.iterations": (counters["patcher_iterations"], "count"),
        "hybrid.branches_hardened": (counters["branches_hardened"],
                                     "count"),
        "emu.steps.emulated": (counters["steps_emulated"], "count"),
        "emu.steps.compiled": (counters["steps_compiled"], "count"),
        "emu.steps.precise": (counters["steps_precise"], "count"),
        "emu.jit.superblocks_compiled": (jit_compiled, "count"),
        "emu.jit.superblocks_distinct": (counters["jit_distinct"],
                                         "count"),
        "emu.jit.compile_useful_ratio": (
            counters["jit_distinct"] / max(jit_compiled, 1), "ratio"),
        "emu.jit.compile_s": (counters["compile_s"], "s"),
        "faulter.points.total": (counters["points_total"], "count"),
        "faulter.points.executed": (counters["points_executed"], "count"),
        "faulter.reduction_ratio": (
            counters["points_executed"] / max(counters["points_total"], 1),
            "ratio"),
        "faulter.artifacts.hits": (counters["artifact_hits"], "count"),
        "faulter.artifacts.misses": (counters["artifact_misses"], "count"),
        "emu.jit.class_mismatches": (
            counters["class_mismatches.compiled"], "count"),
        "faulter.reduction.class_mismatches": (
            counters["class_mismatches.reduction"], "count"),
        "faulter.fleet.jobs": (counters["fleet_jobs"], "count"),
        "faulter.fleet.bytes_per_job": (
            counters["fleet_job_bytes"] / max(counters["fleet_jobs"], 1),
            "B"),
    })
    for key in KEYS:
        metrics[f"vulnerable_after.{key}"] = (
            values[f"vulnerable_after.{key}"], "count")
    metrics.update(evaluate_split(traced))
    # a stage span's self time is the part of it no layer span covers
    stages = [table.get(f"stage.{stage}", {"s": 0.0, "self_s": 0.0})
              for stage in STAGES]
    for stage, entry in zip(STAGES, stages):
        metrics[f"stage.{stage}.uncovered_share"] = (
            entry["self_s"] / entry["s"] if entry["s"] else 0.0, "ratio")
    wall = sum(entry["s"] for entry in stages)
    uncovered = sum(entry["self_s"] for entry in stages)
    metrics["uncovered_share"] = (uncovered / wall if wall else 0.0,
                                  "ratio")
    metrics["trace.overhead_ratio"] = (
        sum(r["wall_s"] for r in traced)
        / sum(r["wall_s"] for r in untraced), "ratio")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


APPROACH_SPANS = ("patcher.FaulterPatcherLoop.run", "hybrid.hybrid_harden",
                  "detour.detour_harden")


def evaluate_split(traced) -> dict:
    """Split the evaluate passes into baseline campaigns, hardening,
    re-fault campaigns and the differential join."""
    split = Counter()
    for result in traced:
        if result["stage"] != "evaluate":
            continue
        rows = result["spans"]
        for root, row in enumerate(rows):
            if row[3] >= 0:
                continue
            hardened = False
            for name, _, duration, parent in rows:
                if parent != root:
                    continue
                duration *= result["speed"]
                if name in APPROACH_SPANS:
                    split["harden"] += duration
                    hardened = True
                elif name == "faulter.CampaignEngine.run":
                    split["refault" if hardened else "baseline"] += duration
                elif name == "faulter.differential_report":
                    split["diff"] += duration
    return {f"evaluate.{part}_s": (split[part], "s")
            for part in ("baseline", "harden", "refault", "diff")}


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite expected.json (seed 0 only)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources ({SRC}) are missing",
              file=sys.stderr)
        return 2
    if args.update_expected and args.seed != DEFAULT_SEED:
        parser.error("--update-expected needs the default seed")
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            untraced = run_stages(args, False, single=True)
            results = run_stages(args, True, single=True)
            metrics = per_layer(untraced, results)
            write_json(OUT / f"trace-{args.workload}-{args.seed}.json",
                       chrome_trace({r["label"]: r["spans"]
                                     for r in results}))
            for result in results:
                result.pop("spans")
            results = untraced + results
        else:
            results = run_stages(args, False, single=False)
            metrics = end_to_end(results)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = {label: problems for r in results
              for label, problems in r["errors"].items()}
    observed = {}
    for result in results:
        observed.update(result["observed"])
    if args.update_expected:
        pinned = (json.loads(EXPECTED.read_text())
                  if EXPECTED.exists() else {})
        pinned[args.workload] = observed
        write_json(EXPECTED, pinned)
    write_json(OUT / f"run-{args.workload}-{args.seed}-trace"
                     f"{args.trace}.json",
               {"args": vars(args), "metrics": metrics, "errors": errors,
                "stages": results})

    raw = merged(results, "raw")
    for name, metric in metrics.items():
        beside = (f"  (raw {statistics.median(raw[name]):.6g} s)"
                  if name in raw else "")
        print(f"{name:<42} {metric['value']:>14.6g} {metric['unit']}"
              f"{beside}")
    for path in ("compiled", "reduction"):
        mismatches = sum(r["counters"].get(f"class_mismatches.{path}", 0)
                         for r in results)
        if mismatches:
            print(f"note: the spot-check saw {mismatches} faults crash on "
                  f"one side of the {path} path and not on the other")
    for label, problems in errors.items():
        for problem in problems:
            print(f"FAILED {label}: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
