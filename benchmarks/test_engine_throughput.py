"""Campaign-engine throughput: compiled vs precise vs parallel.

Seeds the perf trajectory for the faulter hot loop.  A skip campaign
over ``SAMPLES`` seeded offsets of a long bootloader trace (>= 1k
instructions; every offset has exactly one skip variant, so that is
``SAMPLES`` points, enumerated in draw order) runs on the master walk
(one machine walks the trace; each fault snapshots, runs its suffix
and rolls back) under four engine configurations:

* ``trace-compiled``    — in-process, with the compiled tier (the
  engine default); the headline number, timed through
  pytest-benchmark,
* ``multiprocess``      — the same walk on a cold worker fleet,
* ``precise``           — in-process with ``trace_compile=False``, so
  the interpreter-only trajectory — and the tier's speedup over it —
  stays measured,
* ``multiprocess-warm`` — the fleet again, with its workers and the
  artifact store already hot; the two fleet rows come from
  ``WARM_PAIRS`` alternating cold/warm passes, whose median ratio
  gates what warmth buys.

Faults/second, step counts, peak RSS (``resource.getrusage``, so the
streaming engine's memory trajectory is visible alongside throughput)
and the engine's peak-resident-fault-points gauge are recorded in
``benchmarks/out/BENCH_campaign.json`` (gitignored, so a test run
leaves the tree clean; the committed baseline is ``BENCH_campaign.json``
at the repo root).  A ``models`` section adds a
state-family row (``reg-bitflip`` over ``STATE_SAMPLES`` seeded fault
points spread over the trace), so the
fault-effect protocol's hot path is on the same perf trajectory as the
classic fetch faults, and a ``k2-reduced`` row (a dense k=2
``flag-stuck`` pair product with equivalence reduction on, see
``repro.faulter.reduction``) that must emulate at least 5x fewer steps
than the full product while staying bit-identical, and a ``pie``
row (a reduced exhaustive campaign on the committed PIE ELF fixture,
with its compiled/precise step split gated exactly — the real-binary
path on the same trajectory).  These three rows run for 0.2 s or
less, so each is timed as the median of ``SHORT_REPEATS`` repetitions,
with the interquartile range recorded beside it.  CI's ``bench`` job
diffs a fresh run of this file against the committed JSON and fails
on >25% throughput regression
(``benchmarks/check_regression.py``, which also says how to refresh
the baseline).
"""

import json
import pathlib
import random
import resource
import shutil
import statistics
import tempfile
import time

from conftest import once

from repro.binfmt.reader import read_elf
from repro.emu.jit import compiler as jit_compiler
from repro.faulter import (
    ArtifactStore, Faulter, MultiprocessBackend, SequentialBackend,
    shutdown_fleet)
from repro.faulter.space import ExhaustiveSpace, ProductSpace
from repro.workloads import bootloader
from tests.spaces import DrawOrderWindow, SampledPoints

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "benchmarks" / "out" / "BENCH_campaign.json"

TRACE_SIZE = 200     # bootloader payload -> trace >= 1k instructions
# enough samples that campaign compute dominates fixed costs (pool
# spin-up, per-worker context derivation) — keeps the CI regression
# gate's faults/s comparison out of the noise floor
SAMPLES = 384
SEED = 2024
# state-model row: fewer points (register faults rarely short-circuit
# the run, so each faulted replay tends to execute the full suffix)
STATE_MODEL = "reg-bitflip"
STATE_SAMPLES = 192
# k=2 row: dense flag-stuck pair product over a strided subset of the
# flag-consuming offsets — the space equivalence reduction flattens
# hardest; the gate requires >= 5x fewer emulated steps than the full
# product, bit-identically
K2_MODEL = "flag-stuck"
K2_OFFSET_STRIDE = 9
K2_MIN_SPEEDUP = 5.0
# pie row: campaign inputs of the committed PIE fixture
# (tests/fixtures/README.md)
PIE_GOOD = bytes.fromhex("0d141b222930373e")
PIE_BAD = bytes.fromhex("0d141b223930373f")
PIE_MARKER = b"BOOT OK"
# the median over WARM_PAIRS alternating cold/warm fleet passes of
# cold / warm execute seconds must reach this (gated here and in
# check_regression.py); eight runs on a 2-core host gave medians of
# 1.54-1.79, so 1.3 holds there and still fails a warm fleet that
# buys under 30%
WARM_MIN_SPEEDUP = 1.3
WARM_PAIRS = 5
# the models rows run 0.04-0.2 s; a single shot swung their ratio to
# the precise row by up to 58% between runs on a 2-core host
SHORT_REPEATS = 5


def _measure(faulter, backend, model="skip", space=None):
    if space is None:
        # draw order spreads every fleet partition over the whole
        # trace; sorted offsets would give the first partitions the
        # long suffixes, and the fleet rows would time that imbalance
        # instead of warm-up and work stealing
        trace_length = len(faulter.trace())
        space = DrawOrderWindow(indices=tuple(
            random.Random(SEED).sample(range(trace_length), SAMPLES)))
    start = time.perf_counter()
    report = faulter.engine().run(model, space, backend=backend)
    elapsed = time.perf_counter() - start
    return report, elapsed


def _median_timed(run):
    """``(result, median seconds, IQR seconds)`` of ``SHORT_REPEATS``
    calls of ``run``; every call must return the same result."""
    seconds, results = [], []
    for _ in range(SHORT_REPEATS):
        start = time.perf_counter()
        results.append(run())
        seconds.append(time.perf_counter() - start)
    assert all(result == results[0] for result in results)
    q1, _, q3 = statistics.quantiles(seconds, n=4)
    return results[0], statistics.median(seconds), q3 - q1


def _short_row(faults, median, iqr):
    """Timing fields of a models row timed by :func:`_median_timed`."""
    return {
        "wall_seconds": round(median, 4),
        "wall_seconds_iqr": round(iqr, 4),
        "repetitions": SHORT_REPEATS,
        "faults": faults,
        "faults_per_second": round(faults / median, 2)
        if median else None,
    }


def _row(report, derive_seconds, execute_seconds):
    """One backends-section row: wall time split derive vs execute.

    *derive* is per-campaign setup (baseline validation + bad-input
    trace recording, or their artifact-store loads); *execute* is the
    engine run itself.  faults/s is quoted against the execute phase —
    the quantity the scheduler and the warm cache actually scale.
    """
    return {
        "wall_seconds": round(derive_seconds + execute_seconds, 4),
        "derive_seconds": round(derive_seconds, 4),
        "execute_seconds": round(execute_seconds, 4),
        "faults": report.total_faults,
        "faults_per_second": round(
            report.total_faults / execute_seconds, 2)
        if execute_seconds else None,
        "emulated_steps": report.meta["emulated_steps"],
        "compiled_steps": report.meta["compiled_steps"],
        "precise_steps": report.meta["precise_steps"],
        "peak_resident_points": report.meta["peak_resident_points"],
        # ru_maxrss is a process-lifetime high-water mark (KiB on
        # Linux): monotone across backends, but its trajectory
        # over PRs is what the perf history tracks
        "peak_rss_kb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss,
    }


def test_engine_throughput(benchmark, record):
    wl = bootloader.workload(size=TRACE_SIZE)
    image = wl.build()

    def provision(store=None):
        """Fresh faulter + its derive-phase seconds (validation and
        trace recording — what the artifact cache amortizes)."""
        started = time.perf_counter()
        faulter = Faulter(image, wl.good_input, wl.bad_input,
                          wl.grant_marker, name=wl.name,
                          artifacts=store)
        faulter.trace()
        return faulter, time.perf_counter() - started

    faulter, _ = provision()
    trace_length = len(faulter.trace())
    assert trace_length >= 1000, (
        f"need a >=1k-instruction trace, got {trace_length}")
    # warm-up: fills the process-wide compiled-block map, so the
    # in-process rows time execution, not compilation (the cold
    # multiprocess row empties the map for its own passes); its
    # report is the one every row must reproduce
    expected, _ = _measure(faulter, SequentialBackend())

    # every backend row provisions its own faulter, so the derive
    # phase is measured per row; the multiprocess row starts from a
    # cold fleet (spin-up included in its execute time)
    shutdown_fleet()

    backends = {
        "trace-compiled": SequentialBackend(),
        "precise": SequentialBackend(trace_compile=False),
    }

    results = {}
    reports = {}
    for name, backend in backends.items():
        row_faulter, derive_seconds = provision()
        if name == "trace-compiled":
            # the headline number goes through pytest-benchmark
            report, elapsed = once(
                benchmark, lambda: _measure(row_faulter, backend))
        else:
            report, elapsed = _measure(row_faulter, backend)
        reports[name] = report
        results[name] = _row(report, derive_seconds, elapsed)

    # multiprocess and multiprocess-warm: WARM_PAIRS alternating
    # pairs.  Each pair's cold pass starts a fresh fleet from an empty
    # compiled-block map (forked workers inherit the parent's, which
    # the warm-up filled) and an empty artifact store; its warm pass
    # re-provisions against that store and rides the hot fleet.  The
    # rows keep each kind's fastest pass.
    warm_blocks = dict(jit_compiler._SHARED)
    fleet = MultiprocessBackend(workers=4)
    passes = {"multiprocess": [], "multiprocess-warm": []}
    try:
        for _ in range(WARM_PAIRS):
            shutdown_fleet()
            jit_compiler._SHARED.clear()
            cache_root = tempfile.mkdtemp(prefix="r2r-bench-cache-")
            try:
                for name in passes:
                    row_faulter, derive_seconds = provision(
                        ArtifactStore(cache_root))
                    report, elapsed = _measure(row_faulter, fleet)
                    passes[name].append(
                        (elapsed, derive_seconds, report))
            finally:
                shutil.rmtree(cache_root, ignore_errors=True)
    finally:
        shutdown_fleet()
        jit_compiler._SHARED.update(warm_blocks)
    for name, runs in passes.items():
        elapsed, derive_seconds, report = min(
            runs, key=lambda run: run[0])
        reports[name] = report
        results[name] = _row(report, derive_seconds, elapsed)
        artifacts = dict(report.meta["artifacts"])
        artifacts.pop("cache_dir", None)  # tempdir path is noise
        results[name]["artifacts"] = artifacts
    ratios = sorted(cold[0] / warm[0] for cold, warm in zip(
        passes["multiprocess"], passes["multiprocess-warm"]))
    results["multiprocess-warm"]["speedup_over_cold"] = {
        "pairs": WARM_PAIRS,
        "median": round(statistics.median(ratios), 3),
        "ratios": [round(ratio, 3) for ratio in ratios],
    }

    # what warmth buys, counted exactly: every cold pass derives the
    # trace and saves it, every warm pass loads it and misses nothing
    for _, _, report in passes["multiprocess"]:
        artifacts = report.meta["artifacts"]
        assert artifacts["misses"] >= 1 and artifacts["saves"] >= 1, \
            artifacts
    for _, _, report in passes["multiprocess-warm"]:
        artifacts = report.meta["artifacts"]
        assert artifacts["hits"] >= 1 and artifacts["misses"] == 0, \
            artifacts

    # all backends classify the sampled offsets identically
    for report in (*reports.values(),
                   *(run[2] for runs in passes.values() for run in runs)):
        assert report == expected

    # the warm fleet's acceptance property, as a same-run median of
    # paired cold/warm execute times
    speedup = results["multiprocess-warm"]["speedup_over_cold"]
    assert speedup["median"] >= WARM_MIN_SPEEDUP, (
        f"multiprocess-warm is {speedup['median']}x the cold "
        f"multiprocess row (median of {WARM_PAIRS} pairs "
        f"{speedup['ratios']}), below {WARM_MIN_SPEEDUP}x")

    # the compiled tier does the bulk of the stepping — and never
    # changes the deterministic emulated-step count
    assert (results["trace-compiled"]["emulated_steps"]
            == results["precise"]["emulated_steps"])
    meta = reports["trace-compiled"].meta
    assert meta["compiled_steps"] > meta["precise_steps"]
    assert results["precise"]["compiled_steps"] == 0

    # state-family row: the generalized fault-effect path must stay on
    # the same trajectory as fetch substitution
    state_report, state_median, state_iqr = _median_timed(
        lambda: _measure(
            faulter, SequentialBackend(), model=STATE_MODEL,
            space=SampledPoints(points=STATE_SAMPLES, seed=SEED))[0])
    models = {
        STATE_MODEL: {
            **_short_row(state_report.total_faults, state_median,
                         state_iqr),
            "samples": STATE_SAMPLES,
            "emulated_steps": state_report.meta["emulated_steps"],
            "compiled_steps": state_report.meta["compiled_steps"],
        }
    }

    # k=2 row: the reduced pair campaign must cover the full product
    # bit-identically while emulating >= K2_MIN_SPEEDUP x fewer steps
    ctx = faulter.engine().context(K2_MODEL)
    offsets = [step for step in range(len(ctx.trace))
               if ctx.variants(step)]
    pair_space = ProductSpace(
        k=2, indices=tuple(offsets[::K2_OFFSET_STRIDE]))
    full_start = time.perf_counter()
    full_pairs = faulter.engine().run(
        K2_MODEL, pair_space,
        backend=SequentialBackend(), reduce=False)
    full_elapsed = time.perf_counter() - full_start
    reduced_pairs, reduced_median, reduced_iqr = _median_timed(
        lambda: faulter.engine().run(
            K2_MODEL, pair_space,
            backend=SequentialBackend(), reduce=True))
    assert reduced_pairs == full_pairs
    full_pair_steps = full_pairs.meta["emulated_steps"]
    reduced_pair_steps = reduced_pairs.meta["emulated_steps"]
    step_speedup = full_pair_steps / max(1, reduced_pair_steps)
    assert step_speedup >= K2_MIN_SPEEDUP, (
        f"k=2 reduction speedup {step_speedup:.1f}x is below the "
        f"{K2_MIN_SPEEDUP}x floor")
    models["k2-reduced"] = {
        **_short_row(reduced_pairs.total_faults, reduced_median,
                     reduced_iqr),
        "model": K2_MODEL,
        "k_faults": 2,
        "emulated_steps": reduced_pair_steps,
        "executed_points":
            reduced_pairs.meta["reduction"]["executed_points"],
        "full_emulated_steps": full_pair_steps,
        "full_wall_seconds": round(full_elapsed, 4),
        "step_speedup": round(step_speedup, 1),
    }

    # pie row: reduced exhaustive campaign on the committed PIE
    # fixture — the real-binary path (ET_DYN read, equivalence
    # reduction, master walk) on the same perf trajectory as the
    # in-process workloads
    pie_exe = read_elf(
        (REPO_ROOT / "tests/fixtures/bootloader_pie.elf").read_bytes())
    pie_faulter = Faulter(pie_exe, PIE_GOOD, PIE_BAD, PIE_MARKER,
                          name="bootloader-pie")
    pie, pie_median, pie_iqr = _median_timed(
        lambda: pie_faulter.run_campaign("skip"))
    assert pie == pie_faulter.engine().run(
        "skip", ExhaustiveSpace(), reduce=False)
    models["pie"] = {
        **_short_row(pie.total_faults, pie_median, pie_iqr),
        "model": "skip",
        "emulated_steps": pie.meta["emulated_steps"],
        "compiled_steps": pie.meta["compiled_steps"],
        "precise_steps": pie.meta["precise_steps"],
        "peak_resident_points": pie.meta["peak_resident_points"],
    }

    payload = {
        "benchmark": "engine-throughput",
        "workload": wl.name,
        "trace_length": trace_length,
        "model": "skip",
        "samples": SAMPLES,
        "seed": SEED,
        "backends": results,
        "models": models,
        "peak_rss_kb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss,
    }
    BENCH_PATH.parent.mkdir(parents=True, exist_ok=True)
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        "ENGINE THROUGHPUT: skip campaign over seeded offsets "
        f"({wl.name}, trace={trace_length}, n={SAMPLES})",
        "",
        f"  {'backend':<16}{'faults/s':>12}{'emulated steps':>18}",
    ]
    for name, row in results.items():
        lines.append(f"  {name:<16}{row['faults_per_second']:>12}"
                     f"{row['emulated_steps']:>18}")
    for name, row in models.items():
        lines.append(f"  {name:<16}{row['faults_per_second']:>12}"
                     f"{row['emulated_steps']:>18}")
    lines += [
        "",
        f"  k=2 {K2_MODEL} pairs: equivalence reduction emulates "
        f"{step_speedup:.1f}x fewer steps than the full product "
        f"({full_pair_steps} -> {reduced_pair_steps}), bit-identically",
        f"  [written to {BENCH_PATH.relative_to(REPO_ROOT)}]",
    ]
    record("BENCH_campaign", "\n".join(lines))
