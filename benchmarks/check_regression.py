"""Gate campaign-engine throughput against the committed baseline.

CI's ``bench`` job runs ``benchmarks/test_engine_throughput.py`` (which
writes the gitignored ``benchmarks/out/BENCH_campaign.json``) and
then::

    python benchmarks/check_regression.py BENCH_campaign.json \
        benchmarks/out/BENCH_campaign.json

Throughput is compared as a ratio: each backend row's — and each
fault-model row's (the ``models`` section, e.g. ``reg-bitflip``) —
``faults_per_second`` divided by the same file's ``precise`` row,
which runs on the same machine under the same load.  The ``models``
rows are short, so the bench times each as the median of 5
repetitions (``wall_seconds_iqr`` records their spread), and the
``precise`` row too (``execute_seconds_iqr``); the ratio gated here
is that of the medians.  The check fails
(exit 1) when that ratio drops more than ``--threshold`` (default
25%) below the committed baseline's ratio, when any row *emulates
more steps*
than the baseline, or when any row's ``compiled_steps`` or
``precise_steps`` differs from the baseline at all.  Step counts are
deterministic for a fixed workload and seed, so more emulated steps
is an algorithmic regression, not noise, and a changed compiled /
precise split means the JIT tier now covers different code.  Fewer
emulated steps than the baseline is an improvement; the script
reminds you to refresh the baseline so the trajectory records it.
Every row is gated: a baseline row missing from the fresh run fails,
and so does a fresh row the baseline does not carry (a renamed or
added row must enter the baseline before it can pass).

No test writes the committed baseline.  Refreshing it is an explicit
step, after a bench run on the machine whose numbers should become
the baseline::

    PYTHONPATH=src python -m pytest benchmarks/test_engine_throughput.py
    cp benchmarks/out/BENCH_campaign.json BENCH_campaign.json

The warm-fleet acceptance property is gated here too: whenever the
fresh ``multiprocess-warm`` row carries its ``speedup_over_cold``
record, the median over its alternating cold/warm pass pairs must be
at least ``WARM_MIN_SPEEDUP`` — fresh numbers on both sides, so the
gate compares schedulers on the same machine.
"""

from __future__ import annotations

import argparse
import json
import sys

# must match benchmarks/test_engine_throughput.py::WARM_MIN_SPEEDUP
WARM_MIN_SPEEDUP = 1.3

# step counters gated for exact equality with the baseline
EXACT_STEP_FIELDS = ("compiled_steps", "precise_steps")

# the backend row every faults/s figure is divided by: absolute
# speeds follow the host and its load, their ratios follow the code
REFERENCE_ROW = "precise"


def _reference_speed(bench: dict) -> float | None:
    return bench.get("backends", {}).get(REFERENCE_ROW, {}).get(
        "faults_per_second")


def _compare_rows(kind: str, baseline_rows: dict, fresh_rows: dict,
                  threshold: float, old_ref: float | None,
                  new_ref: float | None) -> list[str]:
    """Gate one named-row section (``backends`` or ``models``);
    faults/s are gated relative to each file's ``old_ref``/``new_ref``
    reference speed, and not at all when either file lacks one."""
    failures = []
    missing = set(baseline_rows) - set(fresh_rows)
    if missing:
        failures.append(
            f"{kind} disappeared from the fresh run: {sorted(missing)}")
    ungated = set(fresh_rows) - set(baseline_rows)
    if ungated:
        failures.append(
            f"{kind} missing from the baseline, so ungated: "
            f"{sorted(ungated)}")
    for name in sorted(set(baseline_rows) & set(fresh_rows)):
        old, new = baseline_rows[name], fresh_rows[name]
        old_fps, new_fps = old.get("faults_per_second"), \
            new.get("faults_per_second")
        if (old_fps and new_fps is not None and old_ref and new_ref
                and (kind, name) != ("backends", REFERENCE_ROW)):
            old_ratio, new_ratio = old_fps / old_ref, new_fps / new_ref
            if new_ratio < old_ratio * (1.0 - threshold):
                failures.append(
                    f"{name}: {new_ratio:.2f}x the {REFERENCE_ROW} "
                    f"row's faults/s is "
                    f"{100 * (1 - new_ratio / old_ratio):.1f}% below "
                    f"the baseline's {old_ratio:.2f}x "
                    f"(threshold {100 * threshold:.0f}%)")
        old_steps = old.get("emulated_steps")
        new_steps = new.get("emulated_steps")
        if old_steps is not None and new_steps is not None \
                and new_steps > old_steps:
            failures.append(
                f"{name}: emulated steps grew {old_steps} -> "
                f"{new_steps} (deterministic metric; this is an "
                f"algorithmic regression)")
        for field in EXACT_STEP_FIELDS:
            if field in old and old.get(field) != new.get(field):
                failures.append(
                    f"{name}: {field} changed {old[field]} -> "
                    f"{new.get(field)} (deterministic metric, gated "
                    f"exactly)")
    return failures


def _check_warm_speedup(fresh_backends: dict) -> list[str]:
    """Fresh-vs-fresh gate: warm fleet must beat the cold fleet."""
    speedup = fresh_backends.get("multiprocess-warm", {}).get(
        "speedup_over_cold")
    if speedup is None:
        return []
    if speedup["median"] < WARM_MIN_SPEEDUP:
        return [
            f"multiprocess-warm: median speedup {speedup['median']}x "
            f"over the cold fleet ({speedup['pairs']} pairs) is below "
            f"{WARM_MIN_SPEEDUP}x (warm-fleet acceptance gate)"]
    return []


def compare(baseline: dict, fresh: dict, threshold: float) -> list[str]:
    """Return a list of human-readable regression messages."""
    refs = _reference_speed(baseline), _reference_speed(fresh)
    return (
        _compare_rows("backends", baseline.get("backends", {}),
                      fresh.get("backends", {}), threshold, *refs)
        + _compare_rows("models", baseline.get("models", {}),
                        fresh.get("models", {}), threshold, *refs)
        + _check_warm_speedup(fresh.get("backends", {}))
    )


def render(baseline: dict, fresh: dict) -> str:
    lines = [f"{'row':<16}{'faults/s':>22}{'emulated steps':>26}"]
    for section in ("backends", "models"):
        fresh_rows = fresh.get(section, {})
        for name, old in baseline.get(section, {}).items():
            new = fresh_rows.get(name, {})
            lines.append(
                f"{name:<16}"
                f"{old.get('faults_per_second')!s:>10} ->"
                f"{new.get('faults_per_second')!s:>10}"
                f"{old.get('emulated_steps')!s:>14} ->"
                f"{new.get('emulated_steps')!s:>10}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_campaign.json")
    parser.add_argument("fresh", help="freshly regenerated JSON")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="tolerated fractional drop of a row's "
                             "faults/s relative to the precise row "
                             "(default: 0.25)")
    args = parser.parse_args(argv)
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.fresh) as handle:
        fresh = json.load(handle)
    print(render(baseline, fresh))
    failures = compare(baseline, fresh, args.threshold)
    if failures:
        print("\nBENCH REGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    improved = [
        name
        for name, old in baseline.get("backends", {}).items()
        if fresh.get("backends", {}).get(name, {}).get(
            "emulated_steps", old.get("emulated_steps"))
        < old.get("emulated_steps", 0)
    ]
    if improved:
        print(f"\nemulated steps improved for {improved}; copy the "
              f"fresh file over BENCH_campaign.json to record it")
    print("\nbench check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
