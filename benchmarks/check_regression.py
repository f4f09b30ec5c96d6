"""Gate campaign-engine throughput against the committed baseline.

CI's ``bench`` job runs ``benchmarks/test_engine_throughput.py`` (which
writes the gitignored ``benchmarks/out/BENCH_campaign.json``) and
then::

    python benchmarks/check_regression.py BENCH_campaign.json \
        benchmarks/out/BENCH_campaign.json

The check fails (exit 1) when any backend's — or any fault-model
row's (the ``models`` section, e.g. ``reg-bitflip``) —
``faults_per_second`` drops more than ``--threshold`` (default 25%)
below the committed baseline, when any row *emulates more steps*
than the baseline, or when any row's ``compiled_steps`` or
``precise_steps`` differs from the baseline at all.  Step counts are
deterministic for a fixed workload and seed, so more emulated steps
is an algorithmic regression, not noise, and a changed compiled /
precise split means the JIT tier now covers different code.  Fewer
emulated steps than the baseline is an improvement; the script
reminds you to refresh the baseline so the trajectory records it.
Rows in ``NONDETERMINISTIC_STEP_ROWS`` are gated on faults/s only.

No test writes the committed baseline.  Refreshing it is an explicit
step, after a bench run on the machine whose numbers should become
the baseline::

    PYTHONPATH=src python -m pytest benchmarks/test_engine_throughput.py
    cp benchmarks/out/BENCH_campaign.json BENCH_campaign.json

The warm-fleet acceptance property is gated here too: whenever the
fresh ``backends`` section carries both ``multiprocess`` and
``multiprocess-warm`` rows, the warm row must sustain at least
``WARM_MIN_SPEEDUP`` x the cold row's faults/s — fresh numbers on
both sides, so the gate compares schedulers on the same machine.
"""

from __future__ import annotations

import argparse
import json
import sys

# must match benchmarks/test_engine_throughput.py::WARM_MIN_SPEEDUP
WARM_MIN_SPEEDUP = 2.0

# rows whose step counts vary from run to run, so only their faults/s
# is gated, each with the reason its counts are not reproducible
NONDETERMINISTIC_STEP_ROWS = {
    # work-stealing order decides which warm worker replays a stolen
    # partition, and its retained checkpoint prefix sets the replay
    # length (204247 to 204384 emulated steps on identical code)
    "multiprocess-warm",
}

# step counters gated for exact equality with the baseline
EXACT_STEP_FIELDS = ("compiled_steps", "precise_steps")


def _compare_rows(kind: str, baseline_rows: dict, fresh_rows: dict,
                  threshold: float) -> list[str]:
    """Gate one named-row section (``backends`` or ``models``)."""
    failures = []
    missing = set(baseline_rows) - set(fresh_rows)
    if missing:
        failures.append(
            f"{kind} disappeared from the fresh run: {sorted(missing)}")
    for name in sorted(set(baseline_rows) & set(fresh_rows)):
        old, new = baseline_rows[name], fresh_rows[name]
        old_fps, new_fps = old.get("faults_per_second"), \
            new.get("faults_per_second")
        if old_fps and new_fps is not None:
            floor = old_fps * (1.0 - threshold)
            if new_fps < floor:
                failures.append(
                    f"{name}: {new_fps:.2f} faults/s is "
                    f"{100 * (1 - new_fps / old_fps):.1f}% below the "
                    f"baseline {old_fps:.2f} "
                    f"(threshold {100 * threshold:.0f}%)")
        if name in NONDETERMINISTIC_STEP_ROWS:
            continue
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
    cold = fresh_backends.get("multiprocess", {}).get(
        "faults_per_second")
    warm = fresh_backends.get("multiprocess-warm", {}).get(
        "faults_per_second")
    if not cold or warm is None:
        return []
    if warm < WARM_MIN_SPEEDUP * cold:
        return [
            f"multiprocess-warm: {warm:.2f} faults/s is below "
            f"{WARM_MIN_SPEEDUP}x the fresh cold multiprocess "
            f"{cold:.2f} faults/s (warm-fleet acceptance gate)"]
    return []


def compare(baseline: dict, fresh: dict, threshold: float) -> list[str]:
    """Return a list of human-readable regression messages."""
    return (
        _compare_rows("backends", baseline.get("backends", {}),
                      fresh.get("backends", {}), threshold)
        + _compare_rows("models", baseline.get("models", {}),
                        fresh.get("models", {}), threshold)
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
                        help="tolerated fractional faults/s drop "
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
