"""Gate perfbench's deterministic per-layer counters exactly.

CI's ``bench`` job runs the traced benchmark on each case study with
a pinned entry and checks its last stdout line, the JSON result::

    python3 perfbench/run.py --workload pincheck --seed 0 --trace 1 \
        > perfbench.log
    python benchmarks/check_counters.py \
        benchmarks/perfbench_counters.json perfbench.log \
        --workload pincheck

The committed file holds one entry per workload, each with the command
that produces its log and the pinned counters.  The check fails (exit
1) when the result is not ``"correct": true`` (a failed output check,
seed 0's digests included), or when any counter in the workload's
entry is missing from the result or differs from it at all.  These
counters (emulated/compiled/precise steps, superblocks compiled,
executed fault points, verifier calls, fleet jobs) are deterministic
for a fixed workload and seed, so any change is a change of
behaviour, not noise.

A PR that changes a counter on purpose refreshes the committed file
from a traced run and says why in its description.
"""

from __future__ import annotations

import argparse
import json
import sys


def last_result(log: str) -> dict:
    """The JSON result: the last non-empty line of run.py's stdout."""
    lines = [line for line in log.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty benchmark log")
    return json.loads(lines[-1])


def compare(pinned: dict, result: dict) -> list[str]:
    """Failures of ``result`` against the ``pinned`` counters."""
    failures = []
    if result.get("correct") is not True:
        failures.append(f"correct is {result.get('correct')!r} "
                        f"({result.get('failed')} failed)")
    metrics = result.get("metrics", {})
    for name, want in sorted(pinned["counters"].items()):
        if name not in metrics:
            failures.append(f"{name}: missing from the result")
            continue
        got = metrics[name]["value"]
        if got != want:
            failures.append(f"{name}: {got} != pinned {want}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("pinned", help="committed counter file")
    parser.add_argument("log", help="run.py's standard output")
    parser.add_argument("--workload", required=True,
                        help="the workload the log was run on")
    args = parser.parse_args(argv)
    with open(args.pinned) as handle:
        workloads = json.load(handle)["workloads"]
    if args.workload not in workloads:
        parser.error(f"no pinned counters for {args.workload!r}")
    pinned = workloads[args.workload]
    with open(args.log) as handle:
        failures = compare(pinned, last_result(handle.read()))
    for failure in failures:
        print(f"FAIL {failure}")
    if not failures:
        print(f"ok: {len(pinned['counters'])} {args.workload} counters "
              f"match")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
