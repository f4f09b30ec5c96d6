"""Ablation A2 — the targeted-vs-holistic trade-off (Section IV-D).

Sweeps the number of branches the hybrid pass protects (the paper's
"overall overhead ... depends on the number of conditional branches
that we want to protect"), including the faulter-*guided* selective
hybrid the paper sketches as future work, and compares against the
targeted Faulter+Patcher loop.
"""

from conftest import once

from repro.hybrid import hybrid_harden
from repro.patcher import FaulterPatcherLoop


def _sweep(wl):
    exe = wl.build()
    results = {}

    # protect the first k conditional branches (layout order)
    for k in (0, 1, 3, 999):
        counter = {"seen": 0}

        def first_k(block, terminator, k=k, counter=counter):
            counter["seen"] += 1
            return counter["seen"] <= k

        hy = hybrid_harden(exe, wl.good_input, wl.bad_input,
                           wl.grant_marker, name=wl.name,
                           branch_filter=first_k)
        results[f"first {k if k < 999 else 'all'}"] = hy

    # faulter-guided: only branches in guest blocks that contain a
    # vulnerable point (the paper's future-work iterative hybrid)
    from repro.hybrid import faulter_guided_filter
    guided = faulter_guided_filter(exe, wl.good_input, wl.bad_input,
                                   wl.grant_marker)
    results["faulter-guided"] = hybrid_harden(
        exe, wl.good_input, wl.bad_input, wl.grant_marker,
        name=wl.name, branch_filter=guided)

    fp = FaulterPatcherLoop(exe, wl.good_input, wl.bad_input,
                            wl.grant_marker, models=("skip",),
                            name=wl.name).run()
    return results, fp


def test_targeted_vs_holistic(benchmark, record, rich_bootloader_wl):
    results, fp = once(benchmark, lambda: _sweep(rich_bootloader_wl))

    lines = [
        "ABLATION A2: overhead vs number of protected branches "
        f"({rich_bootloader_wl.name})",
        "",
        "  configuration      branches   overhead",
        "  ----------------   --------   --------",
        f"  {'F+P (targeted)':<16}   {'-':>8}   "
        f"{fp.overhead_percent:>7.2f}%",
    ]
    overheads = []
    for label, hy in results.items():
        lines.append(f"  hybrid {label:<9}   "
                     f"{hy.hardening.branches_hardened:>8}   "
                     f"{hy.overhead_percent:>7.2f}%")
        overheads.append((hy.hardening.branches_hardened,
                          hy.overhead_percent))
    lines.append("")
    lines.append("  overhead grows monotonically with the number of "
                 "protected branches;")
    lines.append("  the faulter-guided hybrid approaches the targeted "
                 "cost while keeping the IR-level mechanism.")
    record("ablation_targeted_vs_holistic", "\n".join(lines))

    by_branches = sorted(overheads)
    for (b1, o1), (b2, o2) in zip(by_branches, by_branches[1:]):
        if b1 != b2:
            assert o1 < o2, "overhead must grow with protected branches"
    guided = results["faulter-guided"]
    full = results["first all"]
    assert guided.overhead_percent < full.overhead_percent
    assert fp.overhead_percent < full.overhead_percent
