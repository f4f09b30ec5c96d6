"""Table V — code-size overhead of the two approaches.

Paper reference (overhead in code size, %):

    case study          Faulter+Patcher   Hybrid
    pincheck                      17.61    85.88
    secure bootloader             19.67    48.67

Our substrate differs (hand-assembled case studies instead of compiled
binaries; our lifter/backend instead of Rev.ng/LLVM), so absolute
numbers shift — the *shape* assertions encode the paper's claims:
targeted patching is much cheaper than holistic hardening, and the
Faulter+Patcher approach stays far below the 300% duplication strawman.
Our hybrid/F+P ratio runs wider than the paper's 2x-5x because our
backend's translation overhead (printed per case as "translation
alone") exceeds Rev.ng's on these hand-sized binaries.
"""

from conftest import once

from repro.hybrid import hybrid_harden
from repro.patcher import FaulterPatcherLoop

PAPER = {
    "pincheck": {"fp": 17.61, "hybrid": 85.88},
    "secure bootloader": {"fp": 19.67, "hybrid": 48.67},
}


def _measure(wl):
    exe = wl.build()
    fp = FaulterPatcherLoop(exe, wl.good_input, wl.bad_input,
                            wl.grant_marker, models=("skip",),
                            name=wl.name).run()
    hy = hybrid_harden(exe, wl.good_input, wl.bad_input,
                       wl.grant_marker, name=wl.name)
    return fp, hy


def test_table5(benchmark, record, rich_pincheck_wl, rich_bootloader_wl):
    results = once(
        benchmark,
        lambda: {
            "pincheck": _measure(rich_pincheck_wl),
            "secure bootloader": _measure(rich_bootloader_wl),
        })

    lines = [
        "TABLE V: overhead of adding the protections "
        "(code size, %)",
        "",
        "  case study          paper F+P   ours F+P   "
        "paper Hybrid   ours Hybrid",
        "  ------------------  ---------   --------   "
        "------------   -----------",
    ]
    for case, (fp, hy) in results.items():
        paper = PAPER[case]
        lines.append(
            f"  {case:<18}  {paper['fp']:>9.2f}   "
            f"{fp.overhead_percent:>8.2f}   "
            f"{paper['hybrid']:>12.2f}   {hy.overhead_percent:>11.2f}")
    lines.append("")
    for case, (fp, hy) in results.items():
        ratio = hy.overhead_percent / fp.overhead_percent
        lines.append(
            f"  {case}: hybrid/F+P ratio = {ratio:.1f}x "
            f"(paper: {PAPER[case]['hybrid']/PAPER[case]['fp']:.1f}x); "
            f"translation alone {hy.translation_overhead_percent:+.1f}%")
    record("table5_overhead", "\n".join(lines))

    for case, (fp, hy) in results.items():
        # shape: targeted patching is cheap, holistic hardening is the
        # expensive option (paper: 2x-5x; ours is wider because our
        # backend's translation overhead exceeds Rev.ng's on these
        # hand-sized binaries)
        assert fp.overhead_percent < hy.overhead_percent
        assert fp.overhead_percent < 60.0
        assert fp.converged
        assert hy.overhead_percent / fp.overhead_percent >= 2.0
        # F+P stays far below the naive-duplication strawman
        assert fp.overhead_percent < 300.0
