"""Ablation A3 — detouring vs reassembleable disassembly (Section III-B).

The paper surveys three rewriting schemes and argues that detouring
"introduces a high performance degradation given the two control
transfers at patch points", while reassembleable disassembly inlines
the instrumentation and "performance penalty caused by jump
instructions [is] alleviated".  This benchmark makes that comparison
measurable: the same duplication countermeasure applied both ways,
compared on code size and dynamic instruction count.
"""

from conftest import once

from repro.detour.rewriter import duplicate_with_detours
from repro.disasm import disassemble, reassemble
from repro.emu import run_executable
from repro.patcher import Patcher
from repro.patcher.patterns import _is_idempotent, duplicate_pattern


def _inline_duplicate(exe):
    """Duplicate idempotent instructions via reassembleable disassembly
    (the same protection the detour variant applies)."""
    module = disassemble(exe)
    patcher = Patcher(module)
    targets = [
        entry
        for block in module.text().code_blocks()
        for entry in list(block.entries)
        if not entry.protected and not entry.insn.is_control_flow
        and entry.insn.name != "syscall" and _is_idempotent(entry)
    ]
    applied = 0
    for entry in targets:
        located = patcher._locate(entry)
        if located is None:
            continue
        from repro.patcher.patterns import PatchBuilder
        builder = PatchBuilder(patcher.module,
                               patcher.ensure_faulthandler(), site=entry)
        if duplicate_pattern(builder, entry):
            patcher._splice(*located[0:3], builder)
            applied += 1
    return reassemble(module), applied


def _measure(wl):
    exe = wl.build()
    baseline = run_executable(exe, stdin=wl.good_input)
    detoured, stats = duplicate_with_detours(exe)
    inlined, applied = _inline_duplicate(exe)
    detour_run = run_executable(detoured, stdin=wl.good_input)
    inline_run = run_executable(inlined, stdin=wl.good_input)
    assert wl.grant_marker in detour_run.stdout
    assert wl.grant_marker in inline_run.stdout

    def size(image):
        return sum(s.mem_size for s in image.sections if s.executable)

    return {
        "baseline": (exe.code_size(), baseline.steps),
        "detour": (size(detoured), detour_run.steps, stats.patched),
        "inline": (size(inlined), inline_run.steps, applied),
    }


def test_detour_vs_reassembly(benchmark, record, pincheck_wl):
    results = once(benchmark, lambda: _measure(pincheck_wl))
    base_size, base_steps = results["baseline"]
    det_size, det_steps, det_patched = results["detour"]
    inl_size, inl_steps, inl_patched = results["inline"]

    lines = [
        "ABLATION A3: detouring vs reassembleable disassembly "
        "(duplication countermeasure, pincheck, good input)",
        "",
        "  scheme                  code size   dynamic steps   patched",
        "  ---------------------   ---------   -------------   -------",
        f"  baseline                {base_size:>8}B   {base_steps:>13}"
        f"   {'-':>7}",
        f"  patch-based detour      {det_size:>8}B   {det_steps:>13}"
        f"   {det_patched:>7}",
        f"  reassembleable inline   {inl_size:>8}B   {inl_steps:>13}"
        f"   {inl_patched:>7}",
        "",
        f"  detour executes {det_steps - base_steps} extra dynamic "
        f"instructions ({100*(det_steps-base_steps)/base_steps:.0f}%), "
        "dominated by the two control",
        "  transfers per patch point; inlined duplication pays only "
        f"the duplicates themselves "
        f"({100*(inl_steps-base_steps)/base_steps:.0f}%).",
    ]
    record("ablation_detour_vs_reassembly", "\n".join(lines))

    # Section III-B claims, as assertions:
    # 1. detouring costs more dynamic instructions than inlining the
    #    same instrumentation
    assert det_steps > inl_steps > base_steps
    # 2. per patched instruction, the detour pays at least the two
    #    control transfers
    assert det_steps - base_steps >= 2 * det_patched
