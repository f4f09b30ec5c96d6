"""Fig. 3 — both end-to-end flows produce working hardened binaries.

Lower path: binary -> faulter -> patcher -> patched binary.
Upper path: binary -> lifter -> IR countermeasure -> lowered binary.
"""

from conftest import once

from repro.api import Target
from repro.emu import run_executable


def _both_paths(wl):
    exe = wl.build()
    target = Target(exe, wl.good_input, wl.bad_input, wl.grant_marker,
                    name=wl.name)
    fp = target.harden(approach="faulter+patcher", fault_models=("skip",))
    hy = target.harden(approach="hybrid", fault_models=("skip",))
    return exe, fp, hy


def test_fig3(benchmark, record, pincheck_wl):
    wl = pincheck_wl
    exe, fp, hy = once(benchmark, lambda: _both_paths(wl))

    lines = ["FIG. 3: end-to-end hardening flows", ""]
    for label, result in (("Faulter+Patcher (lower path)", fp),
                          ("Hybrid (upper path)", hy)):
        good = run_executable(result.hardened, stdin=wl.good_input)
        bad = run_executable(result.hardened, stdin=wl.bad_input)
        residual = result.final_reports["skip"].outcomes.get(
            "success", 0)
        lines.append(f"  {label}:")
        lines.append(f"    size {exe.code_size()}B -> "
                     f"{result.hardened.code_size()}B")
        lines.append(f"    good input -> "
                     f"{good.stdout.decode().strip()!r}")
        lines.append(f"    bad input  -> "
                     f"{bad.stdout.decode().strip()!r}")
        lines.append(f"    residual successful skip faults: {residual}")
        lines.append("")
        assert wl.grant_marker in good.stdout
        assert wl.grant_marker not in bad.stdout
        assert residual == 0
    record("fig3_end_to_end", "\n".join(lines))
