#!/usr/bin/env python3
"""Quickstart: find fault-injection vulnerabilities and patch them.

Builds the paper's pincheck case study, shows that a wrong pin is
rejected, demonstrates a successful instruction-skip fault, then runs
the Faulter+Patcher loop (Fig. 2) and shows the hardened binary
resisting the same campaign.
"""

from repro.api import Target
from repro.emu import Machine, run_executable
from repro.emu.effects import SkipEffect
from repro.workloads import pincheck


def main():
    wl = pincheck.workload(pin="1234")
    exe = wl.build()
    target = wl.target(exe=exe)   # Target: exe + inputs + oracle

    print("=== baseline behaviour " + "=" * 40)
    good = run_executable(exe, stdin=wl.good_input)
    bad = run_executable(exe, stdin=wl.bad_input)
    print(f"correct pin  -> {good.stdout.decode().strip()!r}")
    print(f"wrong pin    -> {bad.stdout.decode().strip()!r}")

    print("\n=== fault campaign on the unprotected binary " + "=" * 18)
    reports = target.campaign(models=("skip",))
    print(reports["skip"].summary())

    # demonstrate one successful fault concretely
    fault = reports["skip"].successes[0]
    machine = Machine(exe, stdin=wl.bad_input)
    result = machine.run(fault_plan={fault.trace_index: SkipEffect()})
    print(f"\nskipping '{fault.mnemonic}' at {fault.address:#x} "
          f"(step {fault.trace_index}) with the WRONG pin prints: "
          f"{result.stdout.decode().strip()!r}")

    print("\n=== Faulter+Patcher hardening (Fig. 2) " + "=" * 24)
    hardened = target.harden(approach="faulter+patcher",
                             fault_models=("skip",))
    print(hardened.report())

    print("\n=== hardened binary behaviour " + "=" * 33)
    good = run_executable(hardened.hardened, stdin=wl.good_input)
    bad = run_executable(hardened.hardened, stdin=wl.bad_input)
    print(f"correct pin  -> {good.stdout.decode().strip()!r}")
    print(f"wrong pin    -> {bad.stdout.decode().strip()!r}")

    retest = Target(hardened.hardened, wl.good_input, wl.bad_input,
                    wl.grant_marker, name="hardened")
    reports = retest.campaign(models=("skip",))
    print(f"successful skip faults after hardening: "
          f"{reports['skip'].outcomes.get('success', 0)}")


if __name__ == "__main__":
    main()
