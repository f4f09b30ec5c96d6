"""Extension features: multi-fault campaigns, guided hybrid filter."""

import pytest

from repro.emu import Machine
from repro.emu.effects import SkipEffect
from repro.faulter import Faulter
from repro.hybrid import faulter_guided_filter, hybrid_harden
from repro.workloads import pincheck


@pytest.fixture(scope="module")
def wl():
    return pincheck.workload()


class TestFaultPlan:
    def test_two_skips_in_one_run(self, wl):
        """Skipping both duplicated compares of a Table II pattern in
        the same run defeats the single-fault countermeasure — the
        double-fault machinery must express that."""
        exe = wl.build()
        machine = Machine(exe, stdin=wl.bad_input)
        result = machine.run(fault_plan={3: SkipEffect(), 8: SkipEffect()})
        assert result.reason in ("exit", "crash", "max-steps")

    def test_plan_and_single_fault_combined(self, wl):
        machine = Machine(wl.build(), stdin=wl.bad_input)
        result = machine.run(fault_plan={2: SkipEffect(), 5: SkipEffect()})
        assert result.steps > 0
        # a plan holds fault effects only, never bare callables
        with pytest.raises(TypeError, match="not a fault effect"):
            machine.run(fault_plan={2: lambda insn, cpu: None})


class TestPairCampaign:
    def test_pair_campaign_runs(self, wl):
        faulter = Faulter(wl.build(), wl.good_input, wl.bad_input,
                          wl.grant_marker, name=wl.name)
        report = faulter.run_k_fault_campaign("skip", k=2, samples=100,
                                             seed=1)
        assert report.total_faults > 50
        assert sum(report.outcomes.values()) == report.total_faults

    def test_pair_campaign_deterministic(self, wl):
        faulter = Faulter(wl.build(), wl.good_input, wl.bad_input,
                          wl.grant_marker, name=wl.name)
        first = faulter.run_k_fault_campaign("skip", k=2, samples=60,
                                             seed=7)
        second = faulter.run_k_fault_campaign("skip", k=2, samples=60,
                                              seed=7)
        assert first.outcomes == second.outcomes

    def test_hardened_binary_still_attackable_with_two_faults(self, wl):
        """Single-fault protection does not (and cannot) guarantee
        double-fault resistance — the paper's threat model is single
        fault per run."""
        from repro.patcher import FaulterPatcherLoop
        result = FaulterPatcherLoop(
            wl.build(), wl.good_input, wl.bad_input, wl.grant_marker,
            models=("skip",), name=wl.name).run()
        assert result.converged  # single-fault clean
        faulter = Faulter(result.hardened, wl.good_input, wl.bad_input,
                          wl.grant_marker, name="hardened")
        report = faulter.run_k_fault_campaign("skip", k=2, samples=400,
                                             seed=3)
        # informational: pairs may or may not break it, but the
        # campaign must classify every sampled pair
        assert sum(report.outcomes.values()) == report.total_faults


class TestGuidedHybrid:
    def test_guided_filter_reduces_overhead(self, wl):
        exe = wl.build()
        guided = faulter_guided_filter(exe, wl.good_input,
                                       wl.bad_input, wl.grant_marker)
        selective = hybrid_harden(exe, wl.good_input, wl.bad_input,
                                  wl.grant_marker, name=wl.name,
                                  branch_filter=guided)
        full = hybrid_harden(exe, wl.good_input, wl.bad_input,
                             wl.grant_marker, name=wl.name)
        assert selective.hardening.branches_hardened <= \
            full.hardening.branches_hardened
        assert selective.overhead_percent < full.overhead_percent

    def test_guided_still_fixes_skip_vulnerabilities(self, wl):
        exe = wl.build()
        guided = faulter_guided_filter(exe, wl.good_input,
                                       wl.bad_input, wl.grant_marker)
        result = hybrid_harden(exe, wl.good_input, wl.bad_input,
                               wl.grant_marker, name=wl.name,
                               branch_filter=guided, models=("skip",))
        report = result.final_reports["skip"]
        # the originally vulnerable branch is protected; any residual
        # successes would sit on unprotected branches
        assert report.outcomes.get("success", 0) == 0
