"""Per-unit chunked campaigns: bit-identity plus rollups.

``CampaignEngine.run_chunked`` partitions the bad-input trace along a
:class:`~repro.disasm.units.RewritePlan` and runs one sub-campaign per
unit inside the backend's ``max_resident_points`` bound.  The report
must be *bit-identical* to the reference protocol over the exhaustive
space (:mod:`tests.reference`; equality excludes ``meta``) — chunking
is an execution strategy, never a result change — while
``meta["units"]`` gains per-function rollups.
"""

import pytest

from repro.api import EngineConfig
from repro.faulter.campaign import Faulter
from repro.faulter.engine import MultiprocessBackend, SequentialBackend
from repro.faulter.space import ExhaustiveSpace
from repro.workloads import bootloader, pincheck
from tests.reference import reference_report


def faulter_and_plan(wl, name):
    exe = wl.build()
    oracle = wl.oracle if wl.oracle is not None else wl.grant_marker
    faulter = Faulter(exe, wl.good_input, wl.bad_input, oracle,
                      name=name)
    return faulter, faulter.rewrite_plan()


class TestBitIdentity:
    @pytest.mark.parametrize("model", ["skip", "bitflip"])
    def test_single_function_workload(self, model):
        faulter, plan = faulter_and_plan(pincheck.workload(), "pin")
        assert faulter.engine().run_chunked(model, plan) == \
            reference_report(faulter, model)

    @pytest.mark.parametrize("model", ["skip", "bitflip"])
    def test_multi_function_workload(self, model):
        faulter, plan = faulter_and_plan(
            pincheck.workload(rich=True), "pin-rich")
        assert len(plan.units) > 1
        engine = faulter.engine()
        report = engine.run_chunked(model, plan)
        # bitflip here hits the compiled tier's load-elision defect
        # (pinned against the reference in tests/test_known_defects.py),
        # so chunking is checked against the unchunked compiled run
        assert report == engine.run(model, ExhaustiveSpace(),
                                    reduce=False)
        assert set(report.meta["units"]) == \
            {u.name for u in plan.units
             if any(plan.unit_at(a) is u for a in set(faulter.trace()))}

    def test_identical_to_reduced_run(self):
        # chunked and the default (reduced) exhaustive run both
        # report every point of the full space, as the reference does
        faulter, plan = faulter_and_plan(bootloader.workload(), "boot")
        engine = faulter.engine()
        reference = reference_report(faulter, "skip")
        assert engine.run_chunked("skip", plan) == reference
        assert faulter.run_campaign("skip") == reference

    def test_bounded_resident_window(self):
        faulter, plan = faulter_and_plan(
            pincheck.workload(rich=True), "pin-rich")
        backend = SequentialBackend(max_resident_points=4)
        report = faulter.engine().run_chunked("skip", plan,
                                              backend=backend)
        assert report == reference_report(faulter, "skip")
        assert report.meta["peak_resident_points"] <= 4

    def test_multiprocess_backend(self):
        faulter, plan = faulter_and_plan(pincheck.workload(), "pin")
        backend = MultiprocessBackend(workers=2)
        assert faulter.engine().run_chunked(
            "skip", plan, backend=backend) == \
            reference_report(faulter, "skip")


class TestRollups:
    def test_rollup_shape(self):
        faulter, plan = faulter_and_plan(
            bootloader.workload(rich=True), "boot-rich")
        report = faulter.run_chunked_campaign("skip")
        units = report.meta["units"]
        assert units
        for rollup in units.values():
            assert rollup["points"] == sum(rollup["outcomes"].values())
            assert rollup["trace_steps"] > 0
        total = sum(r["points"] for r in units.values())
        assert total == report.total_faults
        assert report.meta["space"].startswith("unit-chunked[")
        assert report.meta["reduction"] == {"enabled": False,
                                            "reason": "chunked"}

    def test_rollups_cover_whole_trace(self):
        faulter, plan = faulter_and_plan(
            pincheck.workload(rich=True), "pin-rich")
        report = faulter.run_chunked_campaign("skip")
        steps = sum(r["trace_steps"]
                    for r in report.meta["units"].values())
        assert steps == len(faulter.trace())


class TestConfigWiring:
    def test_engine_config_round_trips(self):
        config = EngineConfig(chunk_units=True)
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_chunk_units_rejects_multi_fault(self):
        with pytest.raises(ValueError, match="single-fault"):
            EngineConfig(chunk_units=True, k_faults=2)

    def test_target_campaign_dispatch(self):
        target = pincheck.workload().target()
        chunked = target.campaign(("skip",),
                                  EngineConfig(chunk_units=True))
        assert chunked["skip"] == reference_report(target.faulter(),
                                                   "skip")
        assert "units" in chunked["skip"].meta
