"""Unified campaign engine: spaces, backends, the master walk.

The load-bearing property asserted throughout: every backend produces
a report *bit-identical* to the paper's literal protocol in
:mod:`tests.reference` (``CampaignReport.__eq__`` excludes only
execution metadata).
"""

import gc
import weakref

import pytest

from repro.faulter import (
    CampaignReport, EngineConfig, Faulter, KFaultProductSpace,
    MultiprocessBackend, SequentialBackend, WindowedSpace)
from repro.faulter.space import ExhaustiveSpace
from repro.workloads import pincheck
from tests.reference import reference_report
from tests.spaces import DrawOrderWindow, SampledPoints


@pytest.fixture(scope="module")
def wl():
    return pincheck.workload()


@pytest.fixture(scope="module")
def faulter(wl):
    return Faulter(wl.build(), wl.good_input, wl.bad_input,
                   wl.grant_marker, name=wl.name)


class TestSplitEdgeCases:
    """Degenerate partition requests still cover the space exactly."""

    def test_parts_exceed_total(self, faulter):
        ctx = faulter.engine().context("skip")
        space = WindowedSpace(indices=(0, 1, 2))
        parts = space.partition(ctx, 8)
        assert [(p.start, p.stop) for p in parts] == \
            [(0, 1), (1, 2), (2, 3)]

    def test_total_zero(self, faulter):
        ctx = faulter.engine().context("skip")
        assert WindowedSpace(indices=()).partition(ctx, 4) == []

    def test_parts_zero(self, faulter):
        ctx = faulter.engine().context("skip")
        space = WindowedSpace(indices=tuple(range(10)))
        [whole] = space.partition(ctx, 0)
        assert (whole.start, whole.stop) == (0, 10)

    def test_coverage_preserved(self, faulter):
        ctx = faulter.engine().context("skip")
        for total in (1, 7, 23):
            space = WindowedSpace(indices=tuple(range(total)))
            for parts in (1, 2, 3, 8, 200):
                seen = [p.first_step
                        for part in space.partition(ctx, parts)
                        for p in part.enumerate(ctx)]
                assert seen == list(range(total))


class TestSpaces:
    def test_exhaustive_covers_trace_times_variants(self, faulter):
        ctx = faulter.engine().context("bitflip")
        points = list(ExhaustiveSpace().enumerate(ctx))
        assert len(points) == ctx.population()
        assert [p.order for p in points] == list(range(len(points)))
        assert all(p.arity == 1 for p in points)

    def test_windowed_clips_and_sorts(self, faulter):
        ctx = faulter.engine().context("skip")
        space = WindowedSpace(indices=(5, 3, 3, 10**6))
        steps = [p.first_step for p in space.enumerate(ctx)]
        assert steps == [3, 5]

    def test_sampled_is_within_population(self, faulter):
        ctx = faulter.engine().context("bitflip")
        space = SampledPoints(points=40, seed=9)
        points = list(space.enumerate(ctx))
        assert len(points) == space.count(ctx) == 40
        for point in points:
            step = point.first_step
            assert 0 <= step < len(ctx.trace)
            assert point.details[0] in ctx.variants(step)
        # spread over the trace, not whole offsets one after another
        assert len({point.first_step for point in points}) > 20

    def test_draw_order_window_keeps_the_given_order(self, faulter):
        ctx = faulter.engine().context("skip")
        space = DrawOrderWindow(indices=(5, 3, 5, 10**6, 1))
        steps = [p.first_step for p in space.enumerate(ctx)]
        assert steps == [5, 3, 1]
        assert space.count(ctx) == 3
        # every partition of a drawn window spans the trace, where a
        # sorted window's first partition would hold the early offsets
        parts = DrawOrderWindow(indices=(9, 1, 8, 2)).partition(ctx, 2)
        assert [[p.first_step for p in part.enumerate(ctx)]
                for part in parts] == [[9, 1], [8, 2]]

    def test_k_fault_steps_distinct_and_sorted(self, faulter):
        ctx = faulter.engine().context("skip")
        space = KFaultProductSpace(k=3, samples=50, seed=2)
        for point in space.enumerate(ctx):
            assert list(point.steps) == sorted(set(point.steps))
            assert point.arity == 3

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            KFaultProductSpace(k=0, samples=10, seed=0)

    def test_partition_preserves_points(self, faulter):
        ctx = faulter.engine().context("bitflip")
        space = ExhaustiveSpace()
        whole = list(space.enumerate(ctx))
        parts = space.partition(ctx, 4)
        recombined = [p for part in parts
                      for p in part.enumerate(ctx)]
        assert recombined == whole
        assert len(parts) == 4

    def test_partition_empty_space(self, faulter):
        ctx = faulter.engine().context("skip")
        assert WindowedSpace(indices=()).partition(ctx, 4) == []


class TestDefaultBackendMatchesReference:
    """Campaign entry points with no backend given, against the
    reference protocol."""

    def test_statistical_matches_reference(self, faulter):
        # statistical FI (Leveugle et al.) over a seeded sample of
        # fault points
        space = SampledPoints(points=120, seed=5)
        assert faulter.engine().run("bitflip", space) == \
            reference_report(faulter, "bitflip", space)

    def test_pair_campaign_matches_reference(self, faulter):
        reference = reference_report(
            faulter, "skip", KFaultProductSpace(k=2, samples=80, seed=7),
            target=f"{faulter.name}(pairs)")
        assert faulter.run_k_fault_campaign(
            "skip", k=2, samples=80, seed=7) == reference


class TestBackendEquivalence:
    @pytest.mark.parametrize("model", ["skip", "bitflip"])
    def test_multiprocess_equals_sequential(self, faulter, model):
        parallel = faulter.run_campaign(
            model, backend=MultiprocessBackend(workers=3))
        assert parallel == reference_report(faulter, model)

    def test_merge_of_partition_reports_equals_whole(self, faulter):
        """Campaigns over each partition of the space, concatenated,
        reproduce the whole space row for row."""
        ctx = faulter.engine().context("skip")
        rows = [row for part in ExhaustiveSpace().partition(ctx, 3)
                for row in faulter.engine().run(
                    "skip", part, collect_outcomes=True).all_outcomes]
        reference = reference_report(faulter, "skip",
                                     collect_outcomes=True)
        assert rows == reference.all_outcomes

    def test_backends_resolve_by_name(self):
        assert isinstance(EngineConfig(backend="sequential").resolve(),
                          SequentialBackend)
        assert isinstance(EngineConfig(backend="multiprocess").resolve(),
                          MultiprocessBackend)
        assert isinstance(EngineConfig(workers=2).resolve(),
                          MultiprocessBackend)
        with pytest.raises(ValueError, match="unknown backend"):
            EngineConfig(backend="gpu")
        with pytest.raises(ValueError, match="unknown backend"):
            EngineConfig(backend="parallel")

    def test_conflicting_knobs_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            EngineConfig(backend="sequential", workers=4)
        with pytest.raises(ValueError, match="workers"):
            EngineConfig(workers=0)

    def test_meta_records_backend(self, faulter):
        report = faulter.run_campaign("skip", backend=SequentialBackend())
        assert report.meta["backend"] == "sequential"
        assert report.meta["emulated_steps"] > 0


class TestKFaultCampaign:
    def test_triple_fault_campaign_runs(self, faulter):
        report = faulter.run_k_fault_campaign("skip", k=3, samples=60,
                                              seed=4)
        assert report.target.endswith("(3-faults)")
        assert sum(report.outcomes.values()) == report.total_faults

    def test_pair_detail_format_is_legacy(self, faulter):
        """k=2 successes keep the (d0, s1, d1) detail layout."""
        report = faulter.run_k_fault_campaign("skip", k=2, samples=400,
                                              seed=3)
        for fault in report.successes:
            assert len(fault.detail) == 3
            first_detail, second_step, second_detail = fault.detail
            assert isinstance(second_step, int)
            assert fault.trace_index < second_step


class TestReportRoundTrip:
    def test_lossless_roundtrip(self, faulter):
        import json
        report = faulter.run_campaign("bitflip")
        payload = json.loads(json.dumps(report.to_dict()))
        assert CampaignReport.from_dict(payload) == report

    def test_roundtrip_with_all_outcomes(self, faulter):
        report = faulter.run_campaign("skip", collect_outcomes=True)
        rebuilt = CampaignReport.from_dict(report.to_dict())
        assert rebuilt == report
        assert rebuilt.all_outcomes == report.all_outcomes

    def test_roundtrip_preserves_pair_details(self, faulter):
        report = faulter.run_k_fault_campaign("skip", k=2, samples=400,
                                              seed=3)
        rebuilt = CampaignReport.from_dict(report.to_dict())
        assert rebuilt.successes == report.successes

    def test_meta_survives_roundtrip(self, faulter):
        report = faulter.run_campaign("skip")
        rebuilt = CampaignReport.from_dict(report.to_dict())
        assert rebuilt.meta == report.meta


class TestDegenerateTraces:
    def test_undecodable_trace_tail_is_skipped(self, wl):
        """A bad-input run that dies on an invalid opcode records the
        failing address as its final trace entry; the campaign must
        classify the decodable prefix instead of raising (the legacy
        driver broke out of its loop at that step)."""
        faulter = Faulter(wl.build(), wl.good_input, wl.bad_input,
                          wl.grant_marker, name=wl.name)
        clean = faulter.run_campaign("bitflip")
        broken = Faulter(wl.build(), wl.good_input, wl.bad_input,
                         wl.grant_marker, name=wl.name)
        broken._trace = broken.trace() + [0xDEAD_BEEF]
        report = broken.run_campaign("bitflip")
        assert report.total_faults == clean.total_faults
        assert report.outcomes == clean.outcomes
        assert report.trace_length == clean.trace_length + 1

    def test_k_fault_skips_offsets_without_variants(self, wl):
        """Sampled k-tuples that land on a no-variant offset (the
        undecodable tail) are rejected, not crashed on."""
        broken = Faulter(wl.build(), wl.good_input, wl.bad_input,
                         wl.grant_marker, name=wl.name)
        broken._trace = broken.trace() + [0xDEAD_BEEF]
        report = broken.run_k_fault_campaign("skip", k=2, samples=300,
                                             seed=1)
        assert sum(report.outcomes.values()) == report.total_faults
        for fault in report.successes:
            assert fault.trace_index < len(broken.trace()) - 1


class TestTraceCaching:
    def test_trace_computed_once(self, wl):
        faulter = Faulter(wl.build(), wl.good_input, wl.bad_input,
                          wl.grant_marker, name=wl.name)
        first = faulter.trace()
        assert faulter.trace() is first

    def test_dropped_faulter_frees_its_contexts_at_once(self, wl):
        """The faulter caches its engine and the engine refers back
        weakly, so dropping the faulter frees its contexts without a
        garbage collection."""
        faulter = Faulter(wl.build(), wl.good_input, wl.bad_input,
                          wl.grant_marker, name=wl.name)
        faulter.run_campaign("skip")
        engine = weakref.ref(faulter.engine())
        context = weakref.ref(faulter.engine().context("skip"))
        gc.disable()
        try:
            del faulter
            assert engine() is None and context() is None
        finally:
            gc.enable()

    def test_engine_outliving_its_faulter_says_so(self, wl):
        engine = Faulter(wl.build(), wl.good_input, wl.bad_input,
                         wl.grant_marker, name=wl.name).engine()
        with pytest.raises(ReferenceError):
            engine.run("skip", ExhaustiveSpace())
