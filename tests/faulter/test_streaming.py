"""Streamed execution: bit-identical reports in bounded memory.

The tentpole property of the streaming engine: pulling the fault
space through a bounded reorder window (and shipping workers
declarative partitions instead of point dumps) must not change a
single report row relative to the paper's literal protocol
(:mod:`tests.reference`, one fresh machine per point) — for every
space kind, across partition counts, on both backends — while peak
resident fault points stay bounded by the window size.
"""

import math
import pickle

import pytest

from repro.faulter import (
    EngineConfig, Faulter, MultiprocessBackend, SequentialBackend)
from repro.faulter.space import (
    ExhaustiveSpace,
    KFaultProductSpace,
    SampledSpace,
    SpacePartition,
    WindowedSpace,
)
from repro.workloads import bootloader, pincheck
from tests.reference import reference_report

SPACES = {
    "exhaustive": lambda: ExhaustiveSpace(),
    "windowed": lambda: WindowedSpace(indices=tuple(range(3, 17))),
    "sampled": lambda: SampledSpace(samples=60, seed=11),
    "k-fault": lambda: KFaultProductSpace(k=2, samples=60, seed=11),
}

PARTITION_COUNTS = (1, 3, 7)


@pytest.fixture(scope="module")
def wl():
    return pincheck.workload()


@pytest.fixture(scope="module")
def faulter(wl):
    return Faulter(wl.build(), wl.good_input, wl.bad_input,
                   wl.grant_marker, name=wl.name)


def _window_for(faulter, model, space, parts):
    total = space.count(faulter.engine().context(model))
    return max(1, math.ceil(total / parts))


class TestStreamedEqualsMaterialized:
    """Every space kind x partition count against the reference,
    which runs each point on its own fresh machine."""

    @pytest.mark.parametrize("parts", PARTITION_COUNTS)
    @pytest.mark.parametrize("kind", sorted(SPACES))
    def test_sequential(self, faulter, kind, parts):
        space = SPACES[kind]()
        baseline = reference_report(faulter, "skip", space)
        window = _window_for(faulter, "skip", space, parts)
        streamed = faulter.engine().run(
            "skip", space,
            backend=SequentialBackend(max_resident_points=window))
        assert streamed == baseline
        assert streamed.meta["peak_resident_points"] <= window

    @pytest.mark.parametrize("parts", PARTITION_COUNTS)
    @pytest.mark.parametrize("kind", sorted(SPACES))
    def test_multiprocess(self, faulter, kind, parts):
        space = SPACES[kind]()
        baseline = reference_report(faulter, "skip", space)
        streamed = faulter.engine().run(
            "skip", space,
            backend=MultiprocessBackend(workers=parts))
        assert streamed == baseline

    @pytest.mark.parametrize("kind", sorted(SPACES))
    def test_sequential_checkpointed(self, faulter, kind):
        """Streaming composes with incremental checkpoint replay."""
        space = SPACES[kind]()
        baseline = reference_report(faulter, "skip", space)
        streamed = faulter.engine().run(
            "skip", space,
            backend=SequentialBackend(checkpoint_interval=8,
                                      max_resident_points=5))
        assert streamed == baseline
        assert streamed.meta["peak_resident_points"] <= 5

    def test_bitflip_peak_resident_bounded(self, faulter):
        """The acceptance property on the big space: peak resident
        fault points <= the configured window, report unchanged."""
        baseline = reference_report(faulter, "bitflip", ExhaustiveSpace())
        window = 16
        streamed = faulter.engine().run(
            "bitflip", ExhaustiveSpace(),
            backend=SequentialBackend(max_resident_points=window))
        assert streamed == baseline
        assert streamed.total_faults > window  # many windows exercised
        assert streamed.meta["peak_resident_points"] <= window


class TestBundledWorkloads:
    """Bit-identity on both bundled workloads (acceptance criterion)."""

    def test_pincheck_both_backends(self, faulter):
        baseline = reference_report(faulter, "bitflip", ExhaustiveSpace())
        sequential = faulter.engine().run(
            "bitflip", ExhaustiveSpace(),
            backend=SequentialBackend(max_resident_points=64))
        parallel = faulter.engine().run(
            "bitflip", ExhaustiveSpace(),
            backend=MultiprocessBackend(workers=3))
        assert sequential == baseline
        assert parallel == baseline

    def test_bootloader_both_backends(self):
        wl = bootloader.workload(size=8)
        faulter = Faulter(wl.build(), wl.good_input, wl.bad_input,
                          wl.grant_marker, name=wl.name)
        baseline = reference_report(faulter, "skip", ExhaustiveSpace())
        sequential = faulter.engine().run(
            "skip", ExhaustiveSpace(),
            backend=SequentialBackend(max_resident_points=32))
        parallel = faulter.engine().run(
            "skip", ExhaustiveSpace(),
            backend=MultiprocessBackend(workers=3))
        assert sequential == baseline
        assert parallel == baseline
        assert sequential.meta["peak_resident_points"] <= 32


class TestPartitionProtocol:
    """Partitions are declarative sub-specs, not point dumps."""

    def test_partitions_are_window_specs(self, faulter):
        ctx = faulter.engine().context("bitflip")
        space = ExhaustiveSpace()
        parts = space.partition(ctx, 4)
        assert all(isinstance(p, SpacePartition) for p in parts)
        assert parts[0].start == 0
        assert parts[-1].stop == space.count(ctx)
        # contiguous, non-overlapping enumeration-order windows
        for before, after in zip(parts, parts[1:]):
            assert before.stop == after.start

    def test_partition_pickle_is_o1(self, faulter):
        """Shipping a partition costs the same whether it spans ten
        points or the whole population."""
        ctx = faulter.engine().context("bitflip")
        small = SpacePartition(ExhaustiveSpace(), 0, 10)
        huge = SpacePartition(ExhaustiveSpace(), 0, 10**9)
        assert len(pickle.dumps(huge)) <= len(pickle.dumps(small)) + 8
        assert len(pickle.dumps(huge)) < 256
        assert ctx.population() > 0  # the context stays process-local

    def test_partition_reenumerates_its_window(self, faulter):
        ctx = faulter.engine().context("skip")
        space = SampledSpace(samples=40, seed=9)
        whole = list(space.enumerate(ctx))
        for part in space.partition(ctx, 3):
            assert list(part.enumerate(ctx)) == \
                whole[part.start:part.stop]

    def test_partition_inherits_cap_policy(self, faulter):
        ctx = faulter.engine().context("skip")
        sampled = SampledSpace(samples=10, seed=0)
        exhaustive = ExhaustiveSpace()
        assert sampled.partition(ctx, 2)[0].cap_policy == \
            sampled.cap_policy
        assert exhaustive.partition(ctx, 2)[0].cap_policy == \
            exhaustive.cap_policy

    def test_enumerate_window_jumps_match_islice(self, faulter):
        ctx = faulter.engine().context("bitflip")
        space = ExhaustiveSpace()
        whole = list(space.enumerate(ctx))
        for start, stop in ((0, 7), (5, 40), (11, 11), (0, 10**6)):
            window = list(space.enumerate_window(ctx, start, stop))
            assert window == whole[start:stop]

    def test_subpartitioning_splits_the_window(self, faulter):
        ctx = faulter.engine().context("skip")
        space = ExhaustiveSpace()
        part = space.partition(ctx, 2)[1]
        subs = part.partition(ctx, 3)
        merged = [p for sub in subs for p in sub.enumerate(ctx)]
        assert merged == list(part.enumerate(ctx))


class TestStreamingEdgeCases:
    def test_explicit_space_accepts_unordered_lists(self, faulter):
        """A hand-built point list in arbitrary arrangement streams
        identically to the reference (the builder consumes rows in
        ascending enumeration order)."""
        from repro.faulter.space import ExplicitSpace

        ctx = faulter.engine().context("skip")
        points = list(ExhaustiveSpace().enumerate(ctx))
        shuffled = ExplicitSpace(points=tuple(reversed(points)))
        baseline = reference_report(faulter, "skip", shuffled)
        streamed = faulter.engine().run(
            "skip", shuffled,
            backend=SequentialBackend(max_resident_points=4))
        assert streamed == baseline
        assert streamed == reference_report(faulter, "skip",
                                         ExplicitSpace(tuple(points)))

    def test_multiprocess_partitions_capped_by_window(self, faulter):
        """Streaming multiprocess bounds every shard at the reorder
        window: more partitions than workers, identical report."""
        baseline = reference_report(faulter, "bitflip", ExhaustiveSpace())
        window = 40
        streamed = faulter.engine().run(
            "bitflip", ExhaustiveSpace(),
            backend=MultiprocessBackend(workers=2,
                                        max_resident_points=window))
        assert streamed == baseline
        assert streamed.total_faults > 2 * window  # several waves ran
        assert streamed.meta["peak_resident_points"] <= window

    def test_checkpoint_interval_not_widened_by_long_traces(self,
                                                            faulter):
        """The checkpoint grid is sized from the span a campaign
        actually covers, not the whole trace: a short-prefix window
        keeps its fine-grained replay (and its step savings)."""
        backend = SequentialBackend(checkpoint_interval=1)
        prefix = faulter.run_campaign("skip", trace_window=range(6),
                                      backend=backend)
        full = faulter.run_campaign("skip", backend=backend)
        assert prefix.meta["emulated_steps"] < \
            full.meta["emulated_steps"]
        assert prefix == reference_report(
            faulter, "skip", WindowedSpace(indices=tuple(range(6))))


class TestStreamingKnobs:
    def test_window_requires_streaming(self):
        """Streaming is always on; its window must hold a point."""
        for factory in (SequentialBackend, MultiprocessBackend,
                        EngineConfig):
            with pytest.raises(ValueError, match="max_resident_points"):
                factory(max_resident_points=0)

    def test_resolve_builds_streaming_backends(self):
        backend = EngineConfig(max_resident_points=7).resolve()
        assert isinstance(backend, SequentialBackend)
        assert backend.max_resident_points == 7
        backend = EngineConfig(backend="multiprocess", workers=2,
                               max_resident_points=7).resolve()
        assert isinstance(backend, MultiprocessBackend)
        assert backend.max_resident_points == 7

    def test_cli_exposes_stream_knobs(self):
        from repro.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(
            ["fault", "t.elf", "--good", "00", "--bad", "01",
             "--marker", "OK", "--max-resident-points", "128"])
        assert args.max_resident_points == 128
        with pytest.raises(SystemExit):
            parser.parse_args(["fault", "t.elf", "--no-stream"])

    def test_meta_records_streaming(self, faulter):
        report = faulter.run_campaign(
            "skip", backend=SequentialBackend(max_resident_points=4))
        assert report.meta["max_resident_points"] == 4
        assert 0 < report.meta["peak_resident_points"] <= 4
        assert "stream" not in report.meta
