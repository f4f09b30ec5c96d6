"""Streamed execution: bit-identical reports in bounded memory.

The tentpole property of the streaming engine: pulling the fault
space through a bounded reorder window (and shipping workers
declarative partitions instead of point dumps) must not change a
single report row relative to the paper's literal protocol
(:mod:`tests.reference`, one fresh machine per point) — for every
space kind, across partition counts, on both backends — while peak
resident fault points stay bounded by the window size.

The window is the module constant ``engine.MAX_RESIDENT_POINTS``;
tests shrink it with ``monkeypatch`` to force many windows.  Fleet
workers fork with the parent's value, so a test that shrinks it for
the multiprocess backend tears the fleet down first.
"""

import math
import pickle

import pytest

from repro.faulter import (
    EngineConfig, Faulter, MultiprocessBackend, SequentialBackend,
    engine, shutdown_fleet)
from repro.faulter.space import (
    ExhaustiveSpace,
    KFaultProductSpace,
    SpacePartition,
    WindowedSpace,
)
from repro.workloads import bootloader, pincheck
from tests.reference import reference_report
from tests.spaces import SampledPoints

SPACES = {
    "exhaustive": lambda: ExhaustiveSpace(),
    "windowed": lambda: WindowedSpace(indices=tuple(range(3, 17))),
    "sampled": lambda: SampledPoints(points=60, seed=11),
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
    def test_sequential(self, faulter, kind, parts, monkeypatch):
        space = SPACES[kind]()
        baseline = reference_report(faulter, "skip", space)
        window = _window_for(faulter, "skip", space, parts)
        monkeypatch.setattr(engine, "MAX_RESIDENT_POINTS", window)
        streamed = faulter.engine().run(
            "skip", space, backend=SequentialBackend())
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

    def test_bitflip_peak_resident_bounded(self, faulter, monkeypatch):
        """The acceptance property on the big space: peak resident
        fault points <= the window, report unchanged."""
        baseline = reference_report(faulter, "bitflip", ExhaustiveSpace())
        window = 16
        monkeypatch.setattr(engine, "MAX_RESIDENT_POINTS", window)
        streamed = faulter.engine().run(
            "bitflip", ExhaustiveSpace(), backend=SequentialBackend())
        assert streamed == baseline
        assert streamed.total_faults > window  # many windows exercised
        assert streamed.meta["peak_resident_points"] <= window


class TestBundledWorkloads:
    """Bit-identity on both bundled workloads (acceptance criterion)."""

    def test_pincheck_both_backends(self, faulter, monkeypatch):
        baseline = reference_report(faulter, "bitflip", ExhaustiveSpace())
        with monkeypatch.context() as patch:
            patch.setattr(engine, "MAX_RESIDENT_POINTS", 64)
            sequential = faulter.engine().run(
                "bitflip", ExhaustiveSpace(), backend=SequentialBackend())
        parallel = faulter.engine().run(
            "bitflip", ExhaustiveSpace(),
            backend=MultiprocessBackend(workers=3))
        assert sequential == baseline
        assert parallel == baseline

    def test_bootloader_both_backends(self, monkeypatch):
        wl = bootloader.workload(size=8)
        faulter = Faulter(wl.build(), wl.good_input, wl.bad_input,
                          wl.grant_marker, name=wl.name)
        baseline = reference_report(faulter, "skip", ExhaustiveSpace())
        with monkeypatch.context() as patch:
            patch.setattr(engine, "MAX_RESIDENT_POINTS", 32)
            sequential = faulter.engine().run(
                "skip", ExhaustiveSpace(), backend=SequentialBackend())
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
        space = SampledPoints(points=40, seed=9)
        whole = list(space.enumerate(ctx))
        for part in space.partition(ctx, 3):
            assert list(part.enumerate(ctx)) == \
                whole[part.start:part.stop]

    def test_partition_inherits_cap_policy(self, faulter):
        ctx = faulter.engine().context("skip")
        pairs = KFaultProductSpace(k=2, samples=10, seed=0)
        exhaustive = ExhaustiveSpace()
        assert pairs.partition(ctx, 2)[0].cap_policy == \
            pairs.cap_policy
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
    def test_multiprocess_partitions_capped_by_window(self, faulter,
                                                      monkeypatch):
        """Streaming multiprocess bounds every shard at the reorder
        window: more partitions than workers, identical report."""
        baseline = reference_report(faulter, "bitflip", ExhaustiveSpace())
        window = 40
        monkeypatch.setattr(engine, "MAX_RESIDENT_POINTS", window)
        shutdown_fleet()  # workers fork with the patched window
        try:
            streamed = faulter.engine().run(
                "bitflip", ExhaustiveSpace(),
                backend=MultiprocessBackend(workers=2))
        finally:
            shutdown_fleet()
        assert streamed == baseline
        assert streamed.total_faults > 2 * window  # several waves ran
        assert streamed.meta["peak_resident_points"] <= window


class TestStreamingKnobs:
    def test_resolve_builds_streaming_backends(self):
        assert isinstance(EngineConfig().resolve(), SequentialBackend)
        backend = EngineConfig(backend="multiprocess",
                               workers=2).resolve()
        assert isinstance(backend, MultiprocessBackend)
        assert backend.workers == 2

    def test_cli_has_no_stream_knobs(self):
        """The reorder window is fixed: no CLI flag sizes it, and the
        per-function chunking flag is gone."""
        from repro.cli import build_parser
        parser = build_parser()
        for flags in (["--max-resident-points", "128"],
                      ["--chunk-units"], ["--no-stream"]):
            with pytest.raises(SystemExit):
                parser.parse_args(
                    ["fault", "t.elf", "--good", "00", "--bad", "01",
                     "--marker", "OK", *flags])

    def test_meta_records_streaming(self, faulter, monkeypatch):
        monkeypatch.setattr(engine, "MAX_RESIDENT_POINTS", 4)
        report = faulter.run_campaign("skip", backend=SequentialBackend())
        assert 0 < report.meta["peak_resident_points"] <= 4
        assert "max_resident_points" not in report.meta
        assert "stream" not in report.meta
