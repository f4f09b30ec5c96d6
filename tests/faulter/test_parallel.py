"""Multiprocess campaigns: results must match the reference protocol.

"We fork each fault simulation to speed up the process" — the paper's
faulter parallelizes across fault points.  Here that is the
:class:`~repro.faulter.engine.MultiprocessBackend`: the space is
partitioned into declarative enumeration-order windows, each worker
re-enumerates its own share, and the parent folds the shards back in
order.
"""

import pytest

from repro.faulter import Faulter, MultiprocessBackend
from repro.faulter.space import ExhaustiveSpace
from repro.workloads import pincheck
from tests.reference import reference_report


@pytest.fixture(scope="module")
def wl():
    return pincheck.workload()


@pytest.fixture(scope="module")
def faulter(wl):
    return Faulter(wl.build(), wl.good_input, wl.bad_input,
                   wl.grant_marker, name=wl.name)


class TestSplit:
    def test_windows_cover_everything(self, faulter):
        ctx = faulter.engine().context("bitflip")
        space = ExhaustiveSpace()
        whole = list(space.enumerate(ctx))
        for parts in (1, 2, 3, 8):
            seen = [p for part in space.partition(ctx, parts)
                    for p in part.enumerate(ctx)]
            assert seen == whole

    def test_windows_disjoint(self, faulter):
        ctx = faulter.engine().context("bitflip")
        parts = ExhaustiveSpace().partition(ctx, 4)
        orders = [p.order for part in parts for p in part.enumerate(ctx)]
        assert len(orders) == len(set(orders))


class TestParallelEqualsSequential:
    @pytest.mark.parametrize("model", ["skip", "bitflip"])
    def test_same_results(self, faulter, model):
        parallel = faulter.run_campaign(
            model, backend=MultiprocessBackend(workers=3))
        assert parallel == reference_report(faulter, model)

    def test_accepts_elf_bytes(self, wl):
        from repro.binfmt.writer import write_elf
        faulter = Faulter(write_elf(wl.build()), wl.good_input,
                          wl.bad_input, wl.grant_marker, name=wl.name)
        report = faulter.run_campaign(
            "skip", backend=MultiprocessBackend(workers=2))
        assert report.vulnerable
        assert report == reference_report(faulter, "skip")

    def test_single_worker_falls_back(self, faulter):
        report = faulter.run_campaign(
            "skip", backend=MultiprocessBackend(workers=1))
        assert report.total_faults == report.trace_length
        assert report == reference_report(faulter, "skip")


class TestMerge:
    def test_merge_sums_counters(self, faulter):
        first = faulter.run_campaign("skip", trace_window=range(0, 10))
        second = faulter.run_campaign("skip",
                                      trace_window=range(10, 23))
        full = reference_report(faulter, "skip")
        assert first.total_faults + second.total_faults == \
            full.total_faults
        assert first.outcomes + second.outcomes == full.outcomes
