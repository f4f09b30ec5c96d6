"""Warm worker fleet: persistence, work stealing, and error relay."""

import pytest

from repro.faulter import Faulter, engine
from repro.faulter.engine import (
    MultiprocessBackend,
    _acquire_fleet,
    shutdown_fleet,
)
from repro.faulter.space import KFaultProductSpace
from repro.workloads import pincheck
from tests.reference import reference_report


@pytest.fixture(scope="module")
def wl():
    return pincheck.workload()


@pytest.fixture(scope="module")
def exe(wl):
    return wl.build()


def make_faulter(wl, exe):
    return Faulter(exe, wl.good_input, wl.bad_input, wl.grant_marker,
                   name=wl.name)


@pytest.fixture(scope="module")
def sequential_report(wl, exe):
    return reference_report(make_faulter(wl, exe), "skip")


class TestScheduling:
    @pytest.mark.parametrize("reduce", [True, False])
    def test_matches_sequential(self, wl, exe, sequential_report,
                                reduce):
        # reduced campaigns ship ReducedSpace partitions, full ones
        # the plain exhaustive space
        backend = MultiprocessBackend(workers=2)
        report = make_faulter(wl, exe).run_campaign(
            "skip", backend=backend, reduce=reduce)
        assert report == sequential_report

    def test_small_partitions_exercise_the_queue(self, wl, exe,
                                                 sequential_report,
                                                 monkeypatch):
        # more partitions than workers: the steal queue actually queues
        monkeypatch.setattr(engine, "MAX_RESIDENT_POINTS", 4)
        shutdown_fleet()  # workers fork with the patched window
        try:
            report = make_faulter(wl, exe).run_campaign(
                "skip", backend=MultiprocessBackend(workers=2))
        finally:
            shutdown_fleet()
        assert report == sequential_report

    def test_k_fault_campaign_on_the_fleet(self, wl, exe):
        faulter = make_faulter(wl, exe)
        sequential = reference_report(
            faulter, "skip", KFaultProductSpace(k=2, samples=24, seed=7),
            target=f"{faulter.name}(pairs)")
        fleet = make_faulter(wl, exe).run_k_fault_campaign(
            "skip", k=2, samples=24, seed=7,
            backend=MultiprocessBackend(workers=2))
        assert fleet == sequential


class TestFleetLifecycle:
    def test_workers_persist_across_campaigns(self, wl, exe):
        backend = MultiprocessBackend(workers=2)
        make_faulter(wl, exe).run_campaign("skip", backend=backend)
        fleet = engine._FLEET
        assert fleet is not None and fleet.alive()
        pids = fleet.pids()
        make_faulter(wl, exe).run_campaign("bitflip", backend=backend)
        assert engine._FLEET is fleet
        assert fleet.pids() == pids

    def test_size_change_restarts_the_fleet(self):
        first = _acquire_fleet(2)
        assert _acquire_fleet(2) is first
        second = _acquire_fleet(3)
        assert second is not first
        assert not first.alive() or first._processes == []
        assert second.alive() and len(second.pids()) == 3

    def test_shutdown_is_idempotent(self):
        _acquire_fleet(2)
        shutdown_fleet()
        shutdown_fleet()
        assert engine._FLEET is None

    def test_worker_errors_are_relayed(self):
        fleet = _acquire_fleet(2)
        epoch = fleet.new_epoch()
        fleet.submit(epoch, 0, ("not", "a", "job"))
        with pytest.raises(Exception):
            fleet.recv(epoch)
        # the worker survives its crashed job and the fleet stays up
        assert fleet.alive()

    def test_stale_epoch_results_are_dropped(self, wl, exe,
                                             sequential_report):
        fleet = _acquire_fleet(2)
        stale = fleet.new_epoch()
        fleet.submit(stale, 0, ("bad", "payload"))
        # the next campaign's epoch must discard that leftover error
        backend = MultiprocessBackend(workers=2)
        report = make_faulter(wl, exe).run_campaign("skip",
                                                    backend=backend)
        assert report == sequential_report


def teardown_module(module):
    shutdown_fleet()
