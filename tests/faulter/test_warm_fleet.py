"""Warm worker fleet: persistence, work stealing, error relay and the
defined outcomes of a dead worker or an abandoned campaign."""

import gc
import os
import pickle
import signal
import time
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import active_children

import pytest

from repro.faulter import Faulter, engine
from repro.faulter.engine import (
    MultiprocessBackend,
    _acquire_fleet,
    _live_target,
    _WorkerFleet,
    shutdown_fleet,
)
from repro.faulter.executor import ExecutionStats
from repro.faulter.space import ExhaustiveSpace, KFaultProductSpace
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
        # a reduced campaign's workers settle their own partitions'
        # proven points; a full one's run every point
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


def open_campaign(faulter, model, workers=2):
    """A fleet campaign's outcome stream, run until its first
    outcome."""
    ctx = faulter.engine().context(model)
    outcomes = MultiprocessBackend(workers=workers).iter_outcomes(
        faulter, ctx.model, ExhaustiveSpace(), ctx, ExecutionStats())
    next(outcomes)
    return outcomes


class TestFleetLifecycle:
    def test_workers_persist_across_campaigns(self, wl, exe):
        shutdown_fleet()
        backend = MultiprocessBackend(workers=2)
        make_faulter(wl, exe).run_campaign("skip", backend=backend)
        fleet = engine._FLEET
        assert fleet is not None and not fleet.broken()
        # the pool forked every worker on its first job
        workers = {process.pid for process in active_children()}
        assert len(workers) == 2
        make_faulter(wl, exe).run_campaign("bitflip", backend=backend)
        assert engine._FLEET is fleet
        assert {process.pid for process in active_children()} == workers

    def test_size_change_restarts_the_fleet(self):
        first = _acquire_fleet(2)
        assert _acquire_fleet(2) is first
        second = _acquire_fleet(3)
        assert second is not first and second.size == 3
        with pytest.raises(RuntimeError):
            first.submit({}, 0, None)  # shut down

    def test_shutdown_is_idempotent(self):
        _acquire_fleet(2)
        shutdown_fleet()
        shutdown_fleet()
        assert engine._FLEET is None

    def test_shutdown_collects_the_pool(self, wl, exe):
        backend = MultiprocessBackend(workers=2)
        make_faulter(wl, exe).run_campaign("skip", backend=backend)
        shutdown_fleet()
        # nothing is left for a later cyclic collection to find
        assert not [obj for obj in gc.get_objects()
                    if isinstance(obj, ProcessPoolExecutor)]
        assert gc.collect() == 0

    def test_worker_errors_are_relayed(self):
        fleet = _acquire_fleet(2)
        epoch: dict = {}
        fleet.submit(epoch, 0, ("not", "a", "job"))
        with pytest.raises(Exception):
            fleet.recv(epoch)
        # the worker survives its crashed job and the fleet stays up
        assert not fleet.broken()

    def test_stale_epoch_results_are_dropped(self, wl, exe,
                                             sequential_report):
        fleet = _acquire_fleet(2)
        stale: dict = {}
        fleet.submit(stale, 0, ("bad", "payload"))
        # the next campaign waits on its own jobs only, never on that
        # leftover error
        backend = MultiprocessBackend(workers=2)
        report = make_faulter(wl, exe).run_campaign("skip",
                                                    backend=backend)
        assert report == sequential_report

    def test_closed_campaign_leaves_nothing_behind(self, wl, exe,
                                                   sequential_report,
                                                   monkeypatch):
        monkeypatch.setattr(engine, "MAX_RESIDENT_POINTS", 4)
        shutdown_fleet()  # workers fork with the patched window
        epochs = []
        submit = _WorkerFleet.submit

        def spy(fleet, epoch, index, job):
            epochs.append(epoch)
            return submit(fleet, epoch, index, job)

        monkeypatch.setattr(_WorkerFleet, "submit", spy)
        try:
            outcomes = open_campaign(make_faulter(wl, exe), "skip")
            fleet = engine._FLEET
            outcomes.close()
            [jobs] = {id(epoch): epoch for epoch in epochs}.values()
            leftover = list(jobs)
            # the closed campaign cancelled what had not started yet,
            # and what had started finishes on its own
            done, _ = wait(leftover, timeout=30)
            assert len(done) == len(leftover)
            report = make_faulter(wl, exe).run_campaign(
                "skip", backend=MultiprocessBackend(workers=2))
            assert engine._FLEET is fleet
        finally:
            shutdown_fleet()
        assert report == sequential_report

    def test_killed_worker_fails_the_campaign_promptly(
            self, wl, exe, sequential_report, monkeypatch):
        monkeypatch.setattr(engine, "MAX_RESIDENT_POINTS", 4)
        shutdown_fleet()  # workers fork with the patched window
        try:
            outcomes = open_campaign(make_faulter(wl, exe), "bitflip")
            os.kill(active_children()[0].pid, signal.SIGKILL)
            started = time.monotonic()
            with pytest.raises(BrokenProcessPool):
                for _ in outcomes:
                    pass
            assert time.monotonic() - started < 30
            # the fleet is torn down; the next campaign forks a new one
            assert engine._FLEET is None
            report = make_faulter(wl, exe).run_campaign(
                "skip", backend=MultiprocessBackend(workers=2))
        finally:
            shutdown_fleet()
        assert report == sequential_report


class TestLiveTarget:
    """A worker's live Faulter is keyed by what determines results."""

    @pytest.fixture(autouse=True)
    def no_live_target(self, monkeypatch):
        monkeypatch.setattr(engine, "_LIVE", None)

    def shipped(self, faulter):
        return pickle.loads(pickle.dumps(faulter))

    def test_a_re_provisioned_parent_stays_warm(self, wl, exe):
        live, executors = _live_target(self.shipped(make_faulter(wl, exe)))
        again = Faulter(exe, wl.good_input, wl.bad_input,
                        wl.grant_marker, name="another name")
        assert _live_target(self.shipped(again)) == (live, executors)

    def test_the_shipped_faulter_skips_its_baselines(self, wl, exe,
                                                     monkeypatch):
        faulter = make_faulter(wl, exe)
        monkeypatch.setattr(Faulter, "_validate_baseline", None)
        shipped = self.shipped(faulter)
        assert shipped.continuation_cap == faulter.continuation_cap
        assert shipped.image_digest() == faulter.image_digest()
        assert shipped.trace() == faulter.trace()

    @pytest.mark.parametrize("change", [
        {"bad_input": b"0000"},
        {"oracle": b"GRANTED"},
        {"max_steps": 50_000},
    ])
    def test_a_result_input_makes_a_new_target(self, wl, exe, change):
        live, _ = _live_target(self.shipped(make_faulter(wl, exe)))
        arguments = {"image": exe, "good_input": wl.good_input,
                     "bad_input": wl.bad_input,
                     "oracle": wl.grant_marker, **change}
        other = self.shipped(Faulter(**arguments))
        assert _live_target(other)[0] is other is not live


def teardown_module(module):
    shutdown_fleet()
