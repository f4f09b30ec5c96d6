"""Campaign bit-identity with the trace-compiled tier on vs off.

The compiled tier is a pure performance substrate: every campaign
report — outcomes, per-point classifications — must equal the
reference protocol (:mod:`tests.reference`) across every fault model,
backend and workload, with the tier on and off, and the emulated step
counts of both settings must agree.
"""

import pytest

from repro.faulter import (
    MultiprocessBackend,
    SampledSpace,
    SequentialBackend,
)
from repro.faulter.engine import EngineConfig, shutdown_fleet
from repro.faulter.models import MODELS
from repro.workloads import bootloader, corpus, pincheck
from tests.reference import reference_report

WORKLOADS = {
    "pincheck": pincheck.workload,
    "bootloader": lambda: bootloader.workload(rich=True),
    "exitgate": corpus.exitgate_workload,
}


@pytest.fixture(scope="module")
def faulters():
    return {name: factory().target().faulter()
            for name, factory in WORKLOADS.items()}


def _space():
    return SampledSpace(samples=24, seed=11)


def _run(faulter, model, backend, reduce=None):
    return faulter.engine().run(model, _space(), backend=backend,
                                reduce=reduce)


def _assert_identical(faulter, model, on, off, reduce=None):
    compiled = _run(faulter, model, on, reduce)
    precise = _run(faulter, model, off, reduce)
    # outcomes, faults, classifications
    assert compiled == reference_report(faulter, model, _space())
    assert precise == compiled
    assert (compiled.meta["emulated_steps"]
            == precise.meta["emulated_steps"])
    assert compiled.meta["trace_compile"] is True
    assert precise.meta["trace_compile"] is False
    assert precise.meta["compiled_steps"] == 0
    assert (compiled.meta["compiled_steps"]
            + compiled.meta["precise_steps"]
            == compiled.meta["emulated_steps"])


class TestEveryModelBitIdentical:
    """All registered fault models, sequential backend."""

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_model(self, faulters, model):
        _assert_identical(
            faulters["bootloader"], model,
            SequentialBackend(),
            SequentialBackend(trace_compile=False))


class TestBackendsAndStreaming:
    """skip model across backends x workloads, with equivalence
    reduction (whose probe runs use the backend's tier) on and off."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("reduce", (True, False))
    def test_sequential_master_walk(self, faulters, workload, reduce):
        _assert_identical(
            faulters[workload], "skip",
            SequentialBackend(),
            SequentialBackend(trace_compile=False), reduce)

    @pytest.mark.parametrize("reduce", (True, False))
    def test_multiprocess(self, faulters, reduce):
        # fleet workers keep their executors (and walk positions)
        # across campaigns, which can lower later step counts; start
        # cold so both settings build theirs from scratch
        shutdown_fleet()
        _assert_identical(
            faulters["bootloader"], "skip",
            MultiprocessBackend(workers=2),
            MultiprocessBackend(workers=2, trace_compile=False), reduce)

    def test_multiprocess_aggregates_worker_counters(self, faulters):
        report = _run(
            faulters["bootloader"], "skip",
            MultiprocessBackend(workers=2))
        assert report.meta["compiled_steps"] > 0
        assert report.meta["compile_seconds"] >= 0.0


class TestKnobPlumbing:
    def test_engine_config_roundtrip(self):
        config = EngineConfig(trace_compile=False)
        assert (EngineConfig.from_dict(config.to_dict()).trace_compile
                is False)
        assert EngineConfig().to_dict()["trace_compile"] is None

    def test_engine_config_validates(self):
        with pytest.raises(ValueError, match="trace_compile"):
            EngineConfig(trace_compile="yes")

    def test_resolve_plumbs_the_knob(self):
        backend = EngineConfig(trace_compile=False).resolve()
        assert backend.trace_compile is False
        backend = EngineConfig(backend="multiprocess",
                               trace_compile=False).resolve()
        assert backend.trace_compile is False
        assert EngineConfig().resolve().trace_compile is True

    def test_default_is_on(self):
        assert SequentialBackend().trace_compile is True
        assert MultiprocessBackend().trace_compile is True
