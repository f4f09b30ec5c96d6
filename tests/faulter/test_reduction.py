"""Equivalence reduction: bit-identical reports, fewer executions.

The central property: a reduced campaign, whose proven points take
their proven outcome in the backend's stream instead of running, must
reproduce the full report row for row — outcomes, successes,
ordering — for every fault model, on both backends, as the reference
protocol (:mod:`tests.reference`) computes it.  The certificate in
``report.meta["reduction"]`` is the checkable record of what was
settled and why.  k-fault tuple spaces run unreduced.
"""

import copy
import functools
import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.traceflow import (
    TraceFacts, VariantPrune, derive_step_facts)
from repro.asm import assemble
from repro.emu import Machine
from repro.errors import DecodingError, EmulationError
from repro.faulter import (
    ArtifactStore, EngineConfig, Faulter, MultiprocessBackend,
    SequentialBackend, engine, reduction)
from repro.faulter.artifacts import facts_key
from repro.faulter.executor import ExecutionStats
from repro.faulter.models import MODELS
from repro.faulter.reduction import (
    EXAMPLE_CAP,
    ReductionCertificate,
    plan_reduction,
)
from repro.faulter.report import CampaignReport
from repro.faulter.space import (
    ExhaustiveSpace,
    KFaultProductSpace,
    ProductSpace,
    SpacePartition,
    WindowedSpace,
)
from repro.isa.decoder import decode
from repro.isa.insn import CONTROL_FLOW, Mnemonic
from repro.workloads import bootloader, pincheck
from tests.reference import reference_report
from tests.spaces import SampledPoints

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def faulter():
    wl = pincheck.workload()
    return Faulter(wl.build(), wl.good_input, wl.bad_input,
                   wl.grant_marker, name=wl.name)


@pytest.fixture(scope="module")
def boot():
    wl = bootloader.workload(size=8)
    return Faulter(wl.build(), wl.good_input, wl.bad_input,
                   wl.grant_marker, name=wl.name)


def _pair(faulter, model, space, backend=None, **kwargs):
    """(full, reduced) reports for one campaign configuration."""
    full = faulter.engine().run(
        model, space, backend=backend, reduce=False, **kwargs)
    reduced = faulter.engine().run(
        model, space, backend=backend, reduce=True, **kwargs)
    return full, reduced


class TestBitIdentity:
    """Reduced campaigns reproduce the full report, row for row."""

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_every_model_exhaustive(self, faulter, model):
        full, reduced = _pair(faulter, model, ExhaustiveSpace(),
                              collect_outcomes=True)
        assert reduced == reference_report(faulter, model,
                                           collect_outcomes=True)
        assert full == reduced
        cert = reduced.meta["reduction"]
        assert cert["enabled"] is True
        assert cert["full_points"] == full.total_faults
        assert cert["executed_points"] <= cert["full_points"]

    @pytest.fixture(scope="class")
    def reg_bitflip_reference(self, faulter):
        return reference_report(faulter, "reg-bitflip")

    @pytest.mark.parametrize("backend_factory, window", [
        (SequentialBackend, None),
        # one reorder window holding the whole population
        (SequentialBackend, 10**9),
        # many small windows, so the walk restarts between them
        (SequentialBackend, 5),
        (lambda: MultiprocessBackend(workers=3), None),
    ], ids=["master-walk", "materialized", "windowed",
            "multiprocess"])
    def test_backends_and_streaming(self, faulter, backend_factory,
                                    window, reg_bitflip_reference,
                                    monkeypatch):
        if window is not None:
            monkeypatch.setattr(engine, "MAX_RESIDENT_POINTS", window)
        full = faulter.engine().run(
            "reg-bitflip", ExhaustiveSpace(),
            backend=backend_factory(), reduce=False)
        reduced = faulter.engine().run(
            "reg-bitflip", ExhaustiveSpace(),
            backend=backend_factory(), reduce=True)
        assert reduced == reg_bitflip_reference
        assert full == reg_bitflip_reference

    @pytest.mark.parametrize("space_factory", [
        lambda: WindowedSpace(indices=tuple(range(3, 40))),
        lambda: SampledPoints(points=40, seed=7),
        lambda: KFaultProductSpace(k=2, samples=40, seed=7),
    ], ids=["windowed", "sampled", "k-fault"])
    def test_bootloader_spaces(self, boot, space_factory):
        space = space_factory()
        full, reduced = _pair(boot, "skip", space,
                              collect_outcomes=True)
        reference = reference_report(boot, "skip", space,
                                     target=reduced.target,
                                     collect_outcomes=True)
        assert reduced == reference
        assert full == reference

    def test_reduction_actually_elides(self, faulter):
        """The exhaustive reg-bitflip campaign has dead points to
        drop — the certificate must account for them."""
        _, reduced = _pair(faulter, "reg-bitflip", ExhaustiveSpace())
        cert = ReductionCertificate(reduced.meta["reduction"])
        assert cert.executed_points < cert.full_points
        assert cert.payload["dead_points"] > 0


def _record_dispositions(monkeypatch) -> list:
    """Record, in this process, the base ``order`` of every point the
    reduction disposes from now on."""
    disposed = []
    disposer = reduction.ReductionPlan.disposer

    def recording(plan, stats):
        disposition = disposer(plan, stats)

        def recorded(point):
            disposed.append(point.order)
            return disposition(point)

        return recorded

    monkeypatch.setattr(reduction.ReductionPlan, "disposer", recording)
    return disposed


class TestReducedSpaces:
    """Reduction is a per-point short-circuit in the backend stream:
    each point is disposed exactly once, by whichever process streams
    its window — a fleet worker for its own partition, never the
    parent."""

    def test_pickle_is_population_independent(self, faulter):
        """A reduced fleet job ships a flag, not dispositions: its
        pickle does not grow with the partition's population, and the
        parent's proofs stay in the parent."""
        faulter.run_campaign("reg-bitflip")
        assert faulter.engine().context("reg-bitflip").facts.prune_cache
        sizes = {}
        for reduce in (False, True):
            for base in (ExhaustiveSpace(),
                         KFaultProductSpace(k=2, samples=10**9, seed=1)):
                for stop in (10, 10**9):
                    job = (faulter, "reg-bitflip",
                           SpacePartition(base, 0, stop), reduce)
                    sizes[reduce, type(base), stop] = \
                        len(pickle.dumps(job))
        bare = len(pickle.dumps(faulter))
        assert max(sizes.values()) - bare < 512
        assert max(sizes.values()) - min(sizes.values()) < 128

    def test_partition_matches_enumeration_window(self, faulter):
        """Each partition's job streams its own window in base order;
        concatenated, the jobs' outcomes are the whole campaign's
        stream — points, outcomes, base order — and their proof
        tallies add up to the whole stream's."""
        for model, base in (
            ("reg-bitflip", ExhaustiveSpace()),
            ("skip", WindowedSpace(indices=tuple(range(2, 20)))),
            ("reg-bitflip", KFaultProductSpace(k=2, samples=200, seed=0)),
        ):
            ctx = faulter.engine().context(model)
            plan, _ = plan_reduction(faulter, ctx, base)
            whole_stats = ExecutionStats()
            whole = list(SequentialBackend().iter_outcomes(
                faulter, ctx.model, base, ctx, whole_stats, plan))
            orders = [point.order for point, _ in whole]
            assert orders == list(range(base.count(ctx)))
            for parts, max_points in ((1, None), (3, None), (2, 97)):
                partitions = base.partition(ctx, parts, max_points)
                assert len(partitions) >= parts
                shards = [engine._run_partition(
                    (faulter, model, part, plan is not None))
                    for part in partitions]
                assert [outcome for outcomes, _ in shards
                        for outcome in outcomes] == whole
                assert sum(stats.proven_points for _, stats in shards) \
                    == whole_stats.proven_points
                if max_points is not None:
                    assert all(part.count(ctx) <= max_points
                               for part in partitions)
            assert (whole_stats.proven_points > 0) == (plan is not None)

    def test_partition_disposes_only_its_window(self, faulter,
                                                monkeypatch):
        """Each fleet job (run here, in-process) disposes exactly the
        points of its own window, so partitioning costs one reduction
        pass in total."""
        ctx = faulter.engine().context("reg-bitflip")
        population = ExhaustiveSpace().count(ctx)
        disposed = _record_dispositions(monkeypatch)
        partitions = ExhaustiveSpace().partition(ctx, 5)
        assert disposed == []
        windows = []
        for part in partitions:
            del disposed[:]
            outcomes, stats = engine._run_partition(
                (faulter, "reg-bitflip", part, True))
            assert [point.order for point, _ in outcomes] == \
                list(range(part.start, part.stop))
            assert 0 < stats.proven_points < len(outcomes)
            windows.append(list(disposed))
        assert len(windows) == 5
        assert [order for window in windows for order in window] == \
            list(range(population))

    def test_fleet_campaign_disposes_each_point_once(self, faulter,
                                                     monkeypatch):
        """A fleet campaign (two workers, so at least two partitions)
        disposes no point in the parent: the workers' tallies fold
        into the sequential run's certificate and report."""
        sequential = faulter.engine().run("reg-bitflip", ExhaustiveSpace())
        population = ExhaustiveSpace().count(
            faulter.engine().context("reg-bitflip"))
        disposed = _record_dispositions(monkeypatch)
        try:
            fleet = faulter.engine().run(
                "reg-bitflip", ExhaustiveSpace(),
                backend=MultiprocessBackend(workers=2))
        finally:
            # workers forked during the patch must not outlive it
            engine.shutdown_fleet()
        assert disposed == []
        assert fleet == sequential
        assert fleet.meta["reduction"] == sequential.meta["reduction"]
        assert fleet.meta["reduction"]["executed_points"] < population

    def test_fleet_workers_save_their_proofs(self, faulter, tmp_path):
        """The parent derives no proofs for a fleet campaign, so the
        workers save theirs: a later process loads them, each equal
        to the proof a sequential campaign derives."""
        store = ArtifactStore(tmp_path)
        fresh = Faulter(faulter.image, faulter.good_input,
                        faulter.bad_input, faulter.oracle,
                        artifacts=store)
        try:
            fresh.run_campaign("reg-bitflip",
                               backend=MultiprocessBackend(workers=2))
        finally:
            engine.shutdown_fleet()
        saved = _stored_facts(ArtifactStore(tmp_path), fresh)
        faulter.run_campaign("reg-bitflip")
        derived = faulter.engine().context("reg-bitflip").facts.prune_cache
        assert saved is not None and saved["prune"]
        assert all(derived[key] == proof
                   for key, proof in saved["prune"].items())

    def test_fleet_workers_keep_every_proof(self, faulter, tmp_path,
                                            monkeypatch):
        """Fleet workers save their proofs under one key, each
        appending what it derived as one part.  Three workers
        (in-process here, each a pickled copy of the faulter) all load
        the empty store before any of them saves, as concurrent workers
        do; after their jobs a fresh faulter loads a proof for every
        point and derives none."""
        expected = faulter.run_campaign("reg-bitflip")
        shipped = Faulter(faulter.image, faulter.good_input,
                          faulter.bad_input, faulter.oracle,
                          name=faulter.name,
                          artifacts=ArtifactStore(tmp_path))
        ctx = shipped.engine().context("reg-bitflip")
        population = ExhaustiveSpace().count(ctx)
        partitions = ExhaustiveSpace().partition(ctx, 3)
        workers = [pickle.loads(pickle.dumps(shipped)) for _ in partitions]
        for worker in workers:
            facts = worker.engine().context("reg-bitflip").facts
            assert facts.loaded_proofs == 0
        for worker, part in zip(workers, partitions):
            monkeypatch.setattr(engine, "_live_target",
                                lambda _, live=worker: (live, {}))
            engine._run_partition((shipped, "reg-bitflip", part, True))
        fresh = Faulter(faulter.image, faulter.good_input,
                        faulter.bad_input, faulter.oracle,
                        name=faulter.name,
                        artifacts=ArtifactStore(tmp_path))
        fresh_ctx = fresh.engine().context("reg-bitflip")
        derived = []
        monkeypatch.setattr(fresh_ctx.model, "prune_variant",
                            lambda *key: derived.append(key))
        assert len(partitions) == 3 and population == 2496
        assert fresh_ctx.facts.loaded_proofs == population
        report = fresh.run_campaign("reg-bitflip")
        assert derived == []
        assert report == expected

    def test_fleet_jobs_write_each_proof_once(self, faulter, tmp_path,
                                             monkeypatch):
        """No worker of a 3-partition campaign reads a stored proof
        back: each job appends only the proofs it derived, so the parts
        together hold one copy of the set, and a later loader folds
        them into one part."""
        reads = []
        read = ArtifactStore._read

        def recording(path):
            if path.parent.name == "facts":
                reads.append(path)
            return read(path)

        monkeypatch.setattr(ArtifactStore, "_read", staticmethod(recording))
        shipped, population = _three_worker_jobs(faulter, tmp_path,
                                                 monkeypatch)
        assert reads == []
        parts = _facts_parts(shipped)
        assert len(parts) == 3
        written = [ArtifactStore._read(path)["prune"] for path in parts]
        assert sum(map(len, written)) == population == 2496
        assert len(set().union(*written)) == population
        size = sum(path.stat().st_size for path in parts)
        folded = _stored_facts(ArtifactStore(tmp_path), shipped)
        [part] = _facts_parts(shipped)
        assert len(folded["prune"]) == population
        # the parts hold about one copy of the set in bytes too
        assert size <= 1.1 * part.stat().st_size

    def test_folding_shares_equal_proofs(self, faulter, tmp_path,
                                         monkeypatch):
        """Folding a 3-partition campaign's parts stores each set of
        equal proofs once: they load as one object, and the folded
        payload pickles smaller than with one copy per proof."""
        shipped, population = _three_worker_jobs(faulter, tmp_path,
                                                 monkeypatch)
        _stored_facts(ArtifactStore(tmp_path), shipped)
        [part] = _facts_parts(shipped)
        folded = ArtifactStore._read(part)
        verdicts = [verdict for verdict in folded["prune"].values()
                    if verdict is not None]
        assert len(folded["prune"]) == population
        distinct = set(verdicts)
        assert len({id(verdict) for verdict in verdicts}) == len(distinct)
        assert len(distinct) < len(verdicts)
        unshared = {"prune": {key: copy.copy(verdict)
                              for key, verdict in folded["prune"].items()}}
        assert unshared == folded
        assert len(pickle.dumps(folded, pickle.HIGHEST_PROTOCOL)) < \
            len(pickle.dumps(unshared, pickle.HIGHEST_PROTOCOL))

    def test_a_corrupt_part_is_skipped_alone(self, faulter, tmp_path,
                                             monkeypatch):
        """A damaged part costs only its own proofs: a fresh faulter
        loads the other parts, derives the missing proofs again and
        reports exactly what an uncached campaign does."""
        expected = faulter.run_campaign("reg-bitflip")
        shipped, population = _three_worker_jobs(faulter, tmp_path,
                                                 monkeypatch)
        corrupt = _facts_parts(shipped)[1]
        lost = set(ArtifactStore._read(corrupt)["prune"])
        raw = corrupt.read_bytes()
        corrupt.write_bytes(raw[:-1] + bytes([raw[-1] ^ 0xFF]))
        fresh = Faulter(faulter.image, faulter.good_input,
                        faulter.bad_input, faulter.oracle,
                        name=faulter.name,
                        artifacts=ArtifactStore(tmp_path))
        fresh_ctx = fresh.engine().context("reg-bitflip")
        derived = []
        prune = fresh_ctx.model.prune_variant
        monkeypatch.setattr(
            fresh_ctx.model, "prune_variant",
            lambda step, detail, facts: derived.append((step, detail))
            or prune(step, detail, facts))
        assert fresh_ctx.facts.loaded_proofs == population - len(lost)
        assert fresh.run_campaign("reg-bitflip") == expected
        assert set(derived) == lost

    @pytest.mark.parametrize("window", [None, 97],
                             ids=["one-window", "many-windows"])
    def test_sequential_campaign_disposes_each_point_once(
            self, faulter, window, monkeypatch):
        """A sequential campaign disposes each point exactly once, as
        its stream enumerates it, with the report and certificate of
        the unwindowed run."""
        reference = faulter.engine().run(
            "reg-bitflip", ExhaustiveSpace(), reduce=False)
        certificate = faulter.engine().run(
            "reg-bitflip", ExhaustiveSpace()).meta["reduction"]
        population = ExhaustiveSpace().count(
            faulter.engine().context("reg-bitflip"))
        if window is not None:
            monkeypatch.setattr(engine, "MAX_RESIDENT_POINTS", window)
        disposed = _record_dispositions(monkeypatch)
        report = faulter.engine().run("reg-bitflip", ExhaustiveSpace())
        assert disposed == list(range(population))
        assert report == reference
        assert report.meta["reduction"] == certificate
        assert 0 < certificate["executed_points"] < population


def _stored_facts(store, faulter):
    """The reg-bitflip proofs ``store`` holds for ``faulter``, folded
    into one payload, or ``None``."""
    parts = store.load_parts("facts", facts_key(
        faulter.image_digest(), faulter.bad_input, len(faulter.trace()),
        "reg-bitflip"), fold=engine._fold_facts)
    return parts[0] if parts else None


def _facts_parts(faulter) -> list:
    return sorted((faulter.artifacts.root / "facts").glob("*.art"))


def _three_worker_jobs(faulter, root, monkeypatch):
    """Run the jobs of a 3-partition reg-bitflip campaign in-process,
    each on its own pickled copy of ``faulter`` with a store at
    ``root``.  Every worker loads the empty store before any job, as
    concurrent workers do.  Returns the shipped faulter and the
    population."""
    shipped = Faulter(faulter.image, faulter.good_input,
                      faulter.bad_input, faulter.oracle,
                      name=faulter.name, artifacts=ArtifactStore(root))
    ctx = shipped.engine().context("reg-bitflip")
    partitions = ExhaustiveSpace().partition(ctx, 3)
    assert len(partitions) == 3
    workers = [pickle.loads(pickle.dumps(shipped)) for _ in partitions]
    for worker in workers:
        assert worker.engine().context("reg-bitflip").facts \
            .loaded_proofs == 0
    for worker, part in zip(workers, partitions):
        monkeypatch.setattr(engine, "_live_target",
                            lambda _, live=worker: (live, {}))
        engine._run_partition((shipped, "reg-bitflip", part, True))
    return shipped, ExhaustiveSpace().count(ctx)


class TestStreamDisposal:
    """Proven points join their window's executed outcomes in the
    reorder sort, on both backends, across many windows and fleet
    partitions."""

    WINDOW = 64

    @pytest.mark.parametrize("model, proof", [
        ("bitflip", "crash_points"),
        ("reg-bitflip", "dead_points"),
    ])
    def test_fleet_and_sequential_agree(self, faulter, model, proof,
                                        monkeypatch):
        full = faulter.engine().run(model, ExhaustiveSpace(),
                                    reduce=False, collect_outcomes=True)
        monkeypatch.setattr(engine, "MAX_RESIDENT_POINTS", self.WINDOW)
        sequential = faulter.engine().run(model, ExhaustiveSpace(),
                                          collect_outcomes=True)
        engine.shutdown_fleet()  # workers fork with the patched window
        try:
            fleet = faulter.engine().run(
                model, ExhaustiveSpace(),
                backend=MultiprocessBackend(workers=2),
                collect_outcomes=True)
        finally:
            engine.shutdown_fleet()
        assert sequential == full
        assert fleet == full
        certificate = sequential.meta["reduction"]
        assert fleet.meta["reduction"] == certificate
        assert certificate[proof] > 0
        # several windows ran, each holding only points to execute
        assert certificate["executed_points"] > 2 * self.WINDOW
        for report in (sequential, fleet):
            assert 0 < report.meta["peak_resident_points"] <= self.WINDOW

    @pytest.mark.parametrize("model", ["bitflip", "reg-bitflip"])
    def test_stream_order_is_the_unreduced_order(self, faulter, model,
                                                 monkeypatch):
        monkeypatch.setattr(engine, "MAX_RESIDENT_POINTS", self.WINDOW)
        ctx = faulter.engine().context(model)
        plan, _ = plan_reduction(faulter, ctx, ExhaustiveSpace())

        def stream(plan):
            return list(SequentialBackend().iter_outcomes(
                faulter, ctx.model, ExhaustiveSpace(), ctx,
                ExecutionStats(), plan))

        reduced, full = stream(plan), stream(None)
        assert [point for point, _ in reduced] == \
            [point for point, _ in full]
        assert reduced == full


class TestCertificate:
    def test_roundtrip_through_report_json(self, faulter):
        report = faulter.run_campaign("skip")
        payload = json.loads(json.dumps(report.to_dict()))
        rebuilt = CampaignReport.from_dict(payload)
        assert rebuilt == report
        assert rebuilt.meta["reduction"] == report.meta["reduction"]
        cert = ReductionCertificate.from_dict(
            rebuilt.meta["reduction"])
        assert cert.enabled
        assert "reduction:" in cert.summary()

    def test_no_reduce_knob(self, faulter):
        off = faulter.run_campaign("skip", reduce=False)
        on = faulter.run_campaign("skip", reduce=True)
        assert off.meta["reduction"] == \
            {"enabled": False, "reason": "disabled"}
        assert on == off  # bit-identical either way
        summary = ReductionCertificate(off.meta["reduction"]).summary()
        assert summary == "reduction: off (disabled)"

    def test_unsupported_space_reason(self, faulter):
        ctx = faulter.engine().context("skip")
        whole = SpacePartition(
            ExhaustiveSpace(), 0, ExhaustiveSpace().count(ctx))
        report = faulter.engine().run("skip", whole)
        meta = report.meta["reduction"]
        assert meta["enabled"] is False
        assert meta["reason"].startswith("unsupported-space")

    def test_plan_reduction_gates(self, faulter):
        ctx = faulter.engine().context("skip")
        plan, reason = plan_reduction(faulter, ctx, ExhaustiveSpace())
        assert plan is not None and reason is None
        plan, reason = plan_reduction(
            faulter, ctx, SpacePartition(ExhaustiveSpace(), 0, 0))
        assert plan is None
        assert reason.startswith("unsupported-space")
        for tuples in (KFaultProductSpace(k=2, samples=8, seed=0),
                       ProductSpace(k=2, indices=(1, 2, 3))):
            assert plan_reduction(faulter, ctx, tuples) == \
                (None, "tuple-space")


@functools.lru_cache(maxsize=None)
def _pincheck_pairs(model: str) -> CampaignReport:
    """The seed-0 pincheck k=2 campaign of ``model``, run once."""
    return pincheck.workload().target().campaign(
        (model,), config=EngineConfig(k_faults=2))[model]


class TestKFaultUnreduced:
    """k-fault tuple spaces run unreduced: a seed-0 pincheck pair
    campaign equals its ``reduce=False`` run and keeps its exact
    compiled/precise step split."""

    @pytest.mark.parametrize("model, steps", [
        ("skip", (1426, 657)),
        ("bitflip", (904, 446)),
        ("reg-bitflip", (2068, 519)),
    ])
    def test_seed0_pincheck_pairs(self, model, steps):
        report = _pincheck_pairs(model)
        full = pincheck.workload().target().faulter().run_k_fault_campaign(
            model, k=2, reduce=False)
        assert report == full
        meta = report.meta
        assert (meta["compiled_steps"], meta["precise_steps"]) == steps


class TestCertificatePin:
    """Seed-0 pincheck certificates, pinned: the summary line, the
    dead-proof reasons and a digest of the whole JSON payload, so a
    change to how single faults are reduced shows up as a diff.
    ``analysis_steps`` is in the digest: the proofs scan flags and
    registers in a fixed order, so the scan count does not depend on
    the hash seed.  k=2 campaigns run unreduced and pin the payload
    that says so."""

    @pytest.mark.parametrize("k, model, summary, reasons, digest", [
        (1, "skip", "reduction: 23 -> 21 executed, 1.1x (dead 2)",
         {"jcc-not-taken": 2}, "5c2221831a032748"),
        (1, "bitflip", "reduction: 936 -> 771 executed, 1.2x (crash 165)",
         {}, "841b8f80086ce4fa"),
        (1, "reg-bitflip",
         "reduction: 2496 -> 1160 executed, 2.2x (dead 1336)",
         {"reg-dead": 1336}, "76c903e8b286c4fe"),
    ])
    def test_seed0_pincheck(self, k, model, summary, reasons, digest):
        report = pincheck.workload().target().campaign(
            (model,), config=EngineConfig(k_faults=k))[model]
        payload = dict(report.meta["reduction"])
        assert ReductionCertificate(payload).summary() == summary
        assert payload["dead_reasons"] == reasons
        assert len(payload["dead_examples"]) == min(
            EXAMPLE_CAP, sum(reasons.values()))
        assert hashlib.sha256(
            json.dumps(payload).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("model", ["skip", "bitflip", "reg-bitflip"])
    def test_seed0_pincheck_pairs(self, model):
        """A k=2 campaign's certificate is the whole payload of a
        reduction that did not run, and says why."""
        payload = _pincheck_pairs(model).meta["reduction"]
        assert payload == {"enabled": False, "reason": "tuple-space"}
        assert ReductionCertificate(payload).summary() == \
            "reduction: off (tuple-space)"


class TestHashSeedIndependence:
    _SCRIPT = "\n".join([
        "import json",
        "from repro.faulter import EngineConfig",
        "from repro.workloads import pincheck",
        "target = pincheck.workload().target()",
        "print(json.dumps([",
        "    target.campaign((model,), config=EngineConfig())"
        "[model].meta['reduction']",
        "    for model in ('skip', 'bitflip')]))",
    ])

    def test_certificates_equal_across_hash_seeds(self):
        """Two interpreters with different string hashing produce the
        same certificates, ``analysis_steps`` included."""
        runs = [
            subprocess.run(
                [sys.executable, "-c", self._SCRIPT],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "PYTHONPATH": str(SRC)})
            for seed in ("0", "3")
        ]
        first, second = (json.loads(run.stdout) for run in runs)
        assert first == second
        assert [cert["analysis_steps"] for cert in first] == [81, 62]


class TestCliSurface:
    def test_fault_verbose_prints_summary(self, capsys):
        from repro.cli import main

        rc = main(["fault", "pincheck", "--model", "reg-bitflip",
                   "-k", "2", "--verbose"])
        out = capsys.readouterr().out
        assert rc in (0, 1)
        assert "reduction:" in out

    @pytest.mark.parametrize("flag", ["--no-reduce",
                                      "--no-trace-compile"])
    def test_removed_knob_flags_exit_2(self, flag, capsys):
        # reduction and the compiled tier are not CLI knobs
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["fault", "pincheck", flag])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


# the order proofs scan flags in, so a reference scans what they scan
FLAG_ORDER = ("cf", "pf", "af", "zf", "sf", "of")


class _StepwiseFacts(TraceFacts):
    """Memo-free reference proofs: :class:`StepFacts` derived afresh at
    every step, and every encoding proof decoded and derived afresh
    from the step's own fetch window."""

    def __init__(self, image, bad_input, trace):
        probe = Machine(image, stdin=bad_input)

        def window_at(step):
            try:
                return bytes(probe.memory.fetch(trace[step], 15))
            except (IndexError, EmulationError):
                return None

        def insn_at(step):
            window = window_at(step)
            try:
                return decode(window, 0, trace[step]) if window else None
            except DecodingError:
                return None

        super().__init__(trace, insn_at, window_at)

    def step(self, step):
        insn = self._insn_at(step)
        return derive_step_facts(insn) if insn is not None else None

    def encoding_prune(self, step, detail, mutate):
        facts = self.step(step)
        window = self._window_at(step)
        if facts is None or window is None:
            return None
        mutated = bytearray(window)
        mutate(mutated)
        original = facts.insn
        if mutated[:original.length] == window[:original.length]:
            return VariantPrune("dead", "encoding-identity", -1)
        try:
            replacement = decode(bytes(mutated), 0, original.address)
        except DecodingError:
            return VariantPrune("crash", "undecodable", math.inf)
        if replacement.length != original.length:
            return None
        for insn in (original, replacement):
            if insn.mnemonic in CONTROL_FLOW or \
                    insn.mnemonic is Mnemonic.SYSCALL:
                return None
        new_facts = derive_step_facts(replacement)
        if (facts.eff.writes_memory or new_facts.eff.writes_memory
                or new_facts.eff.reads_memory):
            return None
        spans = {}
        for source in (facts.write_spans, new_facts.write_spans):
            for code, span in source.items():
                spans[code] = spans.get(code, 0) | span
        settled = -1.0
        for code, span in spans.items():
            if span & ~self.reg_dead_mask(step + 1, code):
                return None
            settled = max(settled, self.reg_settle(step + 1, code, span))
        if facts.eff.writes_flags or new_facts.eff.writes_flags:
            touched = {*facts.touched, *new_facts.touched}
            for flag in (f for f in FLAG_ORDER if f in touched):
                dead, flag_settled = self.flag_dead(step + 1, flag)
                if not dead:
                    return None
                settled = max(settled, flag_settled)
        return VariantPrune("dead", "encoding-dead", settled)


def _verdicts(image, bad_input, model_name):
    """``(memoized, memo-free)`` verdicts of every point of the model
    on the bad-input trace, and the production and reference facts."""
    trace = engine.derive_trace(image, bad_input, 100_000)
    ctx = engine.build_space_context(image, bad_input, MODELS[model_name],
                                     trace)
    reference = _StepwiseFacts(image, bad_input, trace)
    memoized, fresh = {}, {}
    for step in range(len(trace)):
        for detail in ctx.variants(step):
            memoized[step, detail] = ctx.model.prune_variant(
                step, detail, ctx.facts)
            fresh[step, detail] = ctx.model.prune_variant(
                step, detail, reference)
    return memoized, fresh, ctx.facts, reference


class TestMemoizedProofs:
    """Proofs memoized per address and per (address, fault detail)
    equal a memo-free recomputation: kind, reason and ``settled``."""

    @pytest.fixture(scope="class")
    def images(self):
        target = bootloader.workload().target()
        return {"bootloader": target.exe,
                "bootloader+hybrid": target.harden(
                    "hybrid", fault_models=()).hardened}

    @pytest.mark.parametrize("model", ["bitflip", "skip"])
    @pytest.mark.parametrize("name", ["bootloader", "bootloader+hybrid"])
    def test_loop_heavy_traces(self, images, name, model):
        wl = bootloader.workload()
        memoized, fresh, facts, _ = _verdicts(images[name], wl.bad_input,
                                              model)
        assert memoized == fresh
        if model == "bitflip":
            # the hash loop revisits its code: the memo must hit
            assert 0 < len(facts._encodings) < len(memoized)

    def test_key_is_the_whole_window(self):
        # the proof reads the whole fetch window, so equal instructions
        # at two addresses must not share it: two copies of push rax
        # (0x50); bit 4 turns it into a REX prefix, so the mutated
        # decode runs into the following bytes:
        # "40 90" decodes (a longer instruction, no proof), "40 48 .."
        # stacks two prefixes and does not decode (a crash)
        image = assemble("\n".join([
            ".text", ".global _start", "_start:",
            "    push rax", "    nop",
            "    push rax", "    add rax, rbx",
            "    mov eax, 60", "    xor edi, edi", "    syscall"]))
        memoized, fresh, _, _ = _verdicts(image, b"", "bitflip")
        assert memoized == fresh
        assert memoized[0, (4,)] is None
        assert memoized[2, (4,)].kind == "crash"


@pytest.fixture(scope="module")
def encoding_images():
    """pincheck, its three hardened images and the bootloader."""
    target = pincheck.workload().target()
    images = {"pincheck": (target.exe, target.bad_input)}
    for approach in ("faulter+patcher", "hybrid", "detour"):
        images[f"pincheck+{approach}"] = (
            target.harden(approach).hardened, target.bad_input)
    wl = bootloader.workload()
    images["bootloader"] = (wl.build(), wl.bad_input)
    return images


class TestEncodingProofMemo:
    """The encoding proofs' step-independent half, memoized per
    (address, fault detail), against a reference that decodes and
    derives every proof afresh: equal per point (kind, reason,
    ``settled``) and in the scans they run."""

    @pytest.mark.parametrize("model", ["bitflip", "stuck0"])
    @pytest.mark.parametrize("name", [
        "pincheck", "pincheck+faulter+patcher", "pincheck+hybrid",
        "pincheck+detour", "bootloader"])
    def test_every_point_matches_the_reference(self, encoding_images,
                                               name, model):
        image, bad_input = encoding_images[name]
        memoized, fresh, facts, reference = _verdicts(image, bad_input,
                                                      model)
        assert memoized == fresh
        assert facts.scan_steps == reference.scan_steps
        assert any(proof is not None for proof in memoized.values())

    @pytest.mark.parametrize("key", [
        lambda address, detail: detail,
        lambda address, detail: address,
    ], ids=["without-address", "without-detail"])
    def test_a_partial_key_fails(self, monkeypatch, encoding_images,
                                 key):
        from repro.analysis import traceflow

        monkeypatch.setattr(traceflow, "_encoding_key", key)
        image, bad_input = encoding_images["pincheck"]
        memoized, fresh, _, _ = _verdicts(image, bad_input, "bitflip")
        assert memoized != fresh

    @pytest.mark.parametrize("model", ["bitflip", "stuck0"])
    def test_a_repeat_reads_no_window(self, encoding_images, model):
        # the bootloader's hash loop repeats (address, detail) pairs
        image, bad_input = encoding_images["bootloader"]
        trace = engine.derive_trace(image, bad_input, 100_000)
        ctx = engine.build_space_context(image, bad_input, MODELS[model],
                                         trace)
        facts = ctx.facts
        window_at = facts._window_at
        reads = []

        def counting(step):
            reads.append(step)
            return window_at(step)

        facts._window_at = counting
        pairs = set()
        for step in range(len(trace)):
            for detail in ctx.variants(step):
                ctx.model.prune_variant(step, detail, facts)
                pairs.add((trace[step], detail))
        assert len(reads) == len(pairs) < sum(
            len(ctx.variants(step)) for step in range(len(trace)))
