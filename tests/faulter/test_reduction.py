"""Equivalence reduction: bit-identical reports, fewer executions.

The tentpole property: running a campaign over the reduced space must
reproduce the full-space report row for row — outcomes, successes,
ordering — for every fault model, on both backends, as the reference
protocol (:mod:`tests.reference`) computes it.  The certificate in
``report.meta["reduction"]`` is the checkable record of what was
elided and why, and the dense k-fault product is where the reduction
pays: the flag-stuck pair campaign below must beat the full product
by at least 5x emulated steps (its space is too large for the
reference, so it checks the reduced run against the full one).
"""

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
    EngineConfig, Faulter, MultiprocessBackend, SequentialBackend, engine,
    reduction)
from repro.faulter.models import MODELS
from repro.faulter.reduction import (
    EXAMPLE_CAP,
    ReducedSpace,
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


class TestProductSpeedup:
    """The acceptance criterion: a k=2 bootloader campaign with
    reduction on beats the full product space by >= 5x, with verdicts
    mapping 1:1."""

    @pytest.fixture(scope="class")
    def big_boot(self):
        wl = bootloader.workload(size=176)
        return Faulter(wl.build(), wl.good_input, wl.bad_input,
                       wl.grant_marker, name=wl.name)

    def test_flag_stuck_pairs(self, big_boot):
        ctx = big_boot.engine().context("flag-stuck")
        offsets = [step for step in range(len(ctx.trace))
                   if ctx.variants(step)]
        space = ProductSpace(k=2, indices=tuple(offsets[::9]))
        full, reduced = _pair(big_boot, "flag-stuck", space,
                              collect_outcomes=True)
        assert reduced == full
        cert = ReductionCertificate(reduced.meta["reduction"])
        assert cert.full_points == full.total_faults
        full_steps = full.meta["emulated_steps"]
        reduced_steps = reduced.meta["emulated_steps"]
        assert full_steps >= 5 * max(1, reduced_steps)


def _record_dispositions(monkeypatch) -> list:
    """Record, in this process, the base ``order`` of every point the
    reduction disposes from now on."""
    disposed = []
    disposer = reduction._disposer

    def recording(ctx, began, allow_crash):
        disposition = disposer(ctx, began, allow_crash)

        def recorded(point):
            disposed.append(point.order)
            return disposition(point)

        return recorded

    monkeypatch.setattr(reduction, "_disposer", recording)
    return disposed


class TestReducedSpaces:
    """Reduced spaces are first-class: picklable in O(probes), and
    partitioned by reducing each partition of the base space."""

    def test_pickle_is_population_independent(self):
        single = ReducedSpace(ExhaustiveSpace())
        tuples = ReducedSpace(
            KFaultProductSpace(k=2, samples=10**9, seed=1),
            probes=(((3, (0,)), 17), ((9, (1,)), 40)))
        assert len(pickle.dumps(single)) < 512
        assert len(pickle.dumps(tuples)) < 512

    def test_partition_matches_enumeration_window(self, faulter):
        """Survivors keep their base order; concatenated, the
        partitions' survivors are the whole reduced enumeration —
        points, steps, details and base order — and each partition
        pickles in O(probes)."""
        for model, base in (
            ("reg-bitflip", ExhaustiveSpace()),
            ("skip", WindowedSpace(indices=tuple(range(2, 20)))),
            ("reg-bitflip", KFaultProductSpace(k=2, samples=200, seed=0)),
        ):
            ctx = faulter.engine().context(model)
            plan, _ = plan_reduction(faulter, MODELS[model], ctx, base,
                                     SequentialBackend())
            space = plan.space
            whole = list(space.enumerate(ctx))
            assert 0 < len(whole) < base.count(ctx)
            # survivors are the base points themselves, base order kept
            base_points = list(base.enumerate(ctx))
            orders = [point.order for point in whole]
            assert orders == sorted(set(orders))
            assert [base_points[order] for order in orders] == whole
            for parts, max_points in ((1, None), (3, None), (2, 97)):
                partitions = space.partition(ctx, parts, max_points)
                assert len(partitions) >= min(parts, len(base_points))
                assert [point for part in partitions
                        for point in part.enumerate(ctx)] == whole
                for part in partitions:
                    assert len(pickle.dumps(part)) <= \
                        len(pickle.dumps(space)) + 128
                    if max_points is not None:
                        assert part.base.count(ctx) <= max_points

    def test_partition_disposes_only_its_window(self, faulter,
                                                monkeypatch):
        """Each partition disposes exactly the points of its own base
        window, so partitioning costs one reduction pass in total."""
        ctx = faulter.engine().context("reg-bitflip")
        population = ExhaustiveSpace().count(ctx)
        disposed = _record_dispositions(monkeypatch)
        partitions = ReducedSpace(ExhaustiveSpace()).partition(ctx, 5)
        assert disposed == []
        windows = []
        for part in partitions:
            del disposed[:]
            for _ in part.enumerate(ctx):
                pass
            windows.append(list(disposed))
        assert len(windows) == 5
        assert [order for window in windows for order in window] == \
            list(range(population))

    def test_fleet_campaign_disposes_each_point_once(self, faulter,
                                                     monkeypatch):
        """A fleet campaign over a reduced space (two workers, so at
        least two partitions) disposes each base point in the parent
        exactly once, in the expansion, and its report is the
        sequential one."""
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
        assert disposed == list(range(population))
        assert fleet == sequential
        assert fleet.meta["reduction"]["executed_points"] < population

    @pytest.mark.parametrize("window", [None, 97],
                             ids=["one-window", "many-windows"])
    def test_sequential_campaign_disposes_each_point_once(
            self, faulter, window, monkeypatch):
        """In-process, the expansion reuses the dispositions the
        backend's own enumeration made: a sequential campaign over a
        reduced space disposes each base point exactly once, with
        the report and certificate of the unwindowed run."""
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
        plan, reason = plan_reduction(
            faulter, MODELS["skip"], ctx, ExhaustiveSpace(),
            SequentialBackend())
        assert plan is not None and reason is None
        plan, reason = plan_reduction(
            faulter, MODELS["skip"], ctx,
            SpacePartition(ExhaustiveSpace(), 0, 0), SequentialBackend())
        assert plan is None
        assert reason.startswith("unsupported-space")


class TestProbePassPin:
    """The k=2 probe pass on seed-0 pincheck, pinned on ``report.meta``:
    probes are single faults on the campaign's own master walk, so the
    post-fault state memo serves them too (``probe_steps`` count the
    golden steps and skip the suffixes of memo hits)."""

    @pytest.mark.parametrize("model, certificate, steps", [
        ("skip",
         {"full_points": 192, "executed_points": 120, "dead_points": 1,
          "dominated_points": 71, "probes": 20, "probe_steps": 169},
         (1182, 558)),
        ("reg-bitflip",
         {"full_points": 157, "executed_points": 71, "dead_points": 84,
          "dominated_points": 2, "probes": 1, "probe_steps": 14},
         (1124, 188)),
    ])
    def test_seed0_pincheck_pairs(self, model, certificate, steps):
        report = pincheck.workload().target().campaign(
            (model,), config=EngineConfig(k_faults=2))[model]
        meta = report.meta
        assert {key: meta["reduction"][key]
                for key in certificate} == certificate
        assert (meta["compiled_steps"], meta["precise_steps"]) == steps


class TestCertificatePin:
    """Seed-0 pincheck certificates, pinned: the summary line, the
    dead-proof reasons and a digest of the whole JSON payload, so a
    change to how single faults or tuples are reduced shows up as a
    diff.  ``analysis_steps`` is in the digest: the proofs scan flags
    and registers in a fixed order, so the scan count does not depend
    on the hash seed."""

    @pytest.mark.parametrize("k, model, summary, reasons, digest", [
        (1, "skip", "reduction: 23 -> 21 executed, 1.1x (dead 2)",
         {"jcc-not-taken": 2}, "5c2221831a032748"),
        (1, "bitflip", "reduction: 936 -> 771 executed, 1.2x (crash 165)",
         {}, "841b8f80086ce4fa"),
        (1, "reg-bitflip",
         "reduction: 2496 -> 1160 executed, 2.2x (dead 1336)",
         {"reg-dead": 1336}, "76c903e8b286c4fe"),
        (2, "skip", None, {}, "44882ad83a5ba113"),
        (2, "bitflip", None, {}, "abc62363591c392c"),
        (2, "reg-bitflip",
         "reduction: 157 -> 71 executed, 2.2x "
         "(dead 84, dominated 2, probes 1)",
         {}, "6c473ab86a38ed2e"),
    ])
    def test_seed0_pincheck(self, k, model, summary, reasons, digest):
        report = pincheck.workload().target().campaign(
            (model,), config=EngineConfig(k_faults=k))[model]
        payload = dict(report.meta["reduction"])
        if summary is not None:
            assert ReductionCertificate(payload).summary() == summary
        assert payload["dead_reasons"] == reasons
        assert len(payload["dead_examples"]) == min(
            EXAMPLE_CAP, sum(reasons.values()))
        assert hashlib.sha256(
            json.dumps(payload).encode()).hexdigest()[:16] == digest


class TestHashSeedIndependence:
    _SCRIPT = "\n".join([
        "import json",
        "from repro.faulter import EngineConfig",
        "from repro.workloads import pincheck",
        "target = pincheck.workload().target()",
        "print(json.dumps([",
        "    target.campaign((model,), config=EngineConfig(k_faults=k))"
        "[model].meta['reduction']",
        "    for k in (1, 2) for model in ('skip', 'bitflip')]))",
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
        assert [cert["analysis_steps"] for cert in first] == \
            [81, 62, 81, 62]


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


class _StepwiseFacts(TraceFacts):
    """Memo-free reference proofs: :class:`StepFacts` derived afresh at
    every step, and every encoding proof decoded and derived afresh."""

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

    def encoding_prune(self, step, mutate):
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
            for flag in {*facts.touched, *new_facts.touched}:
                dead, flag_settled = self.flag_dead(step + 1, flag)
                if not dead:
                    return None
                settled = max(settled, flag_settled)
        return VariantPrune("dead", "encoding-dead", settled)


def _verdicts(image, bad_input, model_name):
    """``(memoized, memo-free)`` verdicts of every point of the model
    on the bad-input trace, and the production facts."""
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
    return memoized, fresh, ctx.facts


class TestMemoizedProofs:
    """Proofs memoized per address and per (address, mutated window)
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
        memoized, fresh, facts = _verdicts(images[name], wl.bad_input,
                                           model)
        assert memoized == fresh
        if model == "bitflip":
            # the hash loop revisits its code: the memo must hit
            assert 0 < len(facts._encodings) < len(memoized)

    def test_key_is_the_whole_window(self):
        # two copies of push rax (0x50); bit 4 turns it into a REX
        # prefix, so the mutated decode runs into the following bytes:
        # "40 90" decodes (a longer instruction, no proof), "40 48 .."
        # stacks two prefixes and does not decode (a crash)
        image = assemble("\n".join([
            ".text", ".global _start", "_start:",
            "    push rax", "    nop",
            "    push rax", "    add rax, rbx",
            "    mov eax, 60", "    xor edi, edi", "    syscall"]))
        memoized, fresh, _ = _verdicts(image, b"", "bitflip")
        assert memoized == fresh
        assert memoized[0, (4,)] is None
        assert memoized[2, (4,)].kind == "crash"
