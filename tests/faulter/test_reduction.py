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

import json
import pickle

import pytest

from repro.faulter import Faulter, MultiprocessBackend, SequentialBackend
from repro.faulter.models import MODELS
from repro.faulter.reduction import (
    ReducedSpace,
    ReducedTupleSpace,
    ReductionCertificate,
    plan_reduction,
)
from repro.faulter.report import CampaignReport
from repro.faulter.space import (
    ExhaustiveSpace,
    ExplicitSpace,
    KFaultProductSpace,
    ProductSpace,
    SampledSpace,
    WindowedSpace,
)
from repro.workloads import bootloader, pincheck
from tests.reference import reference_report


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

    @pytest.mark.parametrize("backend_factory", [
        lambda: SequentialBackend(),
        # one reorder window holding the whole population
        lambda: SequentialBackend(max_resident_points=10**9),
        # many small windows, so the walk restarts between them
        lambda: SequentialBackend(max_resident_points=5),
        lambda: MultiprocessBackend(workers=3),
    ], ids=["master-walk", "materialized", "windowed",
            "multiprocess"])
    def test_backends_and_streaming(self, faulter, backend_factory,
                                    reg_bitflip_reference):
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
        lambda: SampledSpace(samples=40, seed=7),
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

    def test_class_merging_stays_bit_identical(self):
        """Class merging needs >= 2 live forces in one quiet flag
        region.  The bundled workloads test their flags right after
        setting them (``cmp; jcc``), so craft a compare with a quiet
        gap before the branch and widen flag-stuck to every step —
        merging must fire and identity must still hold."""
        from repro.faulter.models import FORCEABLE_FLAGS, MODELS
        from repro.workloads.base import Workload

        class EveryStepFlagStuck(type(MODELS["flag-stuck"])):
            name = "flag-stuck-everywhere"

            def variants(self, insn, meta=None):
                return [(flag, value) for flag in FORCEABLE_FLAGS
                        for value in (0, 1)]

        wl = Workload(
            name="quietgap",
            source="""
.section .text
.global _start
_start:
    xor rax, rax              # SYS_read one byte
    xor rdi, rdi
    lea rsi, [rel buf]
    mov rdx, 1
    syscall
    mov al, byte ptr [rel buf]
    cmp al, 0x37              # expect '7'
    lea rsi, [rel msg_ok]     # quiet gap: no flag touch
    mov rdx, 3                # before the branch consumes zf
    jne deny
    mov rax, 1                # SYS_write the grant marker
    mov rdi, 1
    syscall
deny:
    mov rax, 60
    xor rdi, rdi
    syscall

.section .data
msg_ok: .ascii "OK\\n"

.section .bss
buf: .zero 1
""",
            good_input=b"7",
            bad_input=b"0",
            grant_marker=b"OK",
        )
        faulter = Faulter(wl.build(), wl.good_input, wl.bad_input,
                          wl.grant_marker, name=wl.name)
        model = EveryStepFlagStuck()
        space = SampledSpace(samples=10**6, seed=0)  # total-cap, all
        full, reduced = _pair(faulter, model, space,
                              collect_outcomes=True)
        reference = reference_report(faulter, model, space,
                                     collect_outcomes=True)
        assert reduced == reference
        assert full == reference
        cert = ReductionCertificate(reduced.meta["reduction"])
        assert cert.payload["merged_points"] > 0
        assert cert.payload["class_count"] > 0


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


class TestReducedSpaces:
    """Reduced spaces are first-class: picklable in O(1), partitionable
    through the standard streaming machinery."""

    def test_pickle_is_population_independent(self):
        single = ReducedSpace(ExhaustiveSpace(), merge=True)
        tuples = ReducedTupleSpace(
            KFaultProductSpace(k=2, samples=10**9, seed=1),
            probes=(((3, (0,)), 17), ((9, (1,)), 40)))
        assert len(pickle.dumps(single)) < 512
        assert len(pickle.dumps(tuples)) < 512

    def test_partition_matches_enumeration_window(self, faulter):
        ctx = faulter.engine().context("skip")
        space = ReducedSpace(ExhaustiveSpace(), merge=True)
        whole = list(space.enumerate(ctx))
        assert whole  # survivors exist
        for part in space.partition(ctx, 3):
            assert list(part.enumerate(ctx)) == \
                whole[part.start:part.stop]

    def test_survivors_renumbered(self, faulter):
        ctx = faulter.engine().context("skip")
        space = ReducedSpace(ExhaustiveSpace())
        orders = [point.order for point in space.enumerate(ctx)]
        assert orders == list(range(len(orders)))


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
        points = tuple(ExhaustiveSpace().enumerate(ctx))
        report = faulter.engine().run(
            "skip", ExplicitSpace(points=points))
        meta = report.meta["reduction"]
        assert meta["enabled"] is False
        assert meta["reason"].startswith("unsupported-space")

    def test_plan_reduction_gates(self, faulter):
        ctx = faulter.engine().context("skip")
        plan, reason = plan_reduction(
            faulter, MODELS["skip"], ctx, ExhaustiveSpace())
        assert plan is not None and reason is None
        plan, reason = plan_reduction(
            faulter, MODELS["skip"], ctx, ExplicitSpace(points=()))
        assert plan is None
        assert reason.startswith("unsupported-space")


class TestCliSurface:
    def test_fault_verbose_prints_summary(self, capsys):
        from repro.cli import main

        rc = main(["fault", "pincheck", "--model", "reg-bitflip",
                   "-k", "2", "--verbose"])
        out = capsys.readouterr().out
        assert rc in (0, 1)
        assert "reduction:" in out

    def test_no_reduce_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["fault", "pincheck", "--no-reduce"])
        assert args.reduce is False
        args = build_parser().parse_args(["fault", "pincheck"])
        assert args.reduce is None
