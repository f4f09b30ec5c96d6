"""State-family fault models: variants, effects, and the
backend bit-identity matrix.

The tentpole property: the :class:`~repro.emu.effects.FaultEffect`
protocol generalizes injection beyond fetch substitution without
changing a single engine guarantee — for every state model, streamed
execution and both backends reproduce the reference protocol
(:mod:`tests.reference`) bit-identically, on both bundled campaign
workloads.
"""

import pytest

from repro.emu import Machine
from repro.emu.effects import (
    BranchInvertEffect,
    FlagForceEffect,
    MemoryBitFlipEffect,
    RegisterBitFlipEffect,
)
from repro.faulter import (
    ENCODING_MODELS,
    Faulter,
    MODELS,
    MultiprocessBackend,
    STATE_MODELS,
    SequentialBackend,
    model_by_name,
)
from repro.faulter.space import ExhaustiveSpace, SampledSpace
from repro.isa.metadata import effects as isa_effects
from repro.isa.registers import reg
from repro.workloads import bootloader, pincheck
from tests.reference import reference_report

# Bounded space per model: exhaustive where the population is tiny,
# seeded samples where it is not (reg-bitflip enumerates 64 bits per
# live register per step).
SPACE_FOR = {
    "reg-bitflip": lambda: SampledSpace(samples=60, seed=13),
    "mem-bitflip": lambda: SampledSpace(samples=60, seed=13),
    "flag-stuck": lambda: ExhaustiveSpace(),
    "branch-invert": lambda: ExhaustiveSpace(),
}


@pytest.fixture(scope="module")
def wl():
    return pincheck.workload()


@pytest.fixture(scope="module")
def faulter(wl):
    return Faulter(wl.build(), wl.good_input, wl.bad_input,
                   wl.grant_marker, name=wl.name)


@pytest.fixture(scope="module")
def boot_faulter():
    wl = bootloader.workload(size=8)
    return Faulter(wl.build(), wl.good_input, wl.bad_input,
                   wl.grant_marker, name=wl.name)


class TestRegistry:
    def test_families_partition_the_registry(self):
        assert set(ENCODING_MODELS) | set(STATE_MODELS) == set(MODELS)
        assert not set(ENCODING_MODELS) & set(STATE_MODELS)
        assert set(STATE_MODELS) == {"reg-bitflip", "flag-stuck",
                                     "mem-bitflip", "branch-invert"}

    def test_models_report_family_and_stage(self):
        for name in ENCODING_MODELS:
            model = model_by_name(name)
            assert (model.family, model.stage) == ("encoding", "fetch")
        for name in STATE_MODELS:
            model = model_by_name(name)
            assert (model.family, model.stage) == ("state", "state")

    def test_unknown_model_still_rejected(self):
        with pytest.raises(KeyError, match="reg-bitflip"):
            model_by_name("reg-flip")


class TestVariants:
    """Variant enumeration against the traced instruction's ISA
    metadata."""

    def _insn_at(self, faulter, step):
        machine = Machine(faulter.image, stdin=faulter.bad_input)
        return machine.fetch_decode(faulter.trace()[step])

    def test_reg_bitflip_targets_only_live_registers(self, faulter):
        model = model_by_name("reg-bitflip")
        for step in range(len(faulter.trace()) - 1):
            insn = self._insn_at(faulter, step)
            meta = isa_effects(insn)
            live = {r.code for r in (meta.reads | meta.writes)}
            variants = model.variants(insn, meta)
            assert {code for code, _ in variants} == live
            assert len(variants) == 64 * len(live)
            # passing no metadata derives it identically
            assert list(model.variants(insn)) == list(variants)

    def test_flag_stuck_only_at_flag_consumers(self, faulter):
        model = model_by_name("flag-stuck")
        seen_consumer = False
        for step in range(len(faulter.trace()) - 1):
            insn = self._insn_at(faulter, step)
            variants = model.variants(insn)
            if insn.reads_flags:
                seen_consumer = True
                assert sorted(variants) == sorted(
                    (flag, value)
                    for flag in ("zf", "cf", "sf") for value in (0, 1))
            else:
                assert variants == []
        assert seen_consumer

    def test_mem_bitflip_sized_by_read_operand_width(self, faulter):
        from repro.isa.insn import Mnemonic
        from repro.isa.operands import Mem

        model = model_by_name("mem-bitflip")
        write_only = (Mnemonic.MOV, Mnemonic.MOVZX, Mnemonic.SETCC,
                      Mnemonic.POP)
        for step in range(len(faulter.trace()) - 1):
            insn = self._insn_at(faulter, step)
            if insn.mnemonic is Mnemonic.LEA:
                expected = 0  # address computation, cell never touched
            else:
                expected = sum(
                    op.size * 8
                    for position, op in enumerate(insn.operands)
                    if isinstance(op, Mem)
                    and not (position == 0
                             and insn.mnemonic in write_only))
            assert len(model.variants(insn)) == expected

    def test_mem_bitflip_skips_write_only_destinations(self):
        """A flipped cell a store immediately overwrites is a
        guaranteed no-op; such points must not be enumerated."""
        from repro.isa.decoder import decode

        model = model_by_name("mem-bitflip")
        # mov byte ptr [rax], bl : 88 18 — write-only destination
        store = decode(bytes.fromhex("8818"), 0, 0x1000)
        assert model.variants(store) == []
        # mov bl, byte ptr [rax] : 8a 18 — read source, 8 bits
        load = decode(bytes.fromhex("8a18"), 0, 0x1000)
        assert len(model.variants(load)) == 8

    def test_branch_invert_only_at_conditionals(self, faulter):
        model = model_by_name("branch-invert")
        flavors = set()
        for step in range(len(faulter.trace()) - 1):
            insn = self._insn_at(faulter, step)
            variants = model.variants(insn)
            assert variants == ([()] if insn.is_conditional else [])
            flavors.add(insn.is_conditional)
        assert flavors == {True, False}


class TestEffectSemantics:
    """Machine-level behaviour of the state effects."""

    def test_register_bitflip_flips_one_bit(self, wl):
        machine = Machine(wl.build(), stdin=wl.bad_input)
        rax = reg("rax").code
        before = machine.cpu.regs[rax]
        RegisterBitFlipEffect(rax, 5).mutate(machine, None)
        assert machine.cpu.regs[rax] == before ^ (1 << 5)

    def test_flag_force_sets_and_clears(self, wl):
        machine = Machine(wl.build(), stdin=wl.bad_input)
        FlagForceEffect("zf", 1).mutate(machine, None)
        assert machine.cpu.flags.zf is True
        FlagForceEffect("zf", 0).mutate(machine, None)
        assert machine.cpu.flags.zf is False

    def test_branch_invert_grants_on_pincheck(self, faulter):
        """Untaking the pin-mismatch branch is the canonical
        fault-injection attack; the campaign must find it."""
        report = faulter.run_campaign("branch-invert")
        assert report.vulnerable
        assert all(f.mnemonic.startswith("j") for f in report.successes)

    def test_flag_stuck_grants_on_pincheck(self, faulter):
        report = faulter.run_campaign("flag-stuck")
        assert report.vulnerable

    def test_branch_invert_effect_takes_untaken_branch(self, wl):
        """At a step whose branch falls through, the effect must
        redirect the PC to the branch target (and vice versa)."""
        machine = Machine(wl.build(), stdin=wl.bad_input)
        trace_machine = Machine(wl.build(), stdin=wl.bad_input)
        baseline = trace_machine.run(record_trace=True)
        # find the first conditional along the trace
        probe = Machine(wl.build(), stdin=wl.bad_input)
        step = next(i for i, addr in enumerate(baseline.trace)
                    if probe.fetch_decode(addr).is_conditional)
        result = machine.run(
            fault_plan={step: BranchInvertEffect()}, record_trace=True)
        assert result.trace[:step + 1] == baseline.trace[:step + 1]
        assert result.trace[step + 1] != baseline.trace[step + 1]

    def test_mem_bitflip_rolls_back_with_the_journal(self, wl):
        """The permission-blind poke must be journaled: master-walk
        snapshot/rollback execution may not leak corruption into
        later fault points."""
        machine = Machine(wl.build(), stdin=wl.bad_input)
        probe = Machine(wl.build(), stdin=wl.bad_input)
        trace = probe.run(record_trace=True).trace
        from repro.isa.operands import Mem

        step = next(
            i for i, addr in enumerate(trace)
            if any(isinstance(op, Mem)
                   for op in probe.fetch_decode(addr).operands))
        state = machine.snapshot()
        machine.memory.journal_begin()
        faulted = machine.run(
            fault_plan={step: MemoryBitFlipEffect(0, 0)})
        machine.memory.journal_rollback()
        machine.restore(state)
        clean = machine.run()
        baseline = Machine(wl.build(), stdin=wl.bad_input).run()
        assert clean.behavior() == baseline.behavior()
        assert faulted.steps > 0


class TestStateModelBitIdentity:
    """The acceptance matrix: every state model x both backends x
    reorder windows against the reference, on both bundled campaign
    workloads."""

    @pytest.mark.parametrize("model", STATE_MODELS)
    def test_pincheck_matrix(self, faulter, model):
        self._matrix(faulter, model)

    @pytest.mark.parametrize("model", STATE_MODELS)
    def test_bootloader_matrix(self, boot_faulter, model):
        self._matrix(boot_faulter, model)

    @staticmethod
    def _matrix(faulter, model):
        space = SPACE_FOR[model]()
        baseline = reference_report(faulter, model, space)
        assert baseline.total_faults > 0
        engine = faulter.engine()
        streamed = engine.run(
            model, space,
            backend=SequentialBackend(max_resident_points=16))
        assert streamed == baseline
        assert streamed.meta["peak_resident_points"] <= 16
        parallel = engine.run(
            model, space, backend=MultiprocessBackend(workers=3))
        assert parallel == baseline
        assert engine.run(model, space) == baseline

    def test_exhaustive_run_campaign_equals_engine(self, faulter):
        """The campaign driver's exhaustive path rides the same
        protocol."""
        for model in ("flag-stuck", "branch-invert"):
            driver = faulter.run_campaign(model)
            assert driver == reference_report(faulter, model,
                                              ExhaustiveSpace())


class TestReportsAndCLI:
    def test_state_fault_details_serialize_losslessly(self, faulter):
        from repro.faulter import CampaignReport

        report = faulter.run_campaign("reg-bitflip",
                                      collect_outcomes=True)
        rebuilt = CampaignReport.from_dict(report.to_dict())
        assert rebuilt == report
        assert rebuilt.all_outcomes == report.all_outcomes

    def test_cli_choices_derive_from_registry(self):
        from repro.cli import MODEL_CHOICES, build_parser

        assert MODEL_CHOICES == sorted(MODELS)
        parser = build_parser()
        args = parser.parse_args(
            ["fault", "t.elf", "--good", "00", "--bad", "01",
             "--marker", "OK", "--model", "reg-bitflip",
             "--model", "branch-invert"])
        assert args.model == ["reg-bitflip", "branch-invert"]

    def test_describe_names_the_substrate(self):
        assert model_by_name("reg-bitflip").describe((0, 3)) == \
            "reg-bitflip(rax, bit=3)"
        assert model_by_name("flag-stuck").describe(("zf", 1)) == \
            "flag-stuck(zf=1)"
        assert model_by_name("mem-bitflip").describe((0, 7)) == \
            "mem-bitflip(operand=0, bit=7)"
        assert model_by_name("branch-invert").describe(()) == \
            "branch-invert"

    def test_differential_rollups_cover_state_models(self, wl):
        """Target.evaluate campaigns under a state model while
        hardening with the encoding-family loop; the rollup must key
        the state model."""
        evaluation = wl.target().evaluate(
            models=("branch-invert",),
            harden_models=("branch-invert",))
        assert evaluation.diff.models == ["branch-invert"]
        census = evaluation.diff.counts(model="branch-invert")
        assert sum(census.values()) >= 1
        assert "branch-invert" in evaluation.diff.by_model()
        # the Fig. 2 loop iterated on the encoding fallback, not the
        # state model
        assert set(evaluation.result.final_reports) == {"skip"}
