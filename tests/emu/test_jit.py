"""Trace-compiled execution: equivalence, coherence, flag replay.

The compiled tier's contract is bit-identity with the precise stepper
— same registers, flags, memory, stdout, step counts and crash
behaviour — which these tests check three ways: whole-program
differential runs, randomized inline-flag replay against
:mod:`repro.emu.flagops`, and the coherence edges (self-modifying
code, fault windows, superblock boundaries).
"""

import hashlib
import random
from collections import OrderedDict
from pathlib import Path

import pytest

from repro.asm import assemble
from repro.binfmt import read_elf
from repro.emu.flagops import PARITY_TABLE, Flags
from repro.emu.jit import TraceCompiler
from repro.emu.jit import compiler as compiler_mod
from repro.emu.jit import lift as lift_mod
from repro.emu.jit.codegen import (
    JitUnsupported, _Emitter, _inline_flags, lower_superblock)
from repro.emu.jit.superblock import MAX_BODY, carve
from repro.emu.machine import Machine
from repro.errors import IRError, LiftError
from repro.ir.builder import IRBuilder
from repro.ir.instructions import (
    Alloca, Call, ICmp, IntToPtr, Load, Store)
from repro.ir.module import Function
from repro.ir.types import I64, VOID, FunctionType
from repro.ir.values import Constant
from repro.isa.registers import all_gpr64
from repro.isa.registers import reg as reg_by_name
from repro.lift.semantics import InstructionTranslator
from repro.lift.state import GuestState
from repro.workloads import bootloader, corpus, pincheck

FLAG_NAMES = ("cf", "pf", "af", "zf", "sf", "of")


def _state(machine):
    flags = machine.cpu.flags
    return (tuple(machine.cpu.regs), machine.cpu.rip,
            tuple(getattr(flags, name) for name in FLAG_NAMES),
            bytes(machine.io.stdout))


def _run_both(image, stdin=b"", **kwargs):
    precise = Machine(image, stdin=stdin)
    result_p = precise.run(**kwargs)
    compiled = Machine(image, stdin=stdin)
    TraceCompiler().attach(compiled)
    result_c = compiled.run(**kwargs)
    return (precise, result_p), (compiled, result_c)


def _assert_identical(image, stdin=b"", **kwargs):
    (precise, rp), (compiled, rc) = _run_both(image, stdin, **kwargs)
    assert _state(precise) == _state(compiled)
    assert rp.behavior() == rc.behavior()
    assert rp.steps == rc.steps


class TestWholeProgramEquivalence:
    def test_bootloader_both_inputs(self):
        wl = bootloader.workload(rich=True)
        image = wl.build()
        for stdin in (wl.good_input, wl.bad_input):
            _assert_identical(image, stdin)

    def test_pincheck_both_inputs(self):
        wl = pincheck.workload()
        image = wl.build()
        for stdin in (wl.good_input, wl.bad_input):
            _assert_identical(image, stdin)

    def test_corpus_programs(self):
        for name in ("exit42", "arith", "stack_ops", "call_ret",
                     "unary_ops", "shifts_by_cl", "byte_loop",
                     "memwrites"):
            _assert_identical(corpus.build(name))

    def test_compiled_tier_actually_engages(self):
        wl = bootloader.workload(rich=True)
        machine = Machine(wl.build(), stdin=wl.bad_input)
        compiler = TraceCompiler().attach(machine)
        result = machine.run()
        assert compiler.compiled_blocks > 0
        assert compiler.compiled_steps > result.steps // 2

    def test_step_budget_never_overshoots(self):
        wl = bootloader.workload(rich=True)
        for budget in (1, 2, 7, 64, 150):
            _assert_identical(wl.build(), wl.bad_input,
                              max_steps=budget)


class TestFaultWindows:
    """Fault steps always run on the precise stepper, mid-block too."""

    def test_fault_inside_superblock(self):
        # steps 3..8 land inside the first carved superblocks; a
        # fault plan entry there must split compiled execution
        wl = bootloader.workload(rich=True)
        image = wl.build()
        from repro.faulter.models import model_by_name
        model = model_by_name("skip")
        probe = Machine(image, stdin=wl.bad_input)
        trace = probe.run(record_trace=True).trace
        for step in (0, 3, 5, 17, 40, len(trace) - 2):
            insn = Machine(image).fetch_decode(trace[step])
            variants = model.variants(insn, None)
            if not variants:
                continue
            plan = {step: model.effect(variants[0])}
            _assert_identical(image, wl.bad_input, fault_plan=plan)

    def test_fault_window_straddles_block_boundary(self):
        # two plan entries bracketing a superblock boundary: the jit
        # must stop before each and resume between them
        wl = bootloader.workload(rich=True)
        image = wl.build()
        from repro.faulter.models import model_by_name
        model = model_by_name("skip")
        probe = Machine(image, stdin=wl.bad_input)
        trace = probe.run(record_trace=True).trace
        pairs = [(4, 9), (10, 30), (2, len(trace) - 3)]
        for first, second in pairs:
            plan = {}
            for step in (first, second):
                insn = Machine(image).fetch_decode(trace[step])
                variants = model.variants(insn, None)
                if variants:
                    plan[step] = model.effect(variants[0])
            if plan:
                _assert_identical(image, wl.bad_input,
                                  fault_plan=plan)


SELF_MODIFYING = """
# patches the imm byte of "mov rdi, 42" from inside the same
# superblock; compiled execution must abort, roll back, and let the
# precise stepper re-run the store (exit 43, not 42)
.text
.global _start
_start:
    lea rsi, [rel patch]
    mov al, 43
    mov byte ptr [rsi+3], al
patch:
    mov rdi, 42
    mov rax, 60
    syscall
"""


class TestCoherence:
    def test_self_modifying_block_aborts_and_reruns(self):
        from repro.asm import assemble
        image = assemble(SELF_MODIFYING)

        def machine():
            m = Machine(image)
            # .text assembles r-x; make it writable so the guest
            # store is legal and the abort path (not a crash) runs
            m.memory.map(m.cpu.rip & ~0xFFF, 0x1000, "rwx")
            return m

        precise = machine()
        assert precise.run().exit_code == 43
        compiled = machine()
        compiler = TraceCompiler().attach(compiled)
        result = compiled.run()
        assert result.exit_code == 43
        assert compiler.divergences >= 1

    def test_poke_into_code_evicts_compiled_block(self):
        image = corpus.build("exit42")
        warm = Machine(image)
        compiler = TraceCompiler().attach(warm)
        entry = warm.cpu.rip
        assert warm.run().exit_code == 42  # compiles the entry block
        machine = Machine(image)
        compiler.attach(machine)  # pristine blocks survive the rebind
        target = entry + machine.fetch_decode(entry).length
        machine.memory.poke(target + 3, b"\x2b")
        assert machine.run().exit_code == 43  # stale block would be 42

    def test_restore_keeps_pristine_blocks(self):
        """The master walk's per-fault rollback (journal rollback plus
        CPU/IO restore) evicts no block when no write reached code."""
        wl = bootloader.workload(rich=True)
        machine = Machine(wl.build(), stdin=wl.bad_input)
        compiler = TraceCompiler().attach(machine)
        state = machine.snapshot()
        machine.memory.journal_begin()
        machine.run()
        blocks = dict(compiler._blocks)
        assert compiler.compiled_blocks > 0
        machine.memory.journal_rollback()
        machine.restore(state)
        # nothing wrote executable pages, so no block was evicted
        assert compiler._blocks == blocks


class TestSharedBlockMap:
    """Every compiler in a process shares one content-keyed block map."""

    @pytest.fixture(autouse=True)
    def fresh_map(self, monkeypatch):
        monkeypatch.setattr(compiler_mod, "_SHARED", OrderedDict())

    @pytest.fixture
    def lifts(self, monkeypatch):
        """Start addresses passed to ``lift_superblock``, in order."""
        calls = []
        real = compiler_mod.lift_superblock

        def counting(body, start):
            calls.append(start)
            return real(body, start)

        monkeypatch.setattr(compiler_mod, "lift_superblock", counting)
        return calls

    def test_second_compiler_lifts_nothing(self, lifts):
        wl = bootloader.workload(rich=True)
        image = wl.build()
        first = Machine(image, stdin=wl.bad_input)
        TraceCompiler().attach(first)
        first.run()
        assert lifts
        lifts.clear()
        (precise, rp), (compiled, rc) = _run_both(image, wl.bad_input)
        assert lifts == []
        assert compiled.jit.compiled_blocks > 0
        assert compiled.jit.compiled_steps > rc.steps // 2
        assert _state(precise) == _state(compiled)
        assert rp.steps == rc.steps

    def test_poked_code_gets_its_own_entry(self, lifts):
        image = corpus.build("exit42")
        warm = Machine(image)
        warm_compiler = TraceCompiler().attach(warm)
        entry = warm.cpu.rip
        assert warm.run().exit_code == 42
        stale = warm_compiler._blocks[entry].step
        machine = Machine(image)
        compiler = TraceCompiler().attach(machine)
        target = entry + machine.fetch_decode(entry).length
        machine.memory.poke(target + 3, b"\x2b")
        lifts.clear()
        assert machine.run().exit_code == 43
        assert entry in lifts
        assert compiler._blocks[entry].step is not stale
        assert [start for start, _ in compiler_mod._SHARED].count(
            entry) == 2

    def test_unliftable_block_is_tried_once(self, lifts, monkeypatch):
        def refuse(function, body, terminator):
            raise JitUnsupported("refused")

        monkeypatch.setattr(compiler_mod, "lower_superblock", refuse)
        wl = pincheck.workload()
        image = wl.build()
        for _ in range(2):
            _assert_identical(image, wl.bad_input)
        assert lifts
        assert len(lifts) == len(set(lifts))
        assert all(entry is None
                   for entry in compiler_mod._SHARED.values())

    def test_map_never_exceeds_its_capacity(self, monkeypatch):
        monkeypatch.setattr(compiler_mod, "SHARED_CAPACITY", 4)
        sizes = []
        real = compiler_mod.lift_superblock

        def recording(body, start):
            sizes.append(len(compiler_mod._SHARED))
            return real(body, start)

        monkeypatch.setattr(compiler_mod, "lift_superblock", recording)
        wl = bootloader.workload(rich=True)
        _assert_identical(wl.build(), wl.bad_input)
        assert len(sizes) > 4
        assert max(sizes) <= 4
        assert len(compiler_mod._SHARED) == 4

    def test_import_reuses_shared_step_functions(self):
        wl = pincheck.workload()
        image = wl.build()
        source = Machine(image, stdin=wl.bad_input)
        exporter = TraceCompiler().attach(source)
        source.run()
        payload = exporter.export_blocks()
        assert payload["blocks"]
        compiler_mod._SHARED.clear()
        imported = []
        for _ in range(2):
            machine = Machine(image, stdin=wl.bad_input)
            compiler = TraceCompiler().attach(machine)
            assert compiler.import_blocks(machine, payload) == len(
                payload["blocks"])
            imported.append(compiler._blocks)
        for start, block in imported[0].items():
            assert imported[1][start].step is block.step


def test_pass_pipeline_keeps_no_history():
    # the JIT's pass manager is module-global, so any per-run record
    # it kept would grow for the life of the process
    machine = Machine(bootloader.workload(rich=True).build())
    body, _ = carve(machine, machine.cpu.rip)
    assert body

    def sizes():
        return {name: len(value)
                for name, value in vars(lift_mod._PIPELINE).items()
                if hasattr(value, "__len__")}

    before = sizes()
    for _ in range(100):
        lift_mod.lift_superblock(body, machine.cpu.rip)
    assert sizes() == before


class TestSsaLift:
    """The body reaches the pass pipeline already in SSA form.

    No guest-state alloca or slot load/store is built; ``reg_in``
    appears only for registers the body reads and ``reg_out`` only for
    registers it writes, plus ``rsp``.  The lowered source is the one
    the alloca form, promoted by mem2reg, lowers to.
    """

    @staticmethod
    def _carve(lines):
        source = [".text", ".global _start", "_start:"]
        source += [f"    {line}" for line in lines]
        machine = Machine(assemble("\n".join(source)))
        body, terminator = carve(machine, machine.cpu.rip)
        return body, terminator, machine.cpu.rip

    def _lift(self, monkeypatch, lines):
        body, terminator, start = self._carve(lines)
        captured = []
        pipeline = lift_mod._PIPELINE

        class Capture:
            def run(self, function):
                captured.extend(function.entry.instructions)
                return pipeline.run(function)

        monkeypatch.setattr(lift_mod, "_PIPELINE", Capture())
        function = lift_mod.lift_superblock(body, start)
        lower_superblock(function, body, terminator)
        return captured

    @staticmethod
    def _markers(instructions, callee):
        return {inst.operands[0].value for inst in instructions
                if isinstance(inst, Call) and inst.callee == callee}

    @pytest.mark.parametrize("lines, reads, writes", [
        (["add rax, 1", "syscall"], {"rax"}, {"rax"}),
        # the 8-bit write merges into the old upper 56 bits of rax
        (["mov al, 1", "syscall"], {"rax"}, {"rax"}),
        (["push rbx", "call target", "target:", "ret"], {"rbx"}, set()),
    ], ids=["add-rax", "mov-al", "push-call"])
    def test_slots_never_reach_the_pipeline(self, monkeypatch, lines,
                                            reads, writes):
        instructions = self._lift(monkeypatch, lines)
        assert not any(isinstance(inst, Alloca) for inst in instructions)
        # only guest memory traffic remains, through inttoptr
        for inst in instructions:
            if isinstance(inst, (Load, Store)):
                assert isinstance(inst.pointer, IntToPtr)
        rsp = reg_by_name("rsp").code
        codes = {reg_by_name(name).code for name in reads}
        assert self._markers(instructions, "reg_in") == codes | {rsp}
        codes = {reg_by_name(name).code for name in writes}
        assert self._markers(instructions, "reg_out") == codes | {rsp}

    @staticmethod
    def _alloca_lift(body, start):
        """Reference: every register through a GuestState alloca, all
        sixteen ``reg_in``/``reg_out`` markers, renamed by mem2reg."""
        function = Function(f"sb_{start:x}", FunctionType(VOID, ()))
        builder = IRBuilder(function.add_block("body"))
        state = GuestState(builder)
        translator = InstructionTranslator(state, builder)
        for register in all_gpr64():
            value = builder.call(I64, "reg_in",
                                 [Constant(I64, register.code)],
                                 readonly=True)
            builder.store(value, state.reg_slots[register.name])
        markers = lift_mod._FlagMarkers(translator, builder)
        for insn in body:
            markers.capture(insn)
            translator.translate(insn)
        markers.prune()
        for register in all_gpr64():
            builder.call(VOID, "reg_out",
                         [Constant(I64, register.code),
                          state.read_reg(builder, register)],
                         readonly=True)
        builder.ret()
        lift_mod._PIPELINE.run(function)
        return function

    @classmethod
    def _random_bodies(cls, count=300):
        """Seeded random bodies over the compilable instruction set, at
        every register width, with each kind of terminator."""
        regs = {8: ["rax", "rbx", "rcx", "rsi", "rsp", "r8", "r15"],
                4: ["eax", "ebx", "ecx", "esi", "esp", "r8d"],
                1: ["al", "bl", "cl", "sil"]}
        rng = random.Random(7)

        def memory(prefix=""):
            base, index = rng.choice(regs[8]), rng.choice(regs[8][:4])
            return (f"{prefix}[{base}+{index}*{rng.choice((1, 8))}"
                    f"+{rng.randrange(64)}]")

        def line():
            width = rng.choice((8, 8, 4, 1))
            dst, src = rng.choice(regs[width]), rng.choice(regs[width])
            return rng.choice([
                f"mov {dst}, {src}",
                f"mov {dst}, {rng.randrange(256)}",
                f"{rng.choice(['add', 'sub', 'and', 'xor', 'cmp'])}"
                f" {dst}, {rng.choice([src, str(rng.randrange(130))])}",
                f"{rng.choice(['inc', 'neg', 'not'])} {dst}",
                f"{rng.choice(['shl', 'sar'])} {dst}, "
                f"{rng.choice(['1', '3', '0', 'cl'])}",
                f"push {rng.choice(regs[8])}",
                f"pop {rng.choice(regs[8])}",
                f"lea {rng.choice(regs[8])}, {memory()}",
                f"mov {rng.choice(regs[8])}, {memory('qword ptr ')}",
                f"mov {memory('qword ptr ')}, {rng.choice(regs[8])}",
                f"movzx {rng.choice(regs[4])}, {memory('byte ptr ')}",
                f"imul {rng.choice(regs[8])}, {rng.choice(regs[8])}",
            ])

        for _ in range(count):
            lines = [line() for _ in range(rng.randrange(1, 8))]
            lines += [rng.choice(["syscall", "jmp target", "jne target",
                                  "call target", "ret"]),
                      "target:", "syscall"]
            yield lines

    def test_lowers_like_the_alloca_reference(self):
        # the reference lifts with the translator's flag model, which
        # the JIT's lift never builds: DCE must have dropped all of it
        for lines in self._random_bodies():
            body, terminator, start = self._carve(lines)
            reference = lower_superblock(self._alloca_lift(body, start),
                                         body, terminator)[2]
            function = lift_mod.lift_superblock(body, start)
            assert lower_superblock(function, body, terminator)[2] == \
                reference, lines

    def test_no_flag_model_reaches_the_pipeline(self, monkeypatch):
        # a body never reads a flag, so its only compares would be the
        # translator's flag model; flags travel in flag_* markers
        for lines in self._random_bodies():
            instructions = self._lift(monkeypatch, lines)
            assert not any(isinstance(inst, ICmp)
                           for inst in instructions), lines


class TestSuperblockCarving:
    def test_carve_stops_at_syscall(self):
        machine = Machine(corpus.build("exit42"))
        body, terminator = carve(machine, machine.cpu.rip)
        assert [insn.name for insn in body] == ["mov", "mov"]
        assert terminator is None

    def test_carve_compiles_direct_terminators(self):
        machine = Machine(corpus.build("infinite_loop"))
        body, terminator = carve(machine, machine.cpu.rip)
        assert body == []
        assert terminator is not None and terminator.name == "jmp"

    def test_carve_respects_max_body(self):
        source = [".text", ".global _start", "_start:"]
        source += ["    inc rax"] * (MAX_BODY + 10)
        source += ["    mov rax, 60", "    syscall"]
        machine = Machine(assemble("\n".join(source)))
        body, terminator = carve(machine, machine.cpu.rip)
        assert len(body) == MAX_BODY
        assert terminator is None


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

#: sha256 over every ``.text`` address's carved code and lowered source;
#: an IR or codegen change that alters any compiled block changes it.
#: The ``pincheck+*`` images are pincheck hardened by that approach:
#: the re-fault compiles their code shapes, which the plain images lack.
LOWERED_DIGESTS = {
    "pincheck":
        "3a848399b22c9aecf4cc718fb95513c2ca9ebedf580d8a207cdcb31ed2572ea9",
    "pincheck+hybrid":
        "5c68c07767c4685ad777e138738af09e78bbcbf771f8dc5c1eebcada03c5ac41",
    "pincheck+detour":
        "9ec0cf9038c2cd9d6a0c76360b5778881945c3b80eaf0bd1a6a2a9b7bf81d839",
    "bootloader":
        "92486524c175b09ee99f79545238e98a36f7d4124210cd067b921351e3643385",
    "bootloader_pie":
        "43348a299f0e5d8888b4fab2ce66e6fd8cc42d9d18803d3b0fac9a8024824981",
}


def _lowered_digest(exe) -> str:
    """Digest of the superblock carved at every byte address of .text.

    Every byte, not just the linear-sweep boundaries, so misaligned
    decodes (what encoding faults execute) are pinned too.  Blocks
    that do not lift or lower contribute ``NONE``.
    """
    machine = Machine(exe)
    text = exe.section(".text")
    rows = []
    for address in range(text.addr, text.addr + len(text.data)):
        body, terminator = carve(machine, address)
        insns = body + ([terminator] if terminator is not None else [])
        source = "NONE"
        if insns:
            try:
                function = lift_mod.lift_superblock(body, address)
                source = lower_superblock(function, body, terminator)[2]
            except (LiftError, IRError, JitUnsupported):
                pass
        rows.append((address, b"".join(insn.raw for insn in insns),
                     source))
    digest = hashlib.sha256()
    for address, code, source in sorted(rows):
        digest.update(f"{address:x}:{code.hex()}:{source}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(LOWERED_DIGESTS))
def test_lowered_source_is_pinned(name):
    if name == "bootloader_pie":
        exe = read_elf((FIXTURES / "bootloader_pie.elf").read_bytes())
    elif name.startswith("pincheck+"):
        target = pincheck.workload().target()
        exe = target.harden(name.partition("+")[2],
                            fault_models=()).hardened
    else:
        exe = {"pincheck": pincheck, "bootloader": bootloader}[
            name].workload().build()
    assert _lowered_digest(exe) == LOWERED_DIGESTS[name]


class TestInlineFlagReplay:
    """The open-coded flag expansions match flagops bit-for-bit.

    Promised by the codegen docstring: every inline expansion is a
    literal transcription of the matching ``Flags.set_*`` method,
    checked here on randomized operands at every width.
    """

    WIDTHS = (8, 32, 64)

    def _run_inline(self, kind, values, bits, flags):
        emitter = _Emitter()
        lines = _inline_flags(
            emitter, kind, [repr(v) for v in values], bits)
        assert lines is not None
        source = "def replay(flags):\n" + "".join(
            f"    {line}\n" for line in lines)
        namespace = {"_PT": PARITY_TABLE}
        exec(source, namespace)
        namespace["replay"](flags)

    def _check(self, kind, values, bits, reference):
        for initial_cf in (False, True):
            expect = Flags()
            expect.cf = initial_cf
            reference(expect)
            actual = Flags()
            actual.cf = initial_cf
            self._run_inline(kind, values, bits, actual)
            got = tuple(getattr(actual, n) for n in FLAG_NAMES)
            want = tuple(getattr(expect, n) for n in FLAG_NAMES)
            assert got == want, (kind, values, bits, got, want)

    def test_randomized_against_flagops(self):
        rng = random.Random(20260808)
        for bits in self.WIDTHS:
            mask = (1 << bits) - 1
            samples = [0, 1, mask, mask >> 1, (mask >> 1) + 1] + [
                rng.randrange(mask + 1) for _ in range(40)]
            for a in samples:
                b = rng.randrange(mask + 1)
                self._check("add", (a, b), bits,
                            lambda f: f.set_add(a, b, bits))
                self._check("sub", (a, b), bits,
                            lambda f: f.set_sub(a, b, bits))
                self._check("imul", (a, b), bits,
                            lambda f: f.set_imul(a, b, bits))
                self._check("logic", (a & b,), bits,
                            lambda f: f.set_logic_result(a & b, bits))
                self._check("inc", (a,), bits,
                            lambda f: f.set_inc(a, bits))
                self._check("dec", (a,), bits,
                            lambda f: f.set_dec(a, bits))
                self._check("neg", (a,), bits,
                            lambda f: f.set_neg(a, bits))

    def test_randomized_constant_shifts(self):
        rng = random.Random(99)
        for bits in self.WIDTHS:
            mask = (1 << bits) - 1
            counts = [1, 2, bits - 1, bits, bits + 1, 63]
            counts = sorted({c & (0x3F if bits == 64 else 0x1F)
                             for c in counts} - {0})
            for count in counts:
                for _ in range(20):
                    a = rng.randrange(mask + 1)
                    self._check("shl", (a, count), bits,
                                lambda f: f.set_shl(a, count, bits))
                    self._check("shr", (a, count), bits,
                                lambda f: f.set_shr(a, count, bits))
                    self._check("sar", (a, count), bits,
                                lambda f: f.set_sar(a, count, bits))
