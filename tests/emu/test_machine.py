"""End-to-end emulator tests over the corpus and case studies."""

from repro.emu import Machine, run_executable
from repro.emu.effects import SkipEffect
from repro.workloads import bootloader, corpus, pincheck


class TestCorpus:
    def test_exit42(self):
        result = run_executable(corpus.build("exit42"))
        assert result.reason == "exit"
        assert result.exit_code == 42

    def test_echo(self):
        result = run_executable(corpus.build("echo4"), stdin=b"abcd")
        assert result.stdout == b"abcd"
        assert result.exit_code == 0

    def test_arith(self):
        result = run_executable(corpus.build("arith"))
        assert result.exit_code == 52

    def test_infinite_loop_hits_max_steps(self):
        result = run_executable(corpus.build("infinite_loop"), max_steps=100)
        assert result.reason == "max-steps"
        assert result.steps == 100

    def test_flags_survive_stack(self):
        result = run_executable(corpus.build("stack_ops"))
        assert result.exit_code == 7

    def test_call_ret(self):
        result = run_executable(corpus.build("call_ret"))
        assert result.exit_code == 8

    def test_indirect_call(self):
        result = run_executable(corpus.build("indirect"))
        assert result.exit_code == 9

    def test_memwrites(self):
        result = run_executable(corpus.build("memwrites"))
        assert result.exit_code == 30

    def test_setcc_cmov(self):
        result = run_executable(corpus.build("setcc_cmov"))
        assert result.exit_code == 1


class TestPincheck:
    def test_correct_pin_grants(self):
        wl = pincheck.workload()
        result = run_executable(wl.build(), stdin=wl.good_input)
        assert wl.grant_marker in result.stdout
        assert result.exit_code == 0

    def test_wrong_pin_denies(self):
        wl = pincheck.workload()
        result = run_executable(wl.build(), stdin=wl.bad_input)
        assert b"DENIED" in result.stdout
        assert result.exit_code == 1

    def test_short_input_denies(self):
        wl = pincheck.workload()
        result = run_executable(wl.build(), stdin=b"1")
        assert b"DENIED" in result.stdout

    def test_custom_pin(self):
        wl = pincheck.workload(pin="90210")
        result = run_executable(wl.build(), stdin=b"90210")
        assert wl.grant_marker in result.stdout


class TestBootloader:
    def test_valid_firmware_boots(self):
        wl = bootloader.workload()
        result = run_executable(wl.build(), stdin=wl.good_input)
        assert wl.grant_marker in result.stdout
        assert result.exit_code == 0

    def test_tampered_firmware_fails(self):
        wl = bootloader.workload()
        result = run_executable(wl.build(), stdin=wl.bad_input)
        assert b"FAIL" in result.stdout
        assert result.exit_code == 1

    def test_every_single_byte_tamper_fails(self):
        wl = bootloader.workload(size=8)
        exe = wl.build()
        firmware = wl.extra["firmware"]
        for i in range(len(firmware)):
            tampered = bytearray(firmware)
            tampered[i] ^= 0x80
            result = run_executable(exe, stdin=bytes(tampered))
            assert b"FAIL" in result.stdout, f"byte {i} tamper booted!"

    def test_reference_hash_matches_guest(self):
        assert bootloader.fnv1a64(b"") == bootloader.FNV_OFFSET
        # guest computes the same digest implicitly: good input boots
        wl = bootloader.workload(size=24)
        result = run_executable(wl.build(), stdin=wl.good_input)
        assert wl.grant_marker in result.stdout


class TestMachineInternals:
    def test_trace_records_rips(self):
        machine = Machine(corpus.build("exit42"))
        result = machine.run(record_trace=True)
        assert len(result.trace) == result.steps + 1  # incl. exiting syscall
        entry = machine.image.entry
        assert result.trace[0] == entry

    def test_skip_fault_changes_behavior(self):
        # skipping 'mov rdi, 42' leaves rdi=0 -> exit code 0
        machine = Machine(corpus.build("exit42"))
        result = machine.run(fault_plan={1: SkipEffect()})
        assert result.exit_code == 0

    def test_snapshot_restore_roundtrip(self):
        wl = pincheck.workload()
        machine = Machine(wl.build(), stdin=wl.bad_input)
        baseline = machine.run()
        machine2 = Machine(wl.build(), stdin=wl.bad_input)
        state = machine2.snapshot()
        machine2.memory.journal_begin()
        first = machine2.run()
        machine2.memory.journal_rollback()
        machine2.restore(state)
        second = machine2.run()
        assert first.behavior() == baseline.behavior() == second.behavior()

    def test_unknown_syscall_is_enosys(self):
        from repro.asm import assemble
        source = """
        .text
        .global _start
        _start:
            mov rax, 9999
            syscall
            mov rdi, 0
            cmp rax, -38
            jne bad
            mov rdi, 5
        bad:
            mov rax, 60
            syscall
        """
        result = run_executable(assemble(source))
        assert result.exit_code == 5

    def test_write_to_text_crashes(self):
        from repro.asm import assemble
        source = """
        .text
        .global _start
        _start:
            lea rax, [rel _start]
            mov qword ptr [rax], 0
            mov rax, 60
            syscall
        """
        result = run_executable(assemble(source))
        assert result.reason == "crash"
        assert "write" in result.crash_detail

    def test_jump_to_unmapped_crashes(self):
        from repro.asm import assemble
        source = """
        .text
        .global _start
        _start:
            mov rax, 0x10
            jmp rax
        """
        result = run_executable(assemble(source))
        assert result.reason == "crash"


class TestLifetime:
    def test_machine_with_compiled_blocks_frees_without_gc(self):
        # the memory's exec-write hook holds its machine weakly, so a
        # machine, its trace compiler and the compiled blocks are no
        # reference cycle: dropping the last reference frees them
        import gc
        import weakref

        from repro.emu.jit import TraceCompiler

        wl = bootloader.workload()
        machine = Machine(wl.build(), stdin=wl.bad_input)
        TraceCompiler().attach(machine)
        gc.disable()
        try:
            result = machine.run()
            assert result.reason == "exit"
            assert machine.jit.compiled_steps > 0
            refs = [weakref.ref(machine), weakref.ref(machine.jit)]
            del machine
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_exec_write_hook_outlives_its_machine(self):
        # a memory kept past its machine ignores exec writes
        from repro.asm import assemble

        machine = Machine(assemble(".text\n.global _start\n_start:\n"
                                   "    mov eax, 60\n    syscall\n"))
        memory = machine.memory
        address = machine.image.entry
        del machine
        memory.poke(address, b"\x90")
        assert memory.peek(address, 1) == b"\x90"
