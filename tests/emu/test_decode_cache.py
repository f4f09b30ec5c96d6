"""Decode-cache coherence under code mutation.

The satellite bugfix: a write landing in an executable page — an
injected memory fault or a self-modifying store — must evict the
overlapping cached decodes, and a journal rollback must re-evict what
it restores.
"""

from repro.emu import Machine
from repro.emu.effects import MemoryBitFlipEffect
from repro.workloads import corpus, pincheck

EXIT42_IMM_OFFSET = 3  # mov rdi, 42 = 48 c7 c7 2a 00 00 00


def _machine():
    return Machine(corpus.build("exit42"))


def _mov_rdi_address(machine):
    """Address of the ``mov rdi, 42`` (second instruction)."""
    entry = machine.cpu.rip
    return entry + machine.fetch_decode(entry).length


class TestExecWriteEviction:
    def test_poke_into_code_evicts_stale_decode(self):
        machine = _machine()
        address = _mov_rdi_address(machine)
        cached = machine.fetch_decode(address)  # warm the cache
        assert cached.operands[1].value == 42
        machine.memory.poke(address + EXIT42_IMM_OFFSET, b"\x2b")
        result = machine.run()
        assert result.exit_code == 43  # stale decode would exit 42

    def test_unrelated_poke_keeps_cache(self):
        machine = _machine()
        address = _mov_rdi_address(machine)
        cached = machine.fetch_decode(address)
        machine.memory.poke(address + 16, b"\x90")
        assert machine._decode_cache[address] is cached

    def test_rollback_re_evicts_and_restores(self):
        machine = _machine()
        address = _mov_rdi_address(machine)
        machine.fetch_decode(address)
        machine.memory.journal_begin()
        machine.memory.poke(address + EXIT42_IMM_OFFSET, b"\x2b")
        assert machine.fetch_decode(address).operands[1].value == 43
        machine.memory.journal_rollback()
        # the corrupted decode cached after the poke must not survive
        assert machine.fetch_decode(address).operands[1].value == 42
        assert machine.run().exit_code == 42

    def test_data_writes_do_not_pay_the_eviction_cost(self):
        """Guest stores to non-executable pages never invoke the
        hook-side eviction (the common path stays allocation-free)."""
        wl = pincheck.workload()
        machine = Machine(wl.build(), stdin=wl.bad_input)
        evictions = []
        original = machine._on_exec_write
        machine.memory.exec_write_hook = \
            lambda a, s: (evictions.append(a), original(a, s))
        machine.run()
        assert evictions == []

    def test_clean_rollback_keeps_cache(self):
        """A faulted run rolled back (journal plus CPU/IO restore)
        keeps every decode when no write reached code."""
        machine = _machine()
        address = _mov_rdi_address(machine)
        cached = machine.fetch_decode(address)
        state = machine.snapshot()
        machine.memory.journal_begin()
        machine.run()
        machine.memory.journal_rollback()
        machine.restore(state)
        assert machine._decode_cache[address] is cached


class TestMemBitFlipOnCode:
    def test_code_targeting_mem_fault_executes_fresh_decode(self):
        """A mem-bitflip whose effective address lands in .text (e.g.
        RIP-relative data placed in code) goes through poke and hence
        the eviction hook — the faulted run executes the corrupted
        bytes, not the pre-fault decode."""
        machine = _machine()
        address = _mov_rdi_address(machine)
        machine.fetch_decode(address)
        # hand-build an effect equivalent: flip imm bit 0 -> 43
        machine.memory.journal_begin()
        machine.memory.poke(address + EXIT42_IMM_OFFSET, b"\x2b")
        faulted = machine.run(max_steps=16)
        assert faulted.exit_code == 43
        machine.memory.journal_rollback()

    def test_effect_is_noop_without_memory_operand(self):
        machine = _machine()
        insn = machine.fetch_decode(machine.cpu.rip)  # mov rax, 60
        before = machine.memory.peek(machine.cpu.rip, 8)
        MemoryBitFlipEffect(0, 0).mutate(machine, insn)
        assert machine.memory.peek(machine.cpu.rip, 8) == before
