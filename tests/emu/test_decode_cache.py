"""Decode-cache coherence under code mutation.

The satellite bugfix: a write landing in an executable page — an
injected memory fault or a self-modifying store — must evict the
overlapping cached decodes, and a journal rollback must re-evict what
it restores.
"""

from collections import OrderedDict

import pytest

from repro.asm import assemble
from repro.emu import Machine, run_executable
from repro.emu import effects
from repro.emu.effects import (
    EncodingBitFlipEffect, MemoryBitFlipEffect, decode_window)
from repro.errors import DecodingError
from repro.isa.insn import Mnemonic
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


class TestMutatedDecodeMemo:
    """Machine fetches and encoding faults decode through one bounded
    process-wide memo keyed by (address, whole fetch window)."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(effects, "_DECODED", OrderedDict())

    def test_fresh_machines_decode_each_window_once(self, monkeypatch):
        wl = pincheck.workload()
        image = wl.build()
        decoded = []
        original = effects.decode

        def counting(data, offset, address):
            decoded.append(address)
            return original(data, offset, address)

        monkeypatch.setattr(effects, "decode", counting)
        first = run_executable(image, stdin=wl.bad_input)
        assert decoded and len(set(decoded)) == len(decoded)
        count = len(decoded)
        again = run_executable(image, stdin=wl.bad_input)
        assert again.behavior() == first.behavior()
        assert len(decoded) == count

    @staticmethod
    def _push_rax_then(line):
        # bit 4 turns push rax (0x50) into a REX prefix, so the mutated
        # decode runs into the following instruction's bytes
        return assemble("\n".join([
            ".text", ".global _start", "_start:", "    push rax",
            f"    {line}", "    mov eax, 60", "    xor edi, edi",
            "    syscall"]))

    def _flipped_run(self, image):
        return Machine(image).run(
            fault_plan={0: EncodingBitFlipEffect(4)})

    @staticmethod
    def _windows(image):
        """The entry's pristine fetch window and its bit-4 flip."""
        window = Machine(image).memory.fetch(image.entry, 15)
        return window, bytes([window[0] ^ 0x10]) + window[1:]

    def test_undecodable_window_crashes_alike_when_memoized(self):
        # "40 48 01 d8": two stacked REX prefixes
        image = self._push_rax_then("add rax, rbx")
        pristine, flipped = self._windows(image)
        first = self._flipped_run(image)
        # the fetch decodes the pristine window, the fault the flip
        assert effects._DECODED[image.entry, pristine].mnemonic \
            is Mnemonic.PUSH
        assert isinstance(effects._DECODED[image.entry, flipped], str)
        repeat = self._flipped_run(image)
        assert first.reason == repeat.reason == "crash"
        assert first.crash_detail == repeat.crash_detail != ""

    def test_cached_error_is_raised_fresh(self):
        window = bytes.fromhex("4048") + bytes(13)
        errors = []
        for _ in range(2):
            with pytest.raises(DecodingError) as caught:
                decode_window(0x401000, window)
            errors.append(caught.value)
        assert errors[0] is not errors[1]
        assert str(errors[0]) == str(errors[1])

    def test_key_is_the_whole_window(self):
        # same address, same instruction bytes, different following
        # bytes: "40 90" decodes where "40 48" did not
        crashing = self._push_rax_then("add rax, rbx")
        decoding = self._push_rax_then("nop")
        self._flipped_run(crashing)
        result = self._flipped_run(decoding)
        assert result.reason != "crash"
        assert crashing.entry == decoding.entry
        (_, crash_window), (_, nop_window) = (
            self._windows(crashing), self._windows(decoding))
        assert isinstance(effects._DECODED[crashing.entry, crash_window],
                          str)
        assert effects._DECODED[decoding.entry, nop_window].length == 2

    def test_never_grows_past_its_capacity(self):
        capacity = effects.DECODE_CAPACITY
        for address in range(capacity + 16):
            decode_window(address, b"\x90" + bytes(14))
        assert len(effects._DECODED) == capacity
        # least recently used first: the oldest sixteen are gone
        assert (0, b"\x90" + bytes(14)) not in effects._DECODED
        assert (16, b"\x90" + bytes(14)) in effects._DECODED
