"""The journal's undo loop against a plain-dict reference.

Seeded random writes — single-page, page-spanning, onto an executable
page, guest stores and permission-blind pokes — under
``journal_begin`` and nested marks, undone by ``journal_rollback`` or
``journal_rollback_to``.  After every step the memory bytes and
``journal_changes()`` must equal the reference's, and each undo must
call the exec-write hook exactly for the restored writes that touch an
executable page, newest first.
"""

import random

import pytest

from repro.emu import Machine
from repro.emu.jit import TraceCompiler
from repro.emu.memory import PAGE_SIZE, Memory
from repro.workloads import corpus

BASE = 0x40000
# page flags: two data pages, one executable page, one more data page
FLAGS = ("rw", "rw", "rwx", "rw")
SIZE = PAGE_SIZE * len(FLAGS)
EXEC_PAGE = BASE + 2 * PAGE_SIZE


def _touches_exec(address, size):
    return address < EXEC_PAGE + PAGE_SIZE and EXEC_PAGE < address + size


class Reference:
    """Every byte in a dict, plus the writes since ``journal_begin``."""

    def __init__(self, rng):
        self.bytes = {BASE + i: rng.randrange(256) for i in range(SIZE)}
        self.begin = None
        self.writes = []

    def write(self, address, data):
        old = bytes(self.bytes[address + i] for i in range(len(data)))
        if self.begin is not None:
            self.writes.append((address, len(data), old))
        for i, value in enumerate(data):
            self.bytes[address + i] = value

    def undo_to(self, floor):
        """Undo the writes past ``floor``; the expected hook calls."""
        hooked = []
        while len(self.writes) > floor:
            address, size, old = self.writes.pop()
            for i, value in enumerate(old):
                self.bytes[address + i] = value
            if _touches_exec(address, size):
                hooked.append((address, size))
        return hooked

    def changes(self):
        return tuple((address, value)
                     for address, value in sorted(self.bytes.items())
                     if value != self.begin[address])


def _memory(reference):
    memory = Memory()
    memory.load(BASE, bytes(reference.bytes[BASE + i]
                            for i in range(SIZE)))
    for page, flags in enumerate(FLAGS):
        memory.map(BASE + page * PAGE_SIZE, PAGE_SIZE, flags)
    hooked = []
    memory.exec_write_hook = lambda address, size: hooked.append(
        (address, size))
    return memory, hooked


def _random_write(rng):
    shape = rng.choice(("page", "span", "exec"))
    size = rng.randrange(1, 17)
    if shape == "span":
        boundary = BASE + PAGE_SIZE * rng.randrange(1, len(FLAGS))
        address = boundary - rng.randrange(1, size + 1)
        if address + size <= boundary:
            size = boundary - address + 1
    elif shape == "exec":
        address = EXEC_PAGE + rng.randrange(PAGE_SIZE - size + 1)
    else:
        page = BASE + PAGE_SIZE * rng.randrange(len(FLAGS))
        address = page + rng.randrange(PAGE_SIZE - size + 1)
    return address, bytes(rng.randrange(256) for _ in range(size))


def _check(memory, reference):
    assert memory.read(BASE, SIZE) == bytes(
        reference.bytes[BASE + i] for i in range(SIZE))
    assert memory.journal_changes() == reference.changes()


@pytest.mark.parametrize("seed", range(12))
def test_undo_matches_the_reference(seed):
    rng = random.Random(seed)
    reference = Reference(rng)
    memory, hooked = _memory(reference)
    for _ in range(6):
        memory.journal_begin()
        reference.begin = dict(reference.bytes)
        reference.writes = []
        marks = []
        for _ in range(rng.randrange(1, 40)):
            action = rng.random()
            if action < 0.15:
                marks.append((memory.journal_mark(),
                              len(reference.writes)))
            elif action < 0.3 and marks:
                mark, floor = marks.pop()
                hooked.clear()
                memory.journal_rollback_to(mark)
                assert hooked == reference.undo_to(floor)
            else:
                address, data = _random_write(rng)
                if rng.random() < 0.2:
                    memory.poke(address, data)
                else:
                    memory.write(address, data)
                reference.write(address, data)
            _check(memory, reference)
        hooked.clear()
        memory.journal_rollback()
        assert hooked == reference.undo_to(0)
        reference.begin = None
        assert memory.read(BASE, SIZE) == bytes(
            reference.bytes[BASE + i] for i in range(SIZE))
        assert memory.journal_changes() == ()


def test_owner_mark_undoes_everything_and_stops():
    """A mark taken with no journal open owns one: rolling back to it
    undoes every write and stops journaling."""
    rng = random.Random(7)
    reference = Reference(rng)
    memory, hooked = _memory(reference)
    mark = memory.journal_mark()
    assert mark is None
    reference.begin = dict(reference.bytes)
    for _ in range(20):
        address, data = _random_write(rng)
        memory.write(address, data)
        reference.write(address, data)
    _check(memory, reference)
    hooked.clear()
    memory.journal_rollback_to(mark)
    assert hooked == reference.undo_to(0)
    assert memory._journal is None
    assert memory.read(BASE, SIZE) == bytes(
        reference.bytes[BASE + i] for i in range(SIZE))


def test_rolled_back_self_modifying_store_evicts():
    """A guest store into code, rolled back, evicts the decodes and
    compiled blocks made of the stored bytes, so the restored code
    runs again."""
    image = corpus.build("exit42")
    machine = Machine(image)
    entry = machine.cpu.rip
    machine.memory.map(entry & ~0xFFF, 0x1000, "rwx")
    compiler = TraceCompiler().attach(machine)
    target = entry + machine.fetch_decode(entry).length
    state = machine.snapshot()
    machine.memory.journal_begin()
    machine.memory.write(target + 3, b"\x2b")  # mov rdi, 42 -> 43
    assert machine.run().exit_code == 43
    assert compiler.compiled_blocks > 0
    assert machine.fetch_decode(target).operands[1].value == 43
    machine.memory.journal_rollback()
    machine.restore(state)
    assert target not in machine._decode_cache
    assert not any(block is not None and block.start <= target + 3
                   < block.limit for block in compiler._blocks.values())
    assert machine.run().exit_code == 42
