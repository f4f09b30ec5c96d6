"""Paged guest memory with permissions and an undo journal."""

from __future__ import annotations

from repro.errors import MemoryFault

PAGE_SIZE = 0x1000
PAGE_MASK = PAGE_SIZE - 1


class Memory:
    """Sparse paged memory.

    Permissions are tracked per page as a subset of ``"rwx"``.  An
    optional *journal* records original byte values before each write so
    a fault campaign can roll the memory back to a snapshot point
    without copying the whole address space (the paper's ``fork()``
    substitute).
    """

    def __init__(self):
        self._pages: dict[int, bytearray] = {}
        self._perms: dict[int, str] = {}
        self._journal: list[tuple[int, int, bytes]] | None = None
        # Called with (address, size) after any write that touches an
        # executable page — including journal rollbacks restoring such
        # a write — so the owner can invalidate stale decodes.
        self.exec_write_hook = None

    # -- mapping -----------------------------------------------------------

    def map(self, address: int, size: int, flags: str = "rw"):
        """Map pages covering ``[address, address+size)``."""
        if size <= 0:
            return
        first = address >> 12
        last = (address + size - 1) >> 12
        for page in range(first, last + 1):
            if page not in self._pages:
                self._pages[page] = bytearray(PAGE_SIZE)
            self._perms[page] = flags

    def load(self, address: int, data: bytes, flags: str = "rw"):
        """Map and initialize a region (used by the ELF loader)."""
        self.map(address, max(len(data), 1), flags)
        self._write_raw(address, data)

    # -- access -----------------------------------------------------------

    def read(self, address: int, size: int) -> bytes:
        return self._access(address, size, "r")

    def fetch(self, address: int, size: int) -> bytes:
        """Instruction fetch: requires execute permission on first byte."""
        page = address >> 12
        perms = self._perms.get(page)
        if perms is None or "x" not in perms:
            raise MemoryFault(address, size, "fetch")
        offset = address & PAGE_MASK
        if offset + size <= PAGE_SIZE:
            return bytes(self._pages[page][offset:offset + size])
        # a fetch may run off the mapped end: it returns only the
        # mapped prefix, so a window cut short decodes short or fails
        # to decode (an invalid opcode, as at the end of real memory)
        try:
            return self._access(address, size, None)
        except MemoryFault:
            chunk = bytearray()
            for i in range(size):
                try:
                    chunk += self._access(address + i, 1, None)
                except MemoryFault:
                    break
            return bytes(chunk)

    def read_u64(self, address: int) -> int:
        return int.from_bytes(self.read(address, 8), "little")

    def write(self, address: int, data: bytes):
        size = len(data)
        if not size:
            return
        page = address >> 12
        offset = address & PAGE_MASK
        if offset + size <= PAGE_SIZE:
            # single-page fast path: one permission lookup, inline
            # journal capture and store (the write path is the hottest
            # memory operation in compiled execution)
            perms = self._perms.get(page)
            if perms is None or "w" not in perms:
                raise MemoryFault(address, size, "write")
            buf = self._pages[page]
            if self._journal is not None:
                self._journal.append(
                    (address, size, bytes(buf[offset:offset + size])))
            buf[offset:offset + size] = data
            if "x" in perms:
                hook = self.exec_write_hook
                if hook is not None:
                    hook(address, size)
            return
        first = page
        last = (address + size - 1) >> 12
        for page in range(first, last + 1):
            perms = self._perms.get(page)
            if perms is None or "w" not in perms:
                raise MemoryFault(address, size, "write")
        if self._journal is not None:
            self._journal.append(
                (address, size, self._read_raw(address, size)))
        self._write_raw(address, data)
        self._notify_exec_write(address, size)

    def write_u64(self, address: int, value: int):
        self.write(address, (value % (1 << 64)).to_bytes(8, "little"))

    # -- fault injection (permission-blind, journaled) -----------------------

    def peek(self, address: int, size: int) -> bytes:
        """Read ``size`` bytes ignoring page permissions.

        Fault injectors observe cells the guest may not be allowed to
        read; unmapped addresses still raise :class:`MemoryFault`.
        """
        return self._access(address, size, None)

    def poke(self, address: int, data: bytes):
        """Write ``data`` ignoring page permissions, but journaled.

        The injection path for state faults: a physical upset does not
        consult the MMU, yet the campaign's snapshot rollback must
        still be able to undo it, so the write is recorded in the
        journal exactly like a guest write.
        """
        if not data:
            return
        if self._journal is not None:
            self._journal.append(
                (address, len(data), self._read_raw(address, len(data))))
        self._write_raw(address, data)
        self._notify_exec_write(address, len(data))

    # -- journal ------------------------------------------------------------

    def journal_begin(self):
        """Start recording original bytes for every subsequent write."""
        self._journal = []

    def journal_rollback(self):
        """Undo all writes since :meth:`journal_begin` (LIFO) and stop."""
        if self._journal:
            self._undo(0)
        self._journal = None

    def journal_changes(self) -> tuple:
        """``(address, byte)`` for each journaled byte whose value now
        differs from the one it had at :meth:`journal_begin`, in
        address order; a store of the same value is no change."""
        journal = self._journal
        if not journal:
            return ()
        if len(journal) == 1:
            address, size, before = journal[0]
            now = self._read_raw(address, size)
            if now == before:
                return ()
            return tuple((address + i, new)
                         for i, (old, new) in enumerate(zip(before, now))
                         if old != new)
        original: dict[int, int] = {}
        for address, size, before in journal:
            for i in range(size):
                original.setdefault(address + i, before[i])
        pages = self._pages
        changes = []
        for address in sorted(original):
            new = pages[address >> 12][address & PAGE_MASK]
            if new != original[address]:
                changes.append((address, new))
        return tuple(changes)

    def journal_discard(self):
        """Stop journaling, keeping all writes."""
        self._journal = None

    # Nested marks: the JIT brackets each compiled block with a mark so
    # it can undo a half-executed block without disturbing an enclosing
    # per-fault journal (the engine's journal_begin/rollback pair).

    def journal_mark(self):
        """Return an opaque mark for the current journal position.

        When no journal is active one is started and the mark denotes
        "owner": releasing or rolling back to it stops journaling again.
        """
        if self._journal is None:
            self._journal = []
            return None
        return len(self._journal)

    def journal_rollback_to(self, mark):
        """Undo writes recorded after ``mark`` (LIFO)."""
        if self._journal is None:
            return
        self._undo(0 if mark is None else mark)
        if mark is None:
            self._journal = None

    def journal_release(self, mark):
        """Keep writes recorded after ``mark``; stop journaling if owner."""
        if mark is None:
            self._journal = None

    def _undo(self, floor: int):
        """Restore the journal's entries past ``floor``, newest first,
        and drop them.

        A single-page entry (nearly all of them) is one slice
        assignment, and only an executable page pays the exec-write
        hook, as in :meth:`write`'s fast path.
        """
        journal = self._journal
        pages = self._pages
        perms = self._perms
        hook = self.exec_write_hook
        for index in range(len(journal) - 1, floor - 1, -1):
            address, size, original = journal[index]
            page = address >> 12
            offset = address & PAGE_MASK
            if offset + size <= PAGE_SIZE:
                pages[page][offset:offset + size] = original
                if hook is not None and "x" in perms[page]:
                    hook(address, size)
            else:
                self._write_raw(address, original)
                self._notify_exec_write(address, size)
        del journal[floor:]

    # -- internals -----------------------------------------------------------

    def _notify_exec_write(self, address: int, size: int):
        hook = self.exec_write_hook
        if hook is None:
            return
        first = address >> 12
        last = (address + size - 1) >> 12
        for page in range(first, last + 1):
            if "x" in self._perms.get(page, ""):
                hook(address, size)
                return

    def _access(self, address: int, size: int, perm: str | None) -> bytes:
        page = address >> 12
        offset = address & PAGE_MASK
        if offset + size <= PAGE_SIZE:
            data = self._pages.get(page)
            if data is None or (perm and perm not in self._perms[page]):
                raise MemoryFault(address, size, perm or "fetch")
            return bytes(data[offset:offset + size])
        return b"".join(
            self._access(address + done, min(size - done,
                                             PAGE_SIZE - ((address + done)
                                                          & PAGE_MASK)),
                         perm)
            for done in _chunks(address, size))

    def _read_raw(self, address: int, size: int) -> bytes:
        return self._access(address, size, None)

    def _write_raw(self, address: int, data: bytes):
        pos = 0
        while pos < len(data):
            target = address + pos
            page = target >> 12
            offset = target & PAGE_MASK
            room = PAGE_SIZE - offset
            chunk = data[pos:pos + room]
            buf = self._pages.get(page)
            if buf is None:
                raise MemoryFault(target, len(chunk), "write")
            buf[offset:offset + len(chunk)] = chunk
            pos += len(chunk)


def _chunks(address: int, size: int):
    """Start offsets for page-spanning accesses."""
    done = 0
    while done < size:
        yield done
        done += min(size - done, PAGE_SIZE - ((address + done) & PAGE_MASK))
