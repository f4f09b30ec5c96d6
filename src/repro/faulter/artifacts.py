"""Content-addressed on-disk artifact store for campaign derivations.

Every campaign re-derives the same deterministic products before the
first fault executes: the recorded bad-input trace, the traceflow
flag replay, the equivalence-reduction proofs, and the JIT'd
superblock sources.  All of them are
pure functions of (target bytes, campaign
input, engine-config slice), so they are cacheable by content digest —
ARMORY's observation that exhaustive fault simulation only scales when
per-experiment setup cost is amortized.

Design:

* **Keys** are SHA-256 digests over length-prefixed canonical parts
  (kind tag, code digest, image digest, inputs, knobs).  Any change
  to the binary, the input, a relevant knob or the ``repro`` sources
  that derive the payload lands in a different key — invalidation is
  structural, never time-based.
* **Payloads** are pickled under a magic header plus a SHA-256 body
  digest.  :meth:`ArtifactStore.load` re-hashes on read, so a
  truncated, corrupted, or stale file is indistinguishable from a
  miss: the caller silently re-derives (never crashes, never returns
  a wrong payload).
* **Writes** are atomic: temp file in the destination directory, then
  ``os.replace``.  Concurrent writers (pool workers racing on the same
  key) last-write-win with identical bytes; readers never observe a
  partial file.  I/O errors on save are swallowed — a full disk slows
  campaigns down, it does not fail them.
* A small in-memory write-through memo fronts the disk (bounded at
  :data:`MEMO_ENTRIES`), so a persistent worker re-loading the same
  product across partitions skips even the unpickle.

The store is *mechanism only*: key derivation helpers live here, the
derivation closures stay with their owners in ``engine.py``.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# file header: magic + body sha256; anything shorter is corrupt
_MAGIC = b"r2rart\x01\x00"
_DIGEST_SIZE = hashlib.sha256().digest_size

# write-through memo bound (entries, not bytes; payloads are small:
# traces, flag replays, reduction proofs and superblock sources)
MEMO_ENTRIES = 8


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/r2r/artifacts`` (or ``~/.cache/r2r/...``)."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "r2r" / "artifacts"


def digest_key(*parts) -> str:
    """SHA-256 over length-prefixed canonical encodings of ``parts``.

    ``bytes`` parts hash as-is; everything else hashes its ``repr``
    (ints, floats, ``None``, strings — all the knob types that feed a
    key).  Length prefixes keep adjacent parts from aliasing.
    """
    h = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else repr(part).encode()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


@dataclass
class ArtifactStats:
    """Hit/miss/derive accounting, merged across processes.

    ``derive_seconds`` is wall time spent inside
    :meth:`ArtifactStore.load_or_derive` builders — the re-derivation
    cost the cache exists to amortize.
    """

    hits: int = 0
    misses: int = 0
    saves: int = 0
    derive_seconds: float = 0.0

    def snapshot(self) -> tuple:
        return (self.hits, self.misses, self.saves, self.derive_seconds)

    def delta(self, since: tuple) -> dict:
        return {
            "hits": self.hits - since[0],
            "misses": self.misses - since[1],
            "saves": self.saves - since[2],
            "derive_seconds": round(self.derive_seconds - since[3], 6),
        }

    def merge(self, counters: dict) -> None:
        self.hits += counters.get("hits", 0)
        self.misses += counters.get("misses", 0)
        self.saves += counters.get("saves", 0)
        self.derive_seconds += counters.get("derive_seconds", 0.0)


class ArtifactStore:
    """Content-addressed artifact cache rooted at one directory."""

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = Path(root) if root else default_cache_dir()
        self.stats = ArtifactStats()
        self._memo: dict[tuple[str, str], object] = {}

    def __repr__(self):
        return f"ArtifactStore({str(self.root)!r})"

    def __reduce__(self):
        # a pickled store (in a fleet job) is its root: each process
        # keeps its own counters and memo
        return ArtifactStore, (str(self.root),)

    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / f"{key}.art"

    # -- read / write --------------------------------------------------

    def load(self, kind: str, key: str,
             validate: Optional[Callable] = None):
        """The payload for ``(kind, key)``, or ``None``.

        Any failure — missing file, short header, body digest
        mismatch (truncation, corruption, a stale format), unpickle
        error, or a ``validate`` rejection — counts as a miss and
        returns ``None``; the caller re-derives.
        """
        memo_key = (kind, key)
        payload = self._memo.get(memo_key)
        if payload is None:
            payload = self._read(self._path(kind, key))
        if payload is not None and (validate is None
                                    or self._check(validate, payload)):
            self._remember(memo_key, payload)
            self.stats.hits += 1
            return payload
        self.stats.misses += 1
        return None

    def reload(self, kind: str, key: str,
               validate: Optional[Callable] = None):
        """The payload saved on disk for ``(kind, key)``, or ``None``.

        Unlike :meth:`load` it reads the file afresh, since another
        process may have saved since, and counts neither a hit nor a
        miss: it serves a writer merging into what is stored.  It
        forgets the in-process copy first, so the caller can hold the
        fresh payload instead of both.
        """
        self._memo.pop((kind, key), None)
        payload = self._read(self._path(kind, key))
        if payload is None or validate is None:
            return payload
        return payload if self._check(validate, payload) else None

    @staticmethod
    def _check(validate: Callable, payload) -> bool:
        try:
            return bool(validate(payload))
        except Exception:
            return False

    @staticmethod
    def _read(path: Path):
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        header = len(_MAGIC) + _DIGEST_SIZE
        if len(raw) < header or not raw.startswith(_MAGIC):
            return None
        body = raw[header:]
        if hashlib.sha256(body).digest() != raw[len(_MAGIC):header]:
            return None
        try:
            return pickle.loads(body)
        except Exception:
            return None

    def save(self, kind: str, key: str, payload) -> bool:
        """Atomically persist ``payload``; False on any I/O failure."""
        try:
            body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        blob = _MAGIC + hashlib.sha256(body).digest() + body
        path = self._path(kind, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent,
                                       prefix=f".{key[:16]}.")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        self._remember((kind, key), payload)
        self.stats.saves += 1
        return True

    def load_or_derive(self, kind: str, key: str, builder: Callable,
                       validate: Optional[Callable] = None):
        """Cached payload, or ``builder()`` (timed, then persisted)."""
        payload = self.load(kind, key, validate=validate)
        if payload is not None:
            return payload
        started = time.perf_counter()
        payload = builder()
        self.stats.derive_seconds += time.perf_counter() - started
        self.save(kind, key, payload)
        return payload

    def _remember(self, memo_key: tuple, payload) -> None:
        # bounded write-through memo (FIFO eviction is plenty: a
        # campaign touches a handful of keys, all at once)
        if memo_key not in self._memo and len(self._memo) >= MEMO_ENTRIES:
            self._memo.pop(next(iter(self._memo)))
        self._memo[memo_key] = payload

    # -- maintenance ---------------------------------------------------

    def info(self) -> dict:
        """Per-kind entry/byte census of the on-disk store."""
        kinds: dict[str, dict] = {}
        total_entries = 0
        total_bytes = 0
        try:
            kind_dirs = sorted(p for p in self.root.iterdir()
                               if p.is_dir())
        except OSError:
            kind_dirs = []
        for kind_dir in kind_dirs:
            entries = 0
            size = 0
            try:
                for path in kind_dir.iterdir():
                    if path.suffix != ".art":
                        continue
                    entries += 1
                    try:
                        size += path.stat().st_size
                    except OSError:
                        pass
            except OSError:
                pass
            kinds[kind_dir.name] = {"entries": entries, "bytes": size}
            total_entries += entries
            total_bytes += size
        return {
            "root": str(self.root),
            "entries": total_entries,
            "bytes": total_bytes,
            "kinds": kinds,
        }

    def clear(self) -> int:
        """Delete every artifact file; returns the number removed."""
        removed = 0
        self._memo.clear()
        try:
            kind_dirs = [p for p in self.root.iterdir() if p.is_dir()]
        except OSError:
            return 0
        for kind_dir in kind_dirs:
            try:
                paths = list(kind_dir.iterdir())
            except OSError:
                continue
            for path in paths:
                if path.suffix != ".art":
                    continue
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            try:
                kind_dir.rmdir()
            except OSError:
                pass
        return removed


# -- key derivation (the content-addressing scheme) ---------------------
#
# Every key starts with (kind, code digest, image digest); the tail is
# the minimal knob slice the product depends on.  Model identity is
# deliberately absent from trace/flags/jit keys — those products
# are model-independent, so campaigns across models share them.


@functools.cache
def code_digest() -> str:
    """SHA-256 over the ``repro`` package's sources, once per process.

    Lowered block sources and reduction proofs are products of the
    code as much as of the target, so a store written by other code
    (another lowering, another proof) must read as misses.
    """
    package = Path(__file__).resolve().parent.parent
    return digest_key(*(
        part
        for path in sorted(package.rglob("*.py"))
        for part in (path.relative_to(package).as_posix(),
                     path.read_bytes())
    ))


def trace_key(image_digest: str, bad_input: bytes,
              max_steps: int) -> str:
    """The recorded bad-input trace."""
    return digest_key(b"trace", code_digest(), image_digest,
                      bad_input, max_steps)


def flags_key(image_digest: str, bad_input: bytes,
              trace_length: int) -> str:
    """The traceflow flag replay (pre-step ZF/CF/SF per trace step)."""
    return digest_key(b"flags", code_digest(), image_digest,
                      bad_input, trace_length)


def jit_key(image_digest: str) -> str:
    """Serialized superblock sources (depend on code bytes only)."""
    return digest_key(b"jit", code_digest(), image_digest)


def facts_key(image_digest: str, bad_input: bytes,
              trace_length: int, model_name: str) -> str:
    """Equivalence-reduction proofs (one prune verdict per variant).

    Verdicts come from the *model's* reduction hooks, so the key is
    model-scoped — ``skip`` proofs can never answer for ``bitflip``.
    """
    return digest_key(b"facts", code_digest(), image_digest,
                      bad_input, trace_length, model_name)


def image_digest(elf_bytes: bytes) -> str:
    """Canonical content digest of a target image."""
    return hashlib.sha256(elf_bytes).hexdigest()
