"""Fault spaces: declarative enumerators over (trace offset x variant).

A :class:`FaultSpace` is a pure-data *spec* of which fault points a
campaign visits — it holds no machine state, so it pickles cleanly
across process boundaries.  Binding a space to one concrete bad-input
trace happens through a :class:`SpaceContext`, which lazily decodes
instructions and memoizes the per-offset fault variants.  Spaces are
model-agnostic: variants are whatever the bound fault model expresses
at an offset (encoding or state family alike), including zero — the
cumulative-count machinery that powers flat-index location and
partition direct-jump simply skips variant-less offsets.

Enumerators:

* :class:`ExhaustiveSpace` — every variant at every trace offset (the
  paper's default single-fault campaign),
* :class:`WindowedSpace` — exhaustive over a subset of trace offsets
  (the long-trace escape hatch),
* :class:`KFaultProductSpace` — sampled k-tuples of distinct offsets
  per run (the multi-fault extension; k=2 is the pair campaign),
* :class:`ProductSpace` — the *exhaustive* k-fault product over a
  bounded offset window (the dense pair campaign),
* :class:`SpacePartition` — a contiguous enumeration-order window of
  any base space, re-enumerated locally (what a partition ships to a
  worker process: a (space spec, window) pair, never a point dump).

Each point carries its enumeration ``order`` so a backend may execute
points in whatever order is fastest (e.g. sorted by trace offset for
the master walk) while the report is still assembled in enumeration
order — making reports bit-identical across backends.

Every space is *streamable*: ``enumerate`` yields lazily,
``enumerate_window`` yields only the ``[start, stop)`` slice of the
enumeration sequence (re-enumerating locally, jumping directly where
the space's structure allows it), and ``count`` sizes the space
without materializing points.  ``partition`` composes these into
declarative, picklable sub-specs.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

# Cap policies: how a faulted run's step budget is accounted.
#   SUFFIX_CAP — the continuation after the fault point gets the full
#       cap (the exhaustive master-walk convention),
#   TOTAL_CAP  — prefix steps count against the cap, as if the run had
#       started from step 0 (the fresh-run convention of the
#       multi-fault spaces).
SUFFIX_CAP = "suffix"
TOTAL_CAP = "total"


@dataclass(frozen=True)
class FaultPoint:
    """One campaign run: ``k`` faults at dynamic trace offsets.

    ``steps`` are strictly increasing dynamic instruction indices along
    the bad-input trace; ``details[i]`` is the fault-model parameter
    applied at ``steps[i]``.
    """

    order: int
    steps: tuple[int, ...]
    details: tuple[tuple, ...]

    @property
    def first_step(self) -> int:
        return self.steps[0]

    @property
    def arity(self) -> int:
        return len(self.steps)


class SpaceContext:
    """Binds fault-space specs to one concrete bad-input trace."""

    def __init__(
        self,
        model,
        trace: Sequence[int],
        variants_at: Callable[[int], Sequence[tuple]],
        mnemonic_at: Callable[[int], str] | None = None,
        facts_factory: Callable[[], object] | None = None,
    ):
        self.model = model
        self.trace = list(trace)
        self._variants_at = variants_at
        self._mnemonic_at = mnemonic_at
        self._facts_factory = facts_factory
        self._facts: object | None = None
        self._variant_cache: dict[int, list[tuple]] = {}
        self._cumulative: list[int] | None = None

    @property
    def facts(self):
        """Lazily-built :class:`~repro.analysis.traceflow.TraceFacts`
        over this trace (``None`` when the binding supplies none)."""
        if self._facts is None and self._facts_factory is not None:
            self._facts = self._facts_factory()
        return self._facts

    def variants(self, step: int) -> list[tuple]:
        """Memoized fault variants injectable at trace offset ``step``."""
        cached = self._variant_cache.get(step)
        if cached is None:
            cached = list(self._variants_at(step))
            self._variant_cache[step] = cached
        return cached

    def mnemonic(self, step: int) -> str:
        if self._mnemonic_at is None:
            return "?"
        return self._mnemonic_at(step)

    def _cumulative_counts(self) -> list[int]:
        if self._cumulative is None:
            counts, total = [], 0
            for step in range(len(self.trace)):
                total += len(self.variants(step))
                counts.append(total)
            self._cumulative = counts
        return self._cumulative

    def population(self) -> int:
        """Total number of single-fault points (offset x variant)."""
        cumulative = self._cumulative_counts()
        return cumulative[-1] if cumulative else 0

    def locate(self, flat_index: int) -> tuple[int, int]:
        """Map a flat population index to (trace offset, variant index)."""
        cumulative = self._cumulative_counts()
        step = bisect.bisect_right(cumulative, flat_index)
        before = cumulative[step - 1] if step else 0
        return step, flat_index - before


class FaultSpace:
    """Base class: a declarative, picklable fault-space spec."""

    cap_policy = SUFFIX_CAP

    def enumerate(self, ctx: SpaceContext) -> Iterator[FaultPoint]:
        raise NotImplementedError

    def count(self, ctx: SpaceContext) -> int:
        """Number of points, without materializing them.

        The default streams the enumeration and counts; spaces whose
        size is closed-form override it.
        """
        return sum(1 for _ in self.enumerate(ctx))

    def enumerate_window(
        self, ctx: SpaceContext, start: int, stop: int
    ) -> Iterator[FaultPoint]:
        """Yield the ``[start, stop)`` slice of the enumeration.

        The default filters the full (lazy) enumeration; spaces whose
        structure supports random access override it to jump directly.
        Memory stays O(1): nothing outside the slice is retained.
        """
        return itertools.islice(self.enumerate(ctx), start, stop)

    def partition(
        self, ctx: SpaceContext, parts: int, max_points: int | None = None
    ) -> list[FaultSpace]:
        """Split into ``parts`` declarative sub-specs, or more.

        Each partition is a contiguous window of the enumeration order
        — which both balances variant-heavy offsets across workers and
        keeps each partition's report fragment in enumeration order —
        described as a ``(base space, start, stop)`` triple that
        re-enumerates locally.  There are ``parts`` of them (fewer for
        a smaller space), or more where ``max_points`` demands it; the
        space is counted once, here.  Pickled size is O(1) in the
        number of points, so shipping a partition to a worker process
        costs the same for a hundred points as for a million.
        """
        return _windows(self, 0, self.count(ctx), parts, max_points)

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class ExhaustiveSpace(FaultSpace):
    """Every fault variant at every trace offset."""

    def enumerate(self, ctx: SpaceContext) -> Iterator[FaultPoint]:
        order = 0
        for step in range(len(ctx.trace)):
            for detail in ctx.variants(step):
                yield FaultPoint(order, (step,), (detail,))
                order += 1

    def count(self, ctx: SpaceContext) -> int:
        return ctx.population()

    def enumerate_window(
        self, ctx: SpaceContext, start: int, stop: int
    ) -> Iterator[FaultPoint]:
        # enumeration order == flat population index, so the window
        # start is located directly instead of skipping toward it
        stop = min(stop, ctx.population())
        if start >= stop:
            return
        step, variant_index = ctx.locate(start)
        order = start
        while order < stop:
            variants = ctx.variants(step)
            while variant_index < len(variants) and order < stop:
                yield FaultPoint(order, (step,), (variants[variant_index],))
                order += 1
                variant_index += 1
            variant_index = 0
            step += 1

    def describe(self) -> str:
        return "exhaustive"


@dataclass(frozen=True)
class WindowedSpace(FaultSpace):
    """Exhaustive over a subset of trace offsets (ascending)."""

    indices: tuple[int, ...]

    def _valid(self, ctx: SpaceContext) -> list[int]:
        return sorted({i for i in self.indices if 0 <= i < len(ctx.trace)})

    def enumerate(self, ctx: SpaceContext) -> Iterator[FaultPoint]:
        order = 0
        for step in self._valid(ctx):
            for detail in ctx.variants(step):
                yield FaultPoint(order, (step,), (detail,))
                order += 1

    def count(self, ctx: SpaceContext) -> int:
        return sum(len(ctx.variants(step)) for step in self._valid(ctx))

    def describe(self) -> str:
        return f"windowed[{len(self.indices)}]"


@dataclass(frozen=True)
class KFaultProductSpace(FaultSpace):
    """Sampled k-tuples of faults at distinct trace offsets.

    Exhaustive k-fault products are O(population^k); following the
    multi-fault methodology we sample deterministic random tuples.
    Draw k offsets (rejecting tuples with repeats), sort them, then
    draw one variant per offset — for k=2 this is exactly the legacy
    pair-campaign RNG sequence, so reports stay bit-identical.

    Rejection sampling makes the point count data-dependent, so
    ``count`` and ``enumerate_window`` replay the RNG sequence from
    the seed — still O(1) memory, which is what partitioning needs.
    """

    k: int = 2
    samples: int = 200
    seed: int = 0
    cap_policy = TOTAL_CAP

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k_faults must be >= 1, got {self.k}")

    def enumerate(self, ctx: SpaceContext) -> Iterator[FaultPoint]:
        trace_length = len(ctx.trace)
        if trace_length < self.k:
            return
        rng = random.Random(self.seed)
        order = 0
        for _ in range(self.samples):
            draws = [rng.randrange(trace_length) for _ in range(self.k)]
            if len(set(draws)) < self.k:
                continue
            draws.sort()
            if any(not ctx.variants(step) for step in draws):
                # an offset with no injectable faults (e.g. the
                # undecodable tail of a crashing bad-input run);
                # reject before consuming any variant-choice RNG
                continue
            details = tuple(rng.choice(ctx.variants(step)) for step in draws)
            yield FaultPoint(order, tuple(draws), details)
            order += 1

    def describe(self) -> str:
        return f"k-fault[k={self.k}, n={self.samples}, seed={self.seed}]"


@dataclass(frozen=True)
class ProductSpace(FaultSpace):
    """Exhaustive k-fault combinations over a window of trace offsets.

    Every size-``k`` combination of the (valid) window offsets, with
    every variant combination per offset tuple.  The count is
    O(|window| choose k) times the variant fan-out, so this space is
    only practical over a bounded window; like the sampled k-fault
    space it uses the total-cap budget convention.
    """

    k: int = 2
    indices: tuple[int, ...] = ()
    cap_policy = TOTAL_CAP

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k_faults must be >= 1, got {self.k}")

    def _valid(self, ctx: SpaceContext) -> list[int]:
        return sorted(
            {
                step
                for step in self.indices
                if 0 <= step < len(ctx.trace) and ctx.variants(step)
            }
        )

    def enumerate(self, ctx: SpaceContext) -> Iterator[FaultPoint]:
        valid = self._valid(ctx)
        order = 0
        for combo in itertools.combinations(valid, self.k):
            pools = [ctx.variants(step) for step in combo]
            for details in itertools.product(*pools):
                yield FaultPoint(order, combo, details)
                order += 1

    def count(self, ctx: SpaceContext) -> int:
        valid = self._valid(ctx)
        total = 0
        for combo in itertools.combinations(valid, self.k):
            product = 1
            for step in combo:
                product *= len(ctx.variants(step))
            total += product
        return total

    def describe(self) -> str:
        return f"product[k={self.k}, w={len(self.indices)}]"


@dataclass(frozen=True)
class SpacePartition(FaultSpace):
    """A contiguous enumeration-order window of a base space.

    The declarative form of one worker's share: pickling it ships the
    base space spec plus two integers, and the worker re-enumerates
    its ``[start, stop)`` slice locally against its own context —
    inter-process traffic is O(1) per worker instead of O(points).
    """

    base: FaultSpace
    start: int
    stop: int

    @property
    def cap_policy(self) -> str:  # type: ignore[override]
        return self.base.cap_policy

    def enumerate(self, ctx: SpaceContext) -> Iterator[FaultPoint]:
        return self.base.enumerate_window(ctx, self.start, self.stop)

    def count(self, ctx: SpaceContext) -> int:
        return max(0, self.stop - self.start)

    def partition(
        self, ctx: SpaceContext, parts: int, max_points: int | None = None
    ) -> list[FaultSpace]:
        return _windows(self.base, self.start, self.stop, parts, max_points)

    def describe(self) -> str:
        return f"{self.base.describe()}[{self.start}:{self.stop}]"


def _windows(
    base: FaultSpace, start: int, stop: int, parts: int, max_points
) -> list[FaultSpace]:
    """Equal contiguous ``[start, stop)`` windows of ``base``'s
    enumeration: ``parts`` of them, or more so that none holds more
    than ``max_points`` points, but never more than there are points."""
    total = stop - start
    if total <= 0:
        return []
    if max_points is not None:
        parts = max(parts, (total + max_points - 1) // max_points)
    parts = max(1, min(parts, total))
    size = (total + parts - 1) // parts
    return [
        SpacePartition(base, lo, min(lo + size, stop))
        for lo in range(start, stop, size)
    ]
