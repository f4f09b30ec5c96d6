"""Small seeded fault spaces for tests and benches.

Both are :class:`WindowedSpace` subclasses, so the reduction plans
them like the production single-fault space a real campaign uses and
every backend streams them unchanged.
"""

import random
from dataclasses import dataclass

from repro.faulter.space import TOTAL_CAP, FaultPoint, WindowedSpace


@dataclass(frozen=True)
class DrawOrderWindow(WindowedSpace):
    """A :class:`WindowedSpace` that keeps its offsets in the order
    given instead of sorting them.

    A fleet partition is a contiguous window of enumeration order, so
    over ascending offsets the first partitions hold the faults with
    the longest suffixes.  Over offsets in seeded draw order every
    partition spans the trace and the fleet's jobs weigh about the
    same, which is what a fleet timing wants to compare.
    """

    def _valid(self, ctx):
        return list(dict.fromkeys(
            i for i in self.indices if 0 <= i < len(ctx.trace)))


@dataclass(frozen=True)
class SampledPoints(WindowedSpace):
    """A seeded uniform sample of ``points`` single-fault points.

    Draws without replacement from the flat (offset x variant)
    population of the whole trace (statistical FI, Leveugle et al.)
    and yields the points in draw order, so a small sample still
    spreads over the trace whatever the model's fan-out per offset.
    Each run is budgeted as if it had started from step 0 (total cap),
    as a statistical-FI run and the reduction's probe pass are.  The
    inherited ``indices`` stay unused.
    """

    indices: tuple[int, ...] = ()
    points: int = 0
    seed: int = 0
    cap_policy = TOTAL_CAP

    def _chosen(self, ctx):
        population = ctx.population()
        return random.Random(self.seed).sample(
            range(population), min(self.points, population))

    def enumerate(self, ctx):
        for order, flat_index in enumerate(self._chosen(ctx)):
            step, variant_index = ctx.locate(flat_index)
            detail = ctx.variants(step)[variant_index]
            yield FaultPoint(order, (step,), (detail,))

    def count(self, ctx):
        return min(self.points, ctx.population())

    def describe(self):
        return f"sampled[n={self.points}, seed={self.seed}]"
