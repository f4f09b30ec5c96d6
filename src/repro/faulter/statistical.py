"""Statistical fault injection with quantified error.

Exhaustive single-bit-flip campaigns grow with trace length x encoding
bits; the paper cites Leveugle et al., "Statistical fault injection:
Quantified error and confidence" (DATE 2009) for the standard remedy:
sample the fault space uniformly and report the success probability
with a confidence interval, choosing the sample size for a target
error margin (with finite-population correction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.faulter.campaign import Faulter
from repro.faulter.engine import ExecutionBackend, SequentialBackend
from repro.faulter.models import FaultModel, model_by_name
from repro.faulter.report import CRASHED, SUCCESS
from repro.faulter.space import SampledSpace

_Z = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def z_score(confidence: float) -> float:
    try:
        return _Z[round(confidence, 2)]
    except KeyError:
        raise ValueError(f"confidence must be one of {sorted(_Z)}") from None


def required_samples(
    population: int,
    margin: float,
    confidence: float = 0.95,
    p: float = 0.5,
) -> int:
    """Sample size for a target error margin (Leveugle et al., eq. 4).

    ``n = N / (1 + e^2 (N-1) / (z^2 p (1-p)))`` — the finite-population
    corrected size; with ``N -> inf`` this is the familiar
    ``z^2 p(1-p) / e^2``.
    """
    if population <= 0:
        return 0
    z = z_score(confidence)
    numerator = population
    denominator = 1 + (margin**2) * (population - 1) / (z**2 * p * (1 - p))
    return min(population, math.ceil(numerator / denominator))


@dataclass
class StatisticalEstimate:
    """Sampled estimate of the successful-fault probability."""

    model: str
    population: int
    samples: int
    successes: int
    crashes: int
    confidence: float

    @property
    def point(self) -> float:
        return self.successes / self.samples if self.samples else 0.0

    @property
    def margin(self) -> float:
        """Half-width of the CI with finite-population correction."""
        if not self.samples:
            return 1.0
        if self.samples >= self.population:
            return 0.0  # complete census: no sampling error
        z = z_score(self.confidence)
        p = self.point
        base = z * math.sqrt(max(p * (1 - p), 1e-12) / self.samples)
        fpc = math.sqrt(
            (self.population - self.samples) / (self.population - 1)
        )
        return base * fpc

    @property
    def interval(self) -> tuple[float, float]:
        return (
            max(0.0, self.point - self.margin),
            min(1.0, self.point + self.margin),
        )

    def summary(self) -> str:
        low, high = self.interval
        return (
            f"statistical FI [{self.model}]: "
            f"{self.successes}/{self.samples} successful "
            f"(population {self.population}) -> "
            f"p = {100 * self.point:.3f}% "
            f"± {100 * self.margin:.3f}% "
            f"@ {100 * self.confidence:.0f}% confidence "
            f"[{100 * low:.3f}%, {100 * high:.3f}%]"
        )


DEFAULT_CHECKPOINT_INTERVAL = 64


def estimate_vulnerability(
    faulter: Faulter,
    model: FaultModel | str = "bitflip",
    margin: float = 0.02,
    confidence: float = 0.95,
    samples: int | None = None,
    seed: int = 0,
    backend: ExecutionBackend | None = None,
    checkpoint_interval: int | float | None = None,
) -> StatisticalEstimate:
    """Sample the fault space of ``faulter``'s bad-input trace.

    ``samples`` overrides the Leveugle-sized default.  Sampling is
    uniform over the (trace offset x fault variant) population and
    deterministic for a given ``seed``.

    Execution goes through the campaign engine: by default a
    sequential backend checkpointing every ``checkpoint_interval``
    steps (default ``DEFAULT_CHECKPOINT_INTERVAL``), which resumes
    each sampled run from the nearest trace checkpoint instead of
    re-executing the whole prefix.  A ``backend`` instance carries its
    own interval, so passing both is an error.  The estimate is
    bit-identical for any backend or checkpoint interval (the
    emulator is deterministic).
    """
    if isinstance(model, str):
        model = model_by_name(model)
    engine = faulter.engine()
    population = engine.context(model).population()
    if samples is None:
        samples = required_samples(population, margin, confidence)
    samples = min(samples, population)

    if backend is None:
        if checkpoint_interval is None:
            checkpoint_interval = DEFAULT_CHECKPOINT_INTERVAL
        backend = SequentialBackend(checkpoint_interval=checkpoint_interval)
    elif checkpoint_interval is not None:
        raise ValueError(
            "pass checkpoint_interval= to the backend constructor, not "
            "alongside a backend instance")
    space = SampledSpace(samples=samples, seed=seed)
    report = engine.run(
        model,
        space,
        backend=backend,
        target=f"{faulter.name}(sampled)",
    )
    return StatisticalEstimate(
        model=model.name,
        population=population,
        samples=samples,
        successes=report.outcomes.get(SUCCESS, 0),
        crashes=report.outcomes.get(CRASHED, 0),
        confidence=confidence,
    )
