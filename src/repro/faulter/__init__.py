"""The faulter: simulation-driven fault-injection vulnerability discovery.

Implements Section IV-B.1 of the paper: run the target binary with the
"bad" input, record the execution trace, then for every offset in that
trace inject each fault a chosen fault model can express — encoding
faults (skip the instruction, flip one encoding bit, stuck bus byte)
or state faults (flip a live register bit, force a status flag,
corrupt an accessed memory cell, invert a conditional branch) — and
observe whether the binary now exhibits the behaviour reserved for the
"good" input — a *successful fault*.  Crashes and still-incorrect runs
are ignored, exactly as the paper prescribes.

Campaign flavors are compositions over the unified engine: a
:class:`~repro.faulter.space.FaultSpace` enumerator executed on an
:class:`~repro.faulter.engine.ExecutionBackend`.
"""

from repro.faulter.models import (
    BranchInvert,
    ENCODING_MODELS,
    EncodingFaultModel,
    FaultModel,
    FlagStuck,
    InstructionSkip,
    MemOperandBitFlip,
    RegisterBitFlip,
    STATE_MODELS,
    SingleBitFlip,
    StateFaultModel,
    StuckAtZeroByte,
    model_by_name,
    MODELS,
)
from repro.faulter.artifacts import (
    ArtifactStats,
    ArtifactStore,
    default_cache_dir,
)
from repro.faulter.campaign import (
    CampaignRunner,
    Fault,
    FaultOutcome,
    Faulter,
)
from repro.faulter.engine import (
    BACKENDS,
    CampaignEngine,
    EngineConfig,
    ExecutionBackend,
    ExecutionStats,
    MultiprocessBackend,
    SequentialBackend,
    shutdown_fleet,
)
from repro.faulter.oracle import (
    AllOf,
    AnyOf,
    ExitCodeOracle,
    MarkerOracle,
    MemoryPredicateOracle,
    Oracle,
    coerce_oracle,
    oracle_from_dict,
)
from repro.faulter.report import (
    CampaignReport,
    CampaignReportBuilder,
    VulnerablePoint,
)
from repro.faulter.space import (
    ExhaustiveSpace,
    FaultPoint,
    FaultSpace,
    KFaultProductSpace,
    SpacePartition,
    WindowedSpace,
)

__all__ = [
    "FaultModel",
    "EncodingFaultModel",
    "StateFaultModel",
    "InstructionSkip",
    "SingleBitFlip",
    "StuckAtZeroByte",
    "RegisterBitFlip",
    "FlagStuck",
    "MemOperandBitFlip",
    "BranchInvert",
    "ENCODING_MODELS",
    "STATE_MODELS",
    "model_by_name",
    "MODELS",
    "CampaignRunner",
    "Fault",
    "FaultOutcome",
    "Faulter",
    "ArtifactStats",
    "ArtifactStore",
    "default_cache_dir",
    "shutdown_fleet",
    "BACKENDS",
    "CampaignEngine",
    "EngineConfig",
    "ExecutionBackend",
    "ExecutionStats",
    "MultiprocessBackend",
    "SequentialBackend",
    "Oracle",
    "MarkerOracle",
    "ExitCodeOracle",
    "MemoryPredicateOracle",
    "AllOf",
    "AnyOf",
    "coerce_oracle",
    "oracle_from_dict",
    "CampaignReport",
    "CampaignReportBuilder",
    "VulnerablePoint",
    "ExhaustiveSpace",
    "FaultPoint",
    "FaultSpace",
    "KFaultProductSpace",
    "SpacePartition",
    "WindowedSpace",
]
