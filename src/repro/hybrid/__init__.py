"""The Hybrid compiler-binary approach (Section IV-C / V-B).

Lift the binary to the SSA IR, run the *conditional branch hardening*
pass (Algorithm 1: per-block UIDs, XOR edge checksums computed twice,
nested validation at both destinations, fault-response blocks), then
lower back to an executable.  The paper's 300%-overhead
full-duplication strawman is a comparator of the benchmarks and tests,
in ``tests/duplication.py``.
"""

from repro.hybrid.branch_harden import BranchHardening, harden_branches
from repro.hybrid.pipeline import (
    HybridResult, faulter_guided_filter, hybrid_harden)

__all__ = ["BranchHardening", "harden_branches", "hybrid_harden",
           "HybridResult", "faulter_guided_filter"]
