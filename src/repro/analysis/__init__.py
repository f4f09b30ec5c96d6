"""Machine-code analyses over recovered GTIRB modules and traces.

* :mod:`repro.analysis.flagliveness` — is RFLAGS live after a program
  point?  Drives the patcher's choice between the paper-exact patterns
  and the flag-preserving variants.
* :mod:`repro.analysis.traceflow` — per-step def/use facts over a
  recorded trace: the campaign reduction's proofs.
"""

from repro.analysis.flagliveness import FlagLiveness

__all__ = ["FlagLiveness"]
