"""Machine-code analyses over recovered GTIRB modules.

* :mod:`repro.analysis.flagliveness` — is RFLAGS live after a program
  point?  Drives the patcher's choice between the paper-exact patterns
  and the flag-preserving variants.
* :mod:`repro.analysis.liveness` — general register liveness.
* :mod:`repro.analysis.defuse` — reaching definitions / def-use chains
  (the paper's "Data Access Pattern" ingredient).
"""

from repro.analysis.flagliveness import FlagLiveness
from repro.analysis.liveness import RegisterLiveness
from repro.analysis.defuse import DefUse

__all__ = ["FlagLiveness", "RegisterLiveness", "DefUse"]
