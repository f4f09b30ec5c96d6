"""Rewrite to Reinforce — rewriting against fault-injection attacks.

Reproduction of Kiaei et al., "Rewrite to Reinforce: Rewriting the Binary
to Apply Countermeasures against Fault Injection" (DAC 2021).

The package bundles the paper's primary contribution (the Faulter+Patcher
loop and the Hybrid lift/harden/lower pipeline) together with every
substrate it needs to run offline: an x86-64 subset ISA with real
encodings, an ELF64 subset, an assembler/linker, a CPU emulator, a
GTIRB-like rewriting IR with Ddisasm-style recovery, and an LLVM-like SSA
IR with a lowering backend.

Quickstart::

    from repro.workloads import pincheck

    target = pincheck.workload().target()
    result = target.harden(approach="faulter+patcher",
                           fault_models=("skip",))
    print(result.report())

(See ``docs/api.md`` for the session API — ``Target``/``Oracle``/
``EngineConfig``.)
"""

__version__ = "1.0.0"


def __getattr__(name):
    """Lazy access to the main entry points.

    ``repro.Target`` / ``repro.EngineConfig`` work without importing
    the whole pipeline at package-import time.
    """
    if name in ("Target", "EngineConfig", "hardened_elf"):
        from repro import api
        return getattr(api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = ["__version__", "Target", "EngineConfig", "hardened_elf"]
