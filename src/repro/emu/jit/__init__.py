"""Trace-compiled execution tier for the emulator.

The JIT carves the instruction stream into straight-line *superblocks*
(at most one control transfer, as the terminator), lifts each once
per process through the existing ``lift``/``ir`` pipeline, and lowers
the optimized IR to a plain Python step function executed by
``Machine.run``'s fast path.  Precision is preserved by construction:

* register/memory dataflow comes from the lifted IR (bit-exact per the
  differential tests of ``lift/semantics``),
* flag state is *never* taken from the lifted flag approximations —
  instead, exact :class:`~repro.emu.flagops.Flags` updates are replayed
  at block exit for the live tail of flag writers only (see
  ``analysis/flagliveness.flag_materialization``),
* every compiled block commits registers, flags and the PC only after
  all faultable operations succeeded; memory writes are guarded by a
  nested journal mark, so an aborted block leaves no trace and the
  precise stepper re-executes it for the architectural crash state.

Hot loops run as *regions*: the blocks on the cycles through a hot
block, lowered as one function that keeps registers in locals and
computes flags lazily (``codegen.lower_region``).

``TraceCompiler`` owns the per-compiler block cache, its coherence under
self-modifying code and machine resets, and the campaign-visible
counters (compiled vs precise steps, divergences, compile time); the
lowered step functions behind it are shared process-wide, keyed by the
code bytes.
"""

from repro.emu.jit.compiler import TraceCompiler

__all__ = ["TraceCompiler"]
