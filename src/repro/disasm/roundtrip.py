"""Reassembly: module -> executable (stage 3-4 glue)."""

from __future__ import annotations

from repro.asm.assembler import assemble_with_map
from repro.binfmt.image import Executable
from repro.disasm.emitprog import module_to_program
from repro.gtirb.ir import Module


def reassemble_with_map(module: Module):
    """Assemble ``module`` into a fresh executable and return it with
    the ``{InsnEntry: final address}`` map.

    The one reassembly exit: the module is emitted as a structured
    assembler program (``pretty_print`` is the human listing of the
    same program), and a module recovered from a PIE stays a PIE, with
    its relocations and dynamic symbols.
    """
    return assemble_with_map(module_to_program(module), pie=module.pie)


def reassemble(module: Module) -> Executable:
    """Assemble ``module`` into a fresh executable."""
    exe, _ = reassemble_with_map(module)
    return exe


def rewrite(exe: Executable, transform=None, mode: str = "refined"):
    """Disassemble -> optional transform -> reassemble.

    ``transform`` receives the recovered module and may mutate it;
    returns the rewritten executable.
    """
    from repro.disasm.recover import disassemble

    module = disassemble(exe, mode=mode)
    if transform is not None:
        transform(module)
    return reassemble(module)
