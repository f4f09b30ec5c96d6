#!/usr/bin/env python3
"""Deep dive: the four binary-rewriting stages of Fig. 1.

Walks one binary through disassembly -> structural recovery ->
transformation -> code generation, printing the artifacts of each
stage: the recovered blocks and symbols, the symbolized listing, a
manual patch, and the reassembled (still working) executable.
"""

from repro.disasm import disassemble, pretty_print, reassemble
from repro.disasm.functions import find_functions
from repro.emu import run_executable
from repro.gtirb import build_cfg
from repro.patcher import Patcher
from repro.workloads import pincheck


def main():
    wl = pincheck.workload()
    exe = wl.build()

    print("stage 1+2: disassembly & structural recovery")
    module = disassemble(exe)
    text = module.text()
    print(f"  code blocks : {len(text.code_blocks())}")
    print(f"  symbols     : {len(module.symbols)}")
    functions = find_functions(module)
    for function in functions:
        print(f"  function {function.name}: "
              f"{len(function.blocks)} block(s), "
              f"{function.instruction_count()} instruction(s)")
    cfg = build_cfg(module)
    print(f"  CFG edges   : {len(cfg.edges)}")

    print("\nstage 2b: symbolized, reassembleable listing (excerpt)")
    listing = pretty_print(module)
    for line in listing.splitlines()[:24]:
        print(f"  {line}")
    print("  ...")

    print("\nstage 3: transformation — patch the pin compare")
    patcher = Patcher(module)
    cmp_entries = [
        entry
        for block in text.code_blocks()
        for entry in list(block.entries)
        if entry.insn.name == "cmp" and not entry.protected
    ]
    patched = sum(patcher.patch_entry(e) for e in cmp_entries)
    print(f"  patched {patched} compare instruction(s) "
          f"(Table II pattern)")
    for record in patcher.log:
        state = "applied" if record.applied else f"skip ({record.reason})"
        print(f"    {record.mnemonic:<6} @ "
              f"{'?' if record.address is None else hex(record.address)}"
              f" -> {state}")

    print("\nstage 4: code generation (reassembly)")
    rebuilt = reassemble(module)
    print(f"  text size {exe.code_size()}B -> {rebuilt.code_size()}B")
    good = run_executable(rebuilt, stdin=wl.good_input)
    bad = run_executable(rebuilt, stdin=wl.bad_input)
    print(f"  correct pin -> {good.stdout.decode().strip()!r}")
    print(f"  wrong pin   -> {bad.stdout.decode().strip()!r}")


if __name__ == "__main__":
    main()
