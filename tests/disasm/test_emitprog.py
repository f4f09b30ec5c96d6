"""Structured program emission and the instruction address map."""

from repro.asm.assembler import assemble_with_map
from repro.disasm import disassemble
from repro.disasm.emitprog import module_to_program
from repro.emu import run_executable
from repro.workloads import bootloader, pincheck


class TestModuleToProgram:
    def test_behaviour_preserved(self):
        wl = pincheck.workload()
        module = disassemble(wl.build())
        program = module_to_program(module)
        exe, _ = assemble_with_map(program)
        good = run_executable(exe, stdin=wl.good_input)
        assert wl.grant_marker in good.stdout

    def test_tag_map_covers_every_entry(self):
        wl = pincheck.workload()
        module = disassemble(wl.build())
        program = module_to_program(module)
        exe, tag_map = assemble_with_map(program)
        entries = [e for b in module.text().code_blocks()
                   for e in b.entries]
        assert len(tag_map) == len(entries)
        assert set(tag_map) == set(entries)

    def test_addresses_decode_to_same_mnemonic(self):
        wl = bootloader.workload()
        module = disassemble(wl.build())
        program = module_to_program(module)
        exe, tag_map = assemble_with_map(program)
        from repro.emu import Machine
        machine = Machine(exe)
        for entry, address in tag_map.items():
            decoded = machine.fetch_decode(address)
            assert decoded.mnemonic is entry.insn.mnemonic, (
                f"{entry.insn} landed at {address:#x} as {decoded}")

    def test_addresses_are_unique(self):
        wl = pincheck.workload()
        module = disassemble(wl.build())
        exe, tag_map = assemble_with_map(module_to_program(module))
        addresses = list(tag_map.values())
        assert len(addresses) == len(set(addresses))

    def test_matches_text_printer_semantics(self):
        """The printed listing assembles to a binary that behaves like
        the structured reassembly."""
        from repro.asm import assemble
        from repro.disasm import pretty_print, reassemble
        wl = bootloader.workload()
        module = disassemble(wl.build())
        via_text = assemble(pretty_print(module))
        via_program = reassemble(module)
        for stdin in (wl.good_input, wl.bad_input):
            a = run_executable(via_text, stdin=stdin)
            b = run_executable(via_program, stdin=stdin)
            assert a.behavior() == b.behavior()
