"""Whole-program lifting driver with call inlining."""

from __future__ import annotations

from typing import Optional

from repro.binfmt.image import Executable
from repro.disasm.recover import disassemble
from repro.errors import LiftError
from repro.gtirb.ir import CodeBlock, Module
from repro.ir.builder import IRBuilder
from repro.ir.module import BasicBlock, Function, IRModule
from repro.ir.types import FunctionType, I64, VOID
from repro.isa.insn import Mnemonic
from repro.isa.operands import Imm
from repro.isa.registers import reg as reg_by_name
from repro.lift.semantics import InstructionTranslator
from repro.lift.state import GuestState

MAX_INLINE_DEPTH = 16

_SYS_REGS = [reg_by_name(n) for n in ("rax", "rdi", "rsi", "rdx")]
RAX = reg_by_name("rax")


class Lifter:
    """Lifts one executable into a single-function IR module."""

    def __init__(self, exe: Executable, gtirb: Optional[Module] = None):
        self.exe = exe
        self.gtirb = gtirb if gtirb is not None else disassemble(exe)
        self.blocks_by_addr: dict[int, CodeBlock] = {
            block.address: block
            for block in self.gtirb.text().code_blocks()
            if block.address is not None
        }
        self.ir = IRModule(name="lifted")
        self.fn = self.ir.add_function(
            Function("entry", FunctionType(VOID, ())))
        self._ir_blocks: dict[tuple, BasicBlock] = {}
        self._worklist: list[tuple] = []

    # -- public --------------------------------------------------------------

    def lift(self) -> IRModule:
        setup = self.fn.add_block("setup")
        builder = IRBuilder(setup)
        self.state = GuestState(builder)
        entry_key = (self.exe.entry, ())
        builder.br(self._ir_block(entry_key))
        while self._worklist:
            key = self._worklist.pop()
            self._lift_guest_block(key)
        self.ir.aux["entry_address"] = self.exe.entry
        return self.ir

    # -- block management -----------------------------------------------------

    def _ir_block(self, key: tuple) -> BasicBlock:
        block = self._ir_blocks.get(key)
        if block is None:
            address, ctx = key
            suffix = f"_i{len(ctx)}" if ctx else ""
            block = self.fn.add_block(f"g{address:x}{suffix}_"
                                      f"{len(self._ir_blocks)}")
            guest = self.blocks_by_addr.get(address)
            block.set_guest_origin(
                address,
                size=sum(e.insn.length for e in guest.entries)
                if guest is not None else 0)
            self._ir_blocks[key] = block
            self._worklist.append(key)
        return block

    def _guest_block(self, address: int) -> CodeBlock:
        block = self.blocks_by_addr.get(address)
        if block is None:
            raise LiftError(f"no code block at {address:#x}")
        return block

    # -- lifting --------------------------------------------------------------

    def _lift_guest_block(self, key: tuple):
        address, ctx = key
        guest = self._guest_block(address)
        ir_block = self._ir_blocks[key]
        builder = IRBuilder(ir_block)
        translator = InstructionTranslator(self.state, builder)

        for entry in guest.entries:
            insn = entry.insn
            mnemonic = insn.mnemonic
            if mnemonic is Mnemonic.JMP:
                target = self._direct_target(entry)
                builder.br(self._ir_block((target, ctx)))
                return
            if mnemonic is Mnemonic.JCC:
                target = self._direct_target(entry)
                fallthrough = insn.address + insn.length
                cond = translator.cond_value(insn.cond)
                builder.condbr(cond,
                               self._ir_block((target, ctx)),
                               self._ir_block((fallthrough, ctx)))
                return
            if mnemonic is Mnemonic.CALL:
                target = self._direct_target(entry)
                if any(frame[1] == target for frame in ctx):
                    raise LiftError(
                        f"recursive call to {target:#x}; inlining "
                        f"lifter cannot translate recursion")
                if len(ctx) >= MAX_INLINE_DEPTH:
                    raise LiftError("inline depth exceeded")
                continuation = insn.address + insn.length
                new_ctx = ctx + ((continuation, target),)
                builder.br(self._ir_block((target, new_ctx)))
                return
            if mnemonic is Mnemonic.RET:
                if not ctx:
                    # returning from the entry function: end of program
                    builder.call(VOID, "halt", [])
                    builder.unreachable()
                    return
                continuation, _ = ctx[-1]
                builder.br(self._ir_block((continuation, ctx[:-1])))
                return
            if mnemonic is Mnemonic.SYSCALL:
                args = [self.state.read_reg(builder, r)
                        for r in _SYS_REGS]
                result = builder.call(I64, "syscall", args, "sysret")
                self.state.write_reg(builder, RAX, result)
                continue
            if mnemonic in (Mnemonic.HLT, Mnemonic.UD2, Mnemonic.INT3):
                builder.call(VOID, "halt", [])
                builder.unreachable()
                return
            translator.translate(insn)

        # guest block fell through (leader split): continue at next address
        last = guest.entries[-1].insn
        next_address = last.address + last.length
        if next_address not in self.blocks_by_addr:
            # running off the end (e.g. after an exit syscall)
            builder.call(VOID, "halt", [])
            builder.unreachable()
            return
        builder.br(self._ir_block((next_address, ctx)))

    def _direct_target(self, entry) -> int:
        expr = entry.sym_operands.get(0)
        if expr is not None and isinstance(expr.symbol.referent, CodeBlock):
            referent = expr.symbol.referent
            if referent.address is None:
                raise LiftError("branch to address-less block")
            return referent.address + expr.addend
        insn = entry.insn
        if insn.operands and isinstance(insn.operands[0], Imm):
            target = insn.branch_target()
            if target is not None:
                return target
        raise LiftError(
            f"indirect control flow at {insn.address:#x} ('{insn}') is "
            f"not supported by the inlining lifter")


def lift_executable(exe: Executable, optimize: bool = True) -> IRModule:
    """Lift ``exe`` and (optionally) run the standard cleanup pipeline."""
    module = Lifter(exe).lift()
    if optimize:
        from repro.ir.passes.pass_manager import standard_cleanup
        standard_cleanup().run(module)
    return module
