"""Lower optimized superblock IR to a Python step function.

The emitted function has signature ``fn(cpu, mem, flags)`` and must be
*observationally identical* to stepping the block's instructions through
:class:`~repro.emu.cpu.CPU` — same committed registers, flags, memory
and next PC, and the same exception on the same faulting access.  Three
rules make that hold:

* integer semantics mirror the IR's exactly, as the tests' reference
  interpreter (``tests/ir_interp.py``) runs it: masked arithmetic, its
  shift/udiv edge cases, signed compares via two's complement views;
* memory traffic stays in program order (loads/stores can fault or trip
  the self-modification hook mid-block), while registers, flags and the
  PC are committed only at the very end — an aborted block therefore
  leaves no architectural trace beyond journaled memory writes;
* flag state is produced exclusively by replaying the exact
  :class:`~repro.emu.flagops.Flags` methods recorded as ``flag_*``
  markers, in program order, after which a flag-reading terminator
  evaluates real flag attributes: ``jcc`` picks the next PC, ``setcc``
  merges its bit into the committed register's low byte, ``pushfq``
  stores the replayed RFLAGS image (replayed on a copy, so the live
  flags change only once the store succeeded) and ``popfq`` loads its
  image first and applies it last.

Every exit is position-independent: the step function reads its own
start as ``b = cpu.rip`` on entry (the compiler calls a block only at
its start) and computes the next PC, both ``jcc`` edges and a pushed
``call`` return address as ``b + offset`` wrapped to 64 bits.  So the
source is a function of the block's bytes alone, unless a rip-relative
operand has folded an absolute address into the IR.

Anything the emitter cannot prove it lowers exactly raises
:class:`JitUnsupported` and the block is rejected (the precise stepper
handles it forever after).
"""

from __future__ import annotations

from repro.emu.flagops import PARITY_TABLE
from repro.ir.instructions import (
    Alloca, BinOp, Call, ICmp, IntToPtr, Load, PtrToInt, Ret, Select,
    SExt, Store, Trunc, ZExt)
from repro.ir.module import Function
from repro.ir.values import Constant, Undef, Value
from repro.isa.insn import Instruction, Mnemonic

_M64 = (1 << 64) - 1
_RSP_CODE = 4

_ARITH = {"add": "+", "sub": "-", "mul": "*"}
_LOGIC = {"and": "&", "or": "|", "xor": "^"}
_UNSIGNED_CMP = {"eq": "==", "ne": "!=", "ult": "<", "ule": "<=",
                 "ugt": ">", "uge": ">="}
_SIGNED_CMP = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}

_COND_EXPR = {
    0x0: "flags.of",
    0x2: "flags.cf",
    0x4: "flags.zf",
    0x6: "(flags.cf or flags.zf)",
    0x8: "flags.sf",
    0xA: "flags.pf",
    0xC: "(flags.sf != flags.of)",
    0xE: "(flags.zf or flags.sf != flags.of)",
}


#: Terminators whose stack traffic needs the block's final ``rsp``.
_STACK_TERMINATORS = (Mnemonic.CALL, Mnemonic.RET, Mnemonic.PUSHFQ,
                      Mnemonic.POPFQ)


class JitUnsupported(Exception):
    """The IR contains something this emitter cannot lower exactly."""


def _cond_expr(cond) -> str:
    expr = _COND_EXPR[cond.value & ~1]
    if cond.value & 1:
        expr = f"not {expr}"
    return expr


class _Emitter:
    def __init__(self):
        self.names: dict[int, str] = {}
        self.lines: list[str] = []
        self._counter = 0

    def _temp(self) -> str:
        self._counter += 1
        return f"t{self._counter}"

    def ref(self, value: Value) -> str:
        if isinstance(value, Constant):
            return repr(value.unsigned)
        if isinstance(value, Undef):
            return "0"
        name = self.names.get(id(value))
        if name is None:
            raise JitUnsupported(f"value {value!r} has no lowering")
        return name

    def assign(self, value: Value, expr: str):
        name = self._temp()
        self.lines.append(f"{name} = {expr}")
        self.names[id(value)] = name

    def signed(self, value: Value, bits: int) -> str:
        """Two's complement signed view of ``value``."""
        if isinstance(value, Constant):
            return repr(value.value)
        name = self.ref(value)
        return (f"({name} - {1 << bits} "
                f"if {name} & {1 << (bits - 1)} else {name})")

    # -- per-instruction lowering -------------------------------------

    def emit(self, inst) -> None:
        if isinstance(inst, BinOp):
            self._emit_binop(inst)
        elif isinstance(inst, ICmp):
            self._emit_icmp(inst)
        elif isinstance(inst, (ZExt, IntToPtr, PtrToInt)):
            # pure reinterpretations: alias the operand
            self.names[id(inst)] = self.ref(inst.value)
        elif isinstance(inst, Trunc):
            self.assign(inst, f"{self.ref(inst.value)} & "
                              f"{inst.type.mask}")
        elif isinstance(inst, SExt):
            source_bits = inst.value.type.bits
            self.assign(inst, f"{self.signed(inst.value, source_bits)}"
                              f" & {inst.type.mask}")
        elif isinstance(inst, Load):
            size = inst.type.bits // 8
            self.assign(inst, f"int.from_bytes(mem.read("
                              f"{self.ref(inst.pointer)}, {size}), "
                              f"'little')")
        elif isinstance(inst, Store):
            self._emit_store(inst)
        elif isinstance(inst, Select):
            cond, if_true, if_false = inst.operands
            self.assign(inst, f"{self.ref(if_true)} if "
                              f"{self.ref(cond)} else "
                              f"{self.ref(if_false)}")
        else:
            raise JitUnsupported(f"cannot lower {inst.opcode}")

    def _emit_binop(self, inst: BinOp):
        op = inst.op
        bits = inst.type.bits
        mask = inst.type.mask
        a = self.ref(inst.lhs)
        if op in _ARITH:
            self.assign(inst,
                        f"({a} {_ARITH[op]} {self.ref(inst.rhs)})"
                        f" & {mask}")
        elif op in _LOGIC:
            self.assign(inst, f"{a} {_LOGIC[op]} {self.ref(inst.rhs)}")
        elif op == "shl":
            if isinstance(inst.rhs, Constant):
                count = inst.rhs.unsigned
                self.assign(inst, f"({a} << {count}) & {mask}"
                            if count < bits else "0")
            else:
                b = self.ref(inst.rhs)
                self.assign(inst, f"(({a} << {b}) & {mask}) "
                                  f"if {b} < {bits} else 0")
        elif op == "lshr":
            if isinstance(inst.rhs, Constant):
                count = inst.rhs.unsigned
                self.assign(inst, f"{a} >> {count}"
                            if count < bits else "0")
            else:
                b = self.ref(inst.rhs)
                self.assign(inst, f"({a} >> {b}) "
                                  f"if {b} < {bits} else 0")
        elif op == "ashr":
            # the count clamps to bits-1 and the signed view shifts,
            # masked back to width
            signed = self.signed(inst.lhs, bits)
            if isinstance(inst.rhs, Constant):
                count = min(inst.rhs.unsigned, bits - 1)
                self.assign(inst, f"({signed} >> {count}) & {mask}")
            else:
                b = self.ref(inst.rhs)
                self.assign(inst, f"({signed} >> ({b} if {b} < {bits} "
                                  f"else {bits - 1})) & {mask}")
        else:
            raise JitUnsupported(f"binop {op} not lowered")

    def _emit_icmp(self, inst: ICmp):
        pred = inst.pred
        if pred in _UNSIGNED_CMP:
            self.assign(inst, f"{self.ref(inst.lhs)} "
                              f"{_UNSIGNED_CMP[pred]} "
                              f"{self.ref(inst.rhs)}")
        else:
            bits = inst.lhs.type.bits
            self.assign(inst, f"{self.signed(inst.lhs, bits)} "
                              f"{_SIGNED_CMP[pred]} "
                              f"{self.signed(inst.rhs, bits)}")

    def _emit_store(self, inst: Store):
        size = inst.value.type.bits // 8
        pointer = self.ref(inst.pointer)
        if isinstance(inst.value, Constant):
            payload = repr(inst.value.unsigned.to_bytes(size, "little"))
        else:
            payload = (f"({self.ref(inst.value)})"
                       f".to_bytes({size}, 'little')")
        self.lines.append(f"mem.write({pointer}, {payload})")


def _inline_flags(emitter: _Emitter, kind: str, args: list[str],
                  bits: int):
    """Open-coded flag replay for the hot ALU classes.

    Each expansion is a literal transcription of the matching
    ``Flags.set_*`` method (tests/emu/test_jit.py checks them against
    flagops on randomized operands); the method-call overhead is what
    made flag replay the top cost of compiled execution.  Returns
    ``None`` for kinds that stay as method calls.
    """
    mask = (1 << bits) - 1
    sign = 1 << (bits - 1)
    if kind == "logic":
        result = args[0]
        return [
            "flags.cf = False",
            "flags.of = False",
            "flags.af = False",
            f"flags.zf = {result} == 0",
            f"flags.sf = {result} >> {bits - 1} != 0",
            f"flags.pf = _PT[{result} & 255]",
        ]
    a = args[0]
    lines: list[str] = []
    if kind == "add":
        b = args[1]
        total = emitter._temp()
        result = emitter._temp()
        lines += [
            f"{total} = {a} + {b}",
            f"{result} = {total} & {mask}",
            f"flags.cf = {total} > {mask}",
            f"flags.af = ({a} & 15) + ({b} & 15) > 15",
            f"flags.of = (~({a} ^ {b})) & ({a} ^ {result})"
            f" & {sign} != 0",
        ]
    elif kind == "sub":
        b = args[1]
        result = emitter._temp()
        lines += [
            f"{result} = ({a} - {b}) & {mask}",
            f"flags.cf = {a} < {b}",
            f"flags.af = ({a} & 15) < ({b} & 15)",
            f"flags.of = ({a} ^ {b}) & ({a} ^ {result})"
            f" & {sign} != 0",
        ]
    elif kind == "inc":
        result = emitter._temp()
        lines += [
            f"{result} = ({a} + 1) & {mask}",
            f"flags.af = ({a} & 15) + 1 > 15",
            f"flags.of = (~({a} ^ 1)) & ({a} ^ {result})"
            f" & {sign} != 0",
        ]
    elif kind == "dec":
        result = emitter._temp()
        lines += [
            f"{result} = ({a} - 1) & {mask}",
            f"flags.af = ({a} & 15) < 1",
            f"flags.of = ({a} ^ 1) & ({a} ^ {result})"
            f" & {sign} != 0",
        ]
    elif kind == "neg":
        result = emitter._temp()
        lines += [
            f"{result} = (-{a}) & {mask}",
            f"flags.cf = {a} != 0",
            f"flags.af = 0 < ({a} & 15)",
            f"flags.of = {a} & {result} & {sign} != 0",
        ]
    elif kind == "imul":
        b = args[1]
        sa = emitter._temp()
        sb = emitter._temp()
        full = emitter._temp()
        result = emitter._temp()
        overflow = emitter._temp()
        lines += [
            f"{sa} = {a} - {1 << bits} if {a} & {sign} else {a}",
            f"{sb} = {b} - {1 << bits} if {b} & {sign} else {b}",
            f"{full} = {sa} * {sb}",
            f"{result} = {full} & {mask}",
            f"{overflow} = ({result} - {1 << bits} "
            f"if {result} & {sign} else {result}) != {full}",
            f"flags.cf = {overflow}",
            f"flags.of = {overflow}",
            "flags.af = False",
        ]
    elif kind in ("shl", "shr", "sar") and args[1].isdigit():
        # constant shift count: the masked-count and count==1 edge
        # cases of Flags.set_shl/shr/sar resolve at codegen time
        # (the lifter never emits a marker for masked count 0)
        count = int(args[1]) & (0x3F if bits == 64 else 0x1F)
        result = emitter._temp()
        if kind == "shl":
            lines += [
                f"{result} = ({a} << {count}) & {mask}",
                (f"flags.cf = ({a} >> {bits - count}) & 1 != 0"
                 if count <= bits else "flags.cf = False"),
            ]
            if count == 1:
                lines.append(
                    f"flags.of = ({result} & {sign} != 0) != flags.cf")
        elif kind == "shr":
            lines += [
                f"{result} = {a} >> {count}",
                f"flags.cf = ({a} >> {count - 1}) & 1 != 0",
            ]
            if count == 1:
                lines.append(f"flags.of = {a} & {sign} != 0")
        else:  # sar
            signed = emitter._temp()
            lines += [
                f"{signed} = {a} - {1 << bits} "
                f"if {a} & {sign} else {a}",
                f"{result} = ({signed} >> {count}) & {mask}",
                f"flags.cf = ({signed} >> {count - 1}) & 1 != 0",
            ]
            if count == 1:
                lines.append("flags.of = False")
    else:
        return None
    lines += [
        f"flags.zf = {result} == 0",
        f"flags.sf = {result} & {sign} != 0",
        f"flags.pf = _PT[{result} & 255]",
    ]
    return lines


def _flag_replay(emitter: _Emitter, flag_calls: list[Call]) -> list[str]:
    """Lines replaying the surviving ``flag_*`` markers in order."""
    lines: list[str] = []
    for call in flag_calls:
        kind = call.callee[len("flag_"):]
        args = [emitter.ref(arg) for arg in call.operands[:-1]]
        bits = call.operands[-1].value
        inline = _inline_flags(emitter, kind, args, bits)
        if inline is not None:
            lines.extend(inline)
        else:
            # variable-count shifts keep the call form: their runtime
            # masked-count and count==1 edge cases live in flagops
            method = f"set_{kind}"
            lines.append(f"flags.{method}({', '.join(args)}, {bits})")
    return lines


def lower_superblock(function: Function, body: list[Instruction],
                     terminator):
    """Emit and compile the step function for one superblock.

    Returns ``(step_fn, writes_memory, source)``.
    """
    instructions = list(function.entry.instructions)

    reg_in: dict[int, Call] = {}
    reg_out_value: dict[int, Value] = {}
    skipped_outs: set[int] = set()
    flag_calls: list[Call] = []
    stores = False
    for inst in instructions:
        if isinstance(inst, Call):
            if inst.callee == "reg_in":
                reg_in[inst.operands[0].value] = inst
            elif inst.callee == "reg_out":
                code = inst.operands[0].value
                value = inst.operands[1]
                reg_out_value[code] = value
                if reg_in.get(code) is value:
                    skipped_outs.add(id(inst))
            elif not inst.callee.startswith("flag_"):
                raise JitUnsupported(f"call to {inst.callee!r}")
        elif isinstance(inst, Store):
            stores = True
        elif isinstance(inst, Alloca):
            raise JitUnsupported("unpromoted alloca")

    emitter = _Emitter()

    terminator_mnemonic = terminator.mnemonic if terminator else None
    needs_rsp = terminator_mnemonic in _STACK_TERMINATORS
    prologue: list[str] = []
    for code in sorted(reg_in):
        call = reg_in[code]
        used = any(id(user) not in skipped_outs for user in call.users)
        if used or (code == _RSP_CODE and needs_rsp):
            emitter.names[id(call)] = f"r{code}"
            prologue.append(f"r{code} = regs[{code}]")

    for inst in instructions:
        if isinstance(inst, Ret):
            break
        if isinstance(inst, Call):
            if inst.callee.startswith("flag_"):
                flag_calls.append(inst)
            continue
        emitter.emit(inst)

    # -- commit tail ---------------------------------------------------
    # Faultable terminator memory traffic runs first; flag replay,
    # register commit and the PC update are pure and cannot fail.
    commits = {code: emitter.ref(value)
               for code, value in reg_out_value.items()
               if reg_in.get(code) is not value}
    flag_lines = _flag_replay(emitter, flag_calls)
    # popfq's flag load lands after flag replay and register commit
    final_lines: list[str] = []

    start = body[0].address if body else terminator.address

    def exit_pc(address: int) -> str:
        # modulo 2**64 is the & M64 wrap; CPython returns a sum already
        # in range as is, where & builds a new int
        offset = address - start
        sign = "+" if offset >= 0 else "-"
        return f"(b {sign} {abs(offset)}) % {1 << 64}"

    last = terminator if terminator is not None else body[-1]
    fallthrough = exit_pc(last.address + last.length)
    if terminator is None:
        rip = fallthrough
    elif terminator_mnemonic is Mnemonic.JMP:
        rip = exit_pc(terminator.branch_target())
    elif terminator_mnemonic is Mnemonic.JCC:
        taken = exit_pc(terminator.branch_target())
        rip = (f"{taken} if {_cond_expr(terminator.cond)} "
               f"else {fallthrough}")
    elif terminator_mnemonic is Mnemonic.SETCC:
        # merges into the low byte of the register's committed value
        code = terminator.operands[0].register.code
        current = commits.get(code, f"regs[{code}]")
        commits[code] = (f"({current} & {_M64 & ~0xFF}) | "
                         f"(1 if {_cond_expr(terminator.cond)} else 0)")
        rip = fallthrough
    elif terminator_mnemonic is Mnemonic.PUSHFQ:
        rsp = emitter.ref(reg_out_value[_RSP_CODE])
        emitter.lines.append(f"sp = ({rsp} - 8) & {_M64}")
        if flag_lines:
            # the RFLAGS image is the replayed flags', but the live
            # flags may change only once the store has succeeded
            emitter.lines.append("entry_flags = flags")
            emitter.lines.append("flags = flags.copy()")
            emitter.lines.extend(flag_lines)
            flag_lines = []
            emitter.lines.append("rf = flags.to_rflags()")
            emitter.lines.append(
                "mem.write(sp, rf.to_bytes(8, 'little'))")
            emitter.lines.append("entry_flags.from_rflags(rf)")
        else:
            emitter.lines.append(
                "mem.write(sp, flags.to_rflags().to_bytes(8, 'little'))")
        commits[_RSP_CODE] = "sp"
        stores = True
        rip = fallthrough
    elif terminator_mnemonic is Mnemonic.POPFQ:
        rsp = emitter.ref(reg_out_value[_RSP_CODE])
        emitter.lines.append(
            f"rf = int.from_bytes(mem.read({rsp}, 8), 'little')")
        commits[_RSP_CODE] = f"({rsp} + 8) & {_M64}"
        final_lines.append("flags.from_rflags(rf)")
        rip = fallthrough
    elif terminator_mnemonic is Mnemonic.CALL:
        return_address = exit_pc(terminator.address + terminator.length)
        rsp = emitter.ref(reg_out_value[_RSP_CODE])
        emitter.lines.append(f"sp = ({rsp} - 8) & {_M64}")
        emitter.lines.append(
            f"mem.write(sp, ({return_address}).to_bytes(8, 'little'))")
        commits[_RSP_CODE] = "sp"
        stores = True
        rip = exit_pc(terminator.branch_target())
    elif terminator_mnemonic is Mnemonic.RET:
        rsp = emitter.ref(reg_out_value[_RSP_CODE])
        emitter.lines.append(
            f"ra = int.from_bytes(mem.read({rsp}, 8), 'little')")
        commits[_RSP_CODE] = f"({rsp} + 8) & {_M64}"
        rip = "ra"
    else:
        raise JitUnsupported(f"terminator {terminator_mnemonic}")

    commit_lines = [f"regs[{code}] = {expr}"
                    for code, expr in sorted(commits.items())]

    source_lines = ["def superblock(cpu, mem, flags):",
                    "    regs = cpu.regs"]
    if terminator_mnemonic is not Mnemonic.RET:
        # every other exit is relative to the block's start
        source_lines.append("    b = cpu.rip")
    for line in (prologue + emitter.lines + flag_lines + commit_lines
                 + final_lines + [f"cpu.rip = {rip}"]):
        source_lines.append("    " + line)
    source = "\n".join(source_lines) + "\n"

    namespace: dict = {"_PT": PARITY_TABLE}
    exec(compile(source, f"<jit:{start:#x}>", "exec"), namespace)
    # popped, so the function and its globals form no reference cycle
    return namespace.pop("superblock"), stores, source
