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

from typing import NamedTuple, Optional

from repro.analysis.flagliveness import ALL_FLAGS, flag_materialization
from repro.emu.flagops import PARITY_TABLE
from repro.emu.jit.lift import INC_DEC_FLAGS, SHIFT_FLAGS
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

#: Each condition's base (low bit clear) as a template over the flags
#: it reads; the low bit negates it.
_COND_TEMPLATE = {
    0x0: "{of}",
    0x2: "{cf}",
    0x4: "{zf}",
    0x6: "({cf} or {zf})",
    0x8: "{sf}",
    0xA: "{pf}",
    0xC: "({sf} != {of})",
    0xE: "({zf} or {sf} != {of})",
}
_COND_FLAGS = {base: tuple(name for name in ("cf", "pf", "zf", "sf", "of")
                           if "{" + name + "}" in template)
               for base, template in _COND_TEMPLATE.items()}
_COND_EXPR = {base: template.format(**{name: f"flags.{name}"
                                       for name in ALL_FLAGS})
              for base, template in _COND_TEMPLATE.items()}


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
        count = int(args[1]) & (0x3F if bits == 64 else 0x1F)
        if count == 0:
            # a cl count folded to a constant: no flag changes
            return []
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


class Render(NamedTuple):
    """A lowered block's pieces, for composing it into a region.

    Position-independent like the block source: names are the block
    function's own (``r<code>`` for a register's entry value, ``t<n>``
    for temporaries) and addresses are offsets from the block start.
    """

    count: int                  # guest instructions
    size: int                   # bytes, start to past the terminator
    reads: tuple                # register codes read on entry
    lines: tuple                # body statements, in program order
    markers: tuple              # surviving flag_* as (kind, args, bits)
    commits: tuple              # (code, expr) register results
    rsp: Optional[str]          # final rsp, for a stack terminator
    mnemonic: Optional[str]     # terminator mnemonic name
    cond: Optional[int]         # jcc/setcc condition code
    target: Optional[int]       # jmp/jcc/call target offset
    setcc: Optional[int]        # setcc destination register code
    stores: bool                # writes guest memory
    faultable: bool             # reads or writes guest memory


def lower_superblock(function: Function, body: list[Instruction],
                     terminator):
    """Emit and compile the step function for one superblock.

    Returns ``(step_fn, writes_memory, source, render)``.
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
    reads: list[int] = []
    for code in sorted(reg_in):
        call = reg_in[code]
        used = any(id(user) not in skipped_outs for user in call.users)
        if used or (code == _RSP_CODE and needs_rsp):
            emitter.names[id(call)] = f"r{code}"
            reads.append(code)
    prologue = [f"r{code} = regs[{code}]" for code in reads]

    faultable = False
    for inst in instructions:
        if isinstance(inst, Ret):
            break
        if isinstance(inst, Call):
            if inst.callee.startswith("flag_"):
                flag_calls.append(inst)
            continue
        faultable = faultable or isinstance(inst, (Load, Store))
        emitter.emit(inst)

    # -- commit tail ---------------------------------------------------
    # Faultable terminator memory traffic runs first; flag replay,
    # register commit and the PC update are pure and cannot fail.
    commits = {code: emitter.ref(value)
               for code, value in reg_out_value.items()
               if reg_in.get(code) is not value}
    start = body[0].address if body else terminator.address
    last = terminator if terminator is not None else body[-1]
    render = Render(
        count=len(body) + (terminator is not None),
        size=last.address + last.length - start,
        reads=tuple(reads),
        lines=tuple(emitter.lines),
        markers=tuple(
            (call.callee[len("flag_"):],
             tuple(emitter.ref(arg) for arg in call.operands[:-1]),
             call.operands[-1].value)
            for call in flag_calls),
        commits=tuple(sorted(commits.items())),
        rsp=(emitter.ref(reg_out_value[_RSP_CODE]) if needs_rsp
             else None),
        mnemonic=terminator_mnemonic.name if terminator else None,
        cond=(terminator.cond.value
              if terminator_mnemonic in (Mnemonic.JCC, Mnemonic.SETCC)
              else None),
        target=(terminator.branch_target() - start
                if terminator_mnemonic in (Mnemonic.JMP, Mnemonic.JCC,
                                           Mnemonic.CALL)
                else None),
        setcc=(terminator.operands[0].register.code
               if terminator_mnemonic is Mnemonic.SETCC else None),
        stores=stores or terminator_mnemonic in (Mnemonic.PUSHFQ,
                                                 Mnemonic.CALL),
        faultable=faultable or needs_rsp,
    )
    flag_lines = _flag_replay(emitter, flag_calls)
    # popfq's flag load lands after flag replay and register commit
    final_lines: list[str] = []

    def exit_pc(address: int) -> str:
        # modulo 2**64 is the & M64 wrap; CPython returns a sum already
        # in range as is, where & builds a new int
        offset = address - start
        sign = "+" if offset >= 0 else "-"
        return f"(b {sign} {abs(offset)}) % {1 << 64}"

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
    return namespace.pop("superblock"), stores, source, render


# -- hot-loop regions -------------------------------------------------------
#
# A region runs a hot loop's blocks as one function: registers stay in
# locals from member to member and flags are lazy.  Each member keeps
# the operands of its surviving flag markers in locals; a jcc/setcc/
# pushfq reads a flag straight from the newest marker that defines it,
# and an exit replays the markers the flags object has not seen through
# the exact Flags methods.  A member whose markers are not all definite
# (a variable-count shift) or that ends in popfq brings the flags
# object up to date instead: a *barrier* no walk looks behind.

#: Most member copies one region's code holds, over all its paths.
MAX_NODES = 32

_BACK = "back"    # an edge to the region's head

_METHOD = {"logic": "set_logic_result"}


def _marker_defines(kind: str, args: tuple, bits: int):
    """``(may, definite)`` flag sets of one ``flag_*`` marker."""
    if kind in ("inc", "dec"):
        return INC_DEC_FLAGS, INC_DEC_FLAGS
    if kind not in ("shl", "shr", "sar"):
        return ALL_FLAGS, ALL_FLAGS
    if not args[1].isdigit():
        # a run-time count may leave every flag as it was
        return SHIFT_FLAGS | {"of"}, frozenset()
    count = int(args[1]) & (0x3F if bits == 64 else 0x1F)
    if count == 0:
        return frozenset(), frozenset()
    defined = SHIFT_FLAGS | ({"of"} if count == 1 else frozenset())
    return defined, defined


def _lazy_flag(kind: str, args: list, bits: int, flag: str) -> str:
    """Boolean expression of ``flag`` after one marker that defines it.

    A literal transcription of the matching ``Flags.set_*`` method
    (tests/emu/test_region_fuzz.py checks each against flagops).
    """
    mask = (1 << bits) - 1
    sign = 1 << (bits - 1)
    a = args[0]
    if kind == "logic":
        result = a
        special = {"cf": "False", "of": "False", "af": "False",
                   "sf": f"{a} >> {bits - 1} != 0"}
    elif kind == "add":
        b = args[1]
        result = f"(({a} + {b}) & {mask})"
        special = {"cf": f"{a} + {b} > {mask}",
                   "af": f"({a} & 15) + ({b} & 15) > 15",
                   "of": f"(~({a} ^ {b})) & ({a} ^ {result}) & {sign} != 0"}
    elif kind == "sub":
        b = args[1]
        result = f"(({a} - {b}) & {mask})"
        special = {"cf": f"{a} < {b}",
                   "af": f"({a} & 15) < ({b} & 15)",
                   "of": f"({a} ^ {b}) & ({a} ^ {result}) & {sign} != 0"}
    elif kind == "inc":
        result = f"(({a} + 1) & {mask})"
        special = {"af": f"({a} & 15) + 1 > 15",
                   "of": f"(~({a} ^ 1)) & ({a} ^ {result}) & {sign} != 0"}
    elif kind == "dec":
        result = f"(({a} - 1) & {mask})"
        special = {"af": f"({a} & 15) < 1",
                   "of": f"({a} ^ 1) & ({a} ^ {result}) & {sign} != 0"}
    elif kind == "neg":
        result = f"((-{a}) & {mask})"
        special = {"cf": f"{a} != 0", "af": f"0 < ({a} & 15)",
                   "of": f"{a} & {result} & {sign} != 0"}
    elif kind == "imul":
        full = (f"((({a} ^ {sign}) - {sign}) * "
                f"(({args[1]} ^ {sign}) - {sign}))")
        result = f"({full} & {mask})"
        overflow = f"(({result} ^ {sign}) - {sign}) != {full}"
        special = {"cf": overflow, "of": overflow, "af": "False"}
    else:
        # constant-count shift; _marker_defines gives the flags it sets
        count = int(args[1]) & (0x3F if bits == 64 else 0x1F)
        if kind == "shl":
            result = f"(({a} << {count}) & {mask})"
            carry = (f"({a} >> {bits - count}) & 1 != 0"
                     if count <= bits else "False")
            special = {"cf": carry,
                       "of": f"({result} & {sign} != 0) != ({carry})"}
        elif kind == "shr":
            result = f"({a} >> {count})"
            special = {"cf": f"({a} >> {count - 1}) & 1 != 0",
                       "of": f"{a} & {sign} != 0"}
        else:  # sar
            signed = f"(({a} ^ {sign}) - {sign})"
            result = f"(({signed} >> {count}) & {mask})"
            special = {"cf": f"({signed} >> {count - 1}) & 1 != 0",
                       "of": "False"}
    if flag in special:
        return special[flag]
    if flag == "zf":
        return f"{result} == 0"
    if flag == "sf":
        return f"{result} & {sign} != 0"
    return f"_PT[{result} & 255]"


class _Region:
    """Source of one region function over ``(start, render)`` members.

    The members are the blocks on cycles through the first one, the
    head.  The code is the tree of paths from the head: a member reached
    again on one path leaves the region, and so does any edge past
    :data:`MAX_NODES` members of code.  A path back to the head
    ``continue``s the loop.

    A *path* is the list of members the current iteration has run.
    The flags object has seen no marker since the last barrier; what
    the walk finds past the head is the previous iteration's *tail*:
    the live markers every path back to the head ends with, read only
    once an iteration has completed (``w``).  Where paths back end in
    different markers, each brings the flags object up to date before
    it loops, and the tail is empty.
    """

    def __init__(self, members):
        self.members = members
        self.index = {start: i for i, (start, _) in enumerate(members)}
        self.markers = [
            [(kind, args, bits) + _marker_defines(kind, args, bits)
             for kind, args, bits in render.markers]
            for _, render in members]
        self.barrier = [
            render.mnemonic == "POPFQ"
            or any(may != definite for *_, may, definite in markers)
            for (_, render), markers in zip(members, self.markers)]
        touched = set()
        for markers in self.markers:
            for *_, may, _ in markers:
                touched |= may
        if any(render.mnemonic == "POPFQ" for _, render in members):
            touched = set(ALL_FLAGS)
        self.touched = frozenset(touched)
        codes = set()
        written = set()
        for _, render in members:
            codes.update(render.reads)
            written.update(code for code, _ in render.commits)
            if render.setcc is not None:
                written.add(render.setcc)
            if render.rsp is not None:
                written.add(_RSP_CODE)
        self.codes = sorted(codes | written)
        self.written = sorted(written)
        self.nodes = 0
        self.tree = (0, self._grow([0]))
        self.tail = None
        tails = [self._tail(path) for path in self._loops(self.tree, [])]
        if tails and all(tail == tails[0] for tail in tails):
            self.tail = tails[0]

    # -- shape --------------------------------------------------------------

    def _successors(self, member: int) -> list:
        """Addresses control may reach after ``member``, taken first."""
        start, render = self.members[member]
        fallthrough = (start + render.size) % (1 << 64)
        if render.mnemonic in ("JMP", "JCC"):
            taken = (start + render.target) % (1 << 64)
            if render.mnemonic == "JMP" or taken == fallthrough:
                return [taken]
            return [taken, fallthrough]
        return [fallthrough]

    def _grow(self, path: list) -> list:
        """The edges out of ``path[-1]``, each ``(address, next)``:
        ``next`` is the next member's node ``(member, edges)``,
        :data:`_BACK` for the head, or ``None`` for an exit."""
        edges = []
        for address in self._successors(path[-1]):
            member = self.index.get(address)
            if member == 0:
                edges.append((address, _BACK))
            elif (member is None or member in path
                    or self.nodes == MAX_NODES):
                edges.append((address, None))
            else:
                self.nodes += 1
                edges.append(
                    (address, (member, self._grow(path + [member]))))
        return edges

    def _loops(self, node, path: list) -> list:
        """The paths from ``node`` back to the head."""
        member, edges = node
        here = path + [member]
        loops = []
        for _, after in edges:
            if after is _BACK:
                loops.append(here)
            elif after is not None:
                loops += self._loops(after, here)
        return loops

    def _tail(self, path: list):
        """Newest-first live markers at the end of ``path``, or ``None``
        when some flag would need an older iteration."""
        found = []
        resolved = set()
        for member in reversed(path):
            if self.barrier[member]:
                resolved = set(ALL_FLAGS)
                break
            for index in range(len(self.markers[member]) - 1, -1, -1):
                found.append((member, index))
                resolved |= self.markers[member][index][4]
        if not self.touched <= resolved:
            return None
        found.reverse()
        keep = flag_materialization(
            [self.markers[member][index][3:] for member, index in found],
            self.touched)
        return [found[i] for i in reversed(keep)]

    # -- flags ------------------------------------------------------------

    def _walk(self, path: list, through: Optional[int] = None):
        """Markers the flags object has not seen after ``path``, newest
        first, as ``(member, index, guarded)``; ``through`` is a
        barrier member whose own markers still count."""
        for member in reversed(path):
            if self.barrier[member] and member != through:
                return
            for index in range(len(self.markers[member]) - 1, -1, -1):
                yield member, index, False
        for member, index in self.tail or ():
            yield member, index, True

    def _args(self, member: int, index: int, raw: bool) -> list:
        """A marker's operands: the member's own names while ``raw``
        (before its commit), else the locals they were kept in."""
        args = self.markers[member][index][1]
        return [arg if raw or arg.isdigit() else f"c{member}_{index}_{n}"
                for n, arg in enumerate(args)]

    def flag(self, path: list, name: str, raw: Optional[int] = None):
        """Expression of flag ``name`` after ``path``; the markers of
        member ``raw`` still use its own names."""
        for member, index, guarded in self._walk(path):
            kind, _, bits, _, definite = self.markers[member][index]
            if name in definite:
                args = self._args(member, index,
                                  member == raw and not guarded)
                expr = _lazy_flag(kind, args, bits, name)
                if guarded:
                    return f"(({expr}) if w else flags.{name})"
                return f"({expr})"
        return f"flags.{name}"

    def cond(self, path: list, code: int) -> str:
        base = code & ~1
        expr = _COND_TEMPLATE[base].format(**{
            name: self.flag(path, name) for name in _COND_FLAGS[base]})
        return f"not {expr}" if code & 1 else expr

    def rflags(self, path: list, raw: int) -> str:
        bits = {"cf": 0, "pf": 2, "af": 4, "zf": 6, "sf": 7, "of": 11}
        return " | ".join(
            ["0x202"] + [f"{self.flag(path, name, raw)} << {bit}"
                         for name, bit in bits.items()])

    def materialize(self, path: list, through: Optional[int] = None,
                    onto: str = "flags", raw: Optional[int] = None
                    ) -> list[str]:
        """Replay, onto ``onto``, what ``flags`` has not seen after
        ``path``; the markers of member ``through`` (a barrier) count,
        and those of member ``raw`` use its own names."""
        pending = list(self._walk(path, through))
        pending.reverse()
        keep = flag_materialization([
            self.markers[member][index][3:]
            for member, index, _ in pending])
        guarded_lines: list[str] = []
        lines: list[str] = []
        for member, index, guarded in (pending[i] for i in keep):
            kind, _, bits = self.markers[member][index][:3]
            args = ", ".join(self._args(member, index,
                                        member == raw and not guarded))
            call = (f"{onto}.{_METHOD.get(kind, 'set_' + kind)}"
                    f"({args}, {bits})")
            (guarded_lines if guarded else lines).append(call)
        if guarded_lines:
            lines = ["if w:"] + _indent(guarded_lines) + lines
        return lines

    # -- code ---------------------------------------------------------------

    def exit(self, path: list, rip: int, result: str) -> list[str]:
        return (self.materialize(path)
                + [f"regs[{code}] = r{code}" for code in self.written]
                + [f"cpu.rip = {rip % (1 << 64)}", f"return {result}"])

    def edge(self, path: list, address: int, after) -> list[str]:
        """Code that follows ``path`` to ``address`` (and ``after``)."""
        if after is _BACK:
            return ((self.materialize(path) if self.tail is None else [])
                    + ["w = True", "continue"])
        if after is None:
            return self.exit(path, address, "limit - rem")
        return self.member(path, after)

    def member(self, path: list, node) -> list[str]:
        """Code running ``node``'s member after ``path``, and on."""
        i, edges = node
        start, render = self.members[i]
        here = path + [i]
        out = [f"if rem < {render.count}:"]
        out += _indent(self.exit(path, start, "limit - rem"))
        body = list(render.lines)
        commits = dict(render.commits)
        after: list[str] = []
        if render.mnemonic == "PUSHFQ":
            body.append(f"sp = ({render.rsp} - 8) & {_M64}")
            if self.barrier[i]:
                # replayed on a copy: the flags object changes only
                # once the store has succeeded
                body.append("fc = flags.copy()")
                body += self.materialize(here, through=i, onto="fc", raw=i)
                body.append("rf = fc.to_rflags()")
                after.append("flags.from_rflags(rf)")
            else:
                body.append(f"rf = {self.rflags(here, raw=i)}")
            body.append("mem.write(sp, rf.to_bytes(8, 'little'))")
            commits[_RSP_CODE] = "sp"
        elif render.mnemonic == "POPFQ":
            body.append(f"rf = int.from_bytes(mem.read({render.rsp}, 8), "
                        f"'little')")
            commits[_RSP_CODE] = f"({render.rsp} + 8) & {_M64}"
            after.append("flags.from_rflags(rf)")
        elif self.barrier[i]:
            after += self.materialize(here, through=i)
        if render.stores:
            out.append("mk = mem.journal_mark()")
        if render.faultable:
            out.append("try:")
            out += _indent(body)
            out.append("except _ABORT:")
            out += _indent(
                (["mem.journal_rollback_to(mk)"] if render.stores else [])
                + self.exit(path, start, "~(limit - rem)"))
        else:
            out += body
        if render.stores:
            out.append("mem.journal_release(mk)")
        out.append(f"rem -= {render.count}")
        for index, (_, args, _) in enumerate(render.markers):
            for n, arg in enumerate(args):
                if not arg.isdigit():
                    out.append(f"c{i}_{index}_{n} = {arg}")
        if commits:
            targets = sorted(commits)
            out.append(", ".join(f"r{code}" for code in targets) + " = "
                       + ", ".join(commits[code] for code in targets))
        out += after
        if render.mnemonic == "SETCC":
            code = render.setcc
            out.append(f"r{code} = (r{code} & {_M64 & ~0xFF}) | "
                       f"(1 if {self.cond(here, render.cond)} else 0)")
        if len(edges) == 2:
            # every edge's code ends in continue or return, so the
            # fallthrough's needs no else
            out.append(f"if {self.cond(here, render.cond)}:")
            out += _indent(self.edge(here, *edges[0]))
        out += self.edge(here, *edges[-1])
        return out

    def source(self) -> str:
        lines = ["regs = cpu.regs"]
        lines += [f"r{code} = regs[{code}]" for code in self.codes]
        lines += ["rem = limit", "w = False", "while True:"]
        lines += _indent(self.member([], self.tree))
        return ("def region(cpu, mem, flags, limit):\n"
                + "".join(f"    {line}\n" for line in lines))


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def lower_region(members, abort: tuple):
    """Compile a hot loop of blocks as one region function.

    ``members`` are ``(start, render)`` pairs, the head first, of
    blocks that lie on cycles through the head.  The function
    ``region(cpu, mem, flags, limit)`` must be entered at the head's
    start.  It runs members while the step budget ``limit`` covers the
    next one, exits to an absolute address whenever control leaves the
    region, and returns the steps it ran, with registers, flags and the
    PC committed.  A member that raises one of ``abort`` rolls back its
    own journaled writes and the function returns ``~steps``, the state
    being that member's entry state.

    Returns ``(region_fn, source)``.
    """
    source = _Region(members).source()
    namespace: dict = {"_PT": PARITY_TABLE, "_ABORT": abort}
    exec(compile(source, f"<region:{members[0][0]:#x}>", "exec"),
         namespace)
    return namespace.pop("region"), source
