"""Intel-syntax assembly parser.

Dialect summary::

    .section .text            # or .text / .data / .rodata / .bss
    .global _start
    .equ LEN, 4*2+1           # constant expressions over literals/equs
    _start:                   # label ('.'-prefixed labels stay local)
        mov rax, 0
        lea rsi, [rel buf]    # RIP-relative symbol reference
        mov rdx, LEN
        cmp byte ptr [rsi+1], 'A'
        je .done
        mov rbx, offset buf   # absolute address materialization
    .done:
        ret
    .section .data
    buf:  .zero 16
    msg:  .asciz "hi"
    tab:  .quad _start, msg   # pointer table (ABS64 references)
    num:  .long 7
          .byte 1, 2, 3
          .align 8

Comments start with ``#`` or ``;``.
"""

from __future__ import annotations

import re

from repro.errors import AsmError
from repro.isa.cond import cond_from_suffix
from repro.isa.insn import Instruction, Mnemonic
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.isa.registers import RIP, is_register_name, reg
from repro.asm.source import (
    AlignStmt, DataStmt, InsnStmt, LabelDef, Program, SpaceStmt)

_LABEL_RE = re.compile(r"^([.\w$@]+):\s*(.*)$")
_NAME_RE = re.compile(r"^[.\w$@]+$")
_SIZE_KEYWORDS = {"byte": 1, "word": 2, "dword": 4, "qword": 8}

_COND_MNEMONICS = {}
for _suffix in ("o no b ae e ne be a s ns p np l ge le g z nz c nc na nbe "
                "nae nb pe po nge nl ng nle").split():
    _COND_MNEMONICS["j" + _suffix] = (Mnemonic.JCC, _suffix)
    _COND_MNEMONICS["set" + _suffix] = (Mnemonic.SETCC, _suffix)
    _COND_MNEMONICS["cmov" + _suffix] = (Mnemonic.CMOVCC, _suffix)

_PLAIN_MNEMONICS = {m.value: m for m in Mnemonic
                    if m not in (Mnemonic.JCC, Mnemonic.SETCC,
                                 Mnemonic.CMOVCC)}


def _strip_comment(line: str) -> str:
    out = []
    in_str = False
    for ch in line:
        if ch == '"':
            in_str = not in_str
        if not in_str and ch in "#;":
            break
        out.append(ch)
    return "".join(out).strip()


def _split_operands(text: str) -> list[str]:
    """Split on commas not inside brackets/quotes."""
    parts, depth, in_str, current = [], 0, False, []
    for ch in text:
        if ch == '"':
            in_str = not in_str
        if not in_str:
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append("".join(current).strip())
                current = []
                continue
        current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


class _ExprEval:
    """Tiny constant-expression evaluator (+ - * parentheses, equs)."""

    def __init__(self, constants: dict[str, int]):
        self.constants = constants

    def eval(self, text: str, line: int) -> int:
        tokens = re.findall(r"0x[0-9a-fA-F]+|\d+|'(?:\\.|[^'])'|[\w.$@]+"
                            r"|[()+\-*]", text)
        if not tokens or "".join(tokens).replace(" ", "") != \
                text.replace(" ", ""):
            raise AsmError(f"line {line}: bad constant expression {text!r}")
        self._tokens = tokens
        self._pos = 0
        self._line = line
        value = self._expr()
        if self._pos != len(self._tokens):
            raise AsmError(f"line {line}: trailing junk in {text!r}")
        return value

    def _expr(self) -> int:
        value = self._term()
        while self._peek() in ("+", "-"):
            op = self._next()
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> int:
        value = self._atom()
        while self._peek() == "*":
            self._next()
            value *= self._atom()
        return value

    def _atom(self) -> int:
        token = self._next()
        if token == "(":
            value = self._expr()
            if self._next() != ")":
                raise AsmError(f"line {self._line}: missing ')'")
            return value
        if token == "-":
            return -self._atom()
        if token.startswith("0x"):
            return int(token, 16)
        if token.isdigit():
            return int(token)
        if token.startswith("'"):
            body = token[1:-1]
            return ord(body.encode().decode("unicode_escape"))
        if token in self.constants:
            return self.constants[token]
        raise AsmError(f"line {self._line}: unknown constant {token!r}")

    def _peek(self):
        return (self._tokens[self._pos]
                if self._pos < len(self._tokens) else None)

    def _next(self):
        token = self._peek()
        if token is None:
            raise AsmError(f"line {self._line}: unexpected end of expression")
        self._pos += 1
        return token


class Parser:
    """Parses one translation unit into a :class:`Program`."""

    def __init__(self):
        self.program = Program()
        self.section = ".text"
        self.evaluator = _ExprEval(self.program.constants)

    def parse(self, text: str) -> Program:
        for lineno, raw_line in enumerate(text.splitlines(), start=1):
            line = _strip_comment(raw_line)
            if not line:
                continue
            while True:
                match = _LABEL_RE.match(line)
                if not match:
                    break
                self._emit(LabelDef(match.group(1), lineno))
                line = match.group(2).strip()
            if not line:
                continue
            if line.startswith("."):
                directive_handled = self._directive(line, lineno)
                if directive_handled:
                    continue
            self._instruction(line, lineno)
        return self.program

    # ------------------------------------------------------------------

    def _emit(self, item):
        self.program.items(self.section).append(item)

    def _directive(self, line: str, lineno: int) -> bool:
        parts = line.split(None, 1)
        name = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if name == ".section":
            self.section = rest.split()[0]
            self.program.items(self.section)
            return True
        if name in (".text", ".data", ".rodata", ".bss"):
            self.section = name
            self.program.items(self.section)
            return True
        if name in (".global", ".globl"):
            self.program.globals.add(rest.strip())
            return True
        if name == ".entry":
            self.program.entry = rest.strip()
            return True
        if name in (".equ", ".set"):
            const_name, _, expr = rest.partition(",")
            self.program.constants[const_name.strip()] = \
                self.evaluator.eval(expr.strip(), lineno)
            return True
        if name == ".align":
            self._emit(AlignStmt(self.evaluator.eval(rest, lineno), lineno))
            return True
        if name in (".zero", ".space", ".skip"):
            self._emit(SpaceStmt(self.evaluator.eval(rest, lineno), lineno))
            return True
        if name in (".byte", ".word", ".long", ".quad"):
            size = {".byte": 1, ".word": 2, ".long": 4, ".quad": 8}[name]
            self._emit(self._data_values(rest, size, lineno))
            return True
        if name in (".ascii", ".asciz", ".string"):
            data = self._parse_string(rest, lineno)
            if name in (".asciz", ".string"):
                data += b"\x00"
            self._emit(DataStmt([data], lineno))
            return True
        return False

    def _data_values(self, rest: str, size: int, lineno: int) -> DataStmt:
        stmt = DataStmt([], lineno)
        for item in _split_operands(rest):
            value = self._try_const(item, lineno)
            if value is not None:
                limit = 1 << (size * 8)
                stmt.parts.append((value % limit).to_bytes(size, "little"))
                continue
            sym, addend = self._symbol_with_addend(item, lineno)
            stmt.parts.append((sym, addend, size))
        return stmt

    def _parse_string(self, rest: str, lineno: int) -> bytes:
        rest = rest.strip()
        if len(rest) < 2 or rest[0] != '"' or rest[-1] != '"':
            raise AsmError(f"line {lineno}: expected quoted string")
        body = rest[1:-1]
        return body.encode().decode("unicode_escape").encode("latin-1")

    def _try_const(self, text: str, lineno: int):
        try:
            return self.evaluator.eval(text, lineno)
        except AsmError:
            return None

    def _symbol_with_addend(self, text: str, lineno: int):
        match = re.match(r"^([.\w$@]+)\s*([+-]\s*\d+|[+-]\s*0x[0-9a-fA-F]+)?$",
                         text.strip())
        if not match or not _NAME_RE.match(match.group(1)):
            raise AsmError(f"line {lineno}: bad symbol reference {text!r}")
        addend = 0
        if match.group(2):
            addend = int(match.group(2).replace(" ", ""), 0)
        return match.group(1), addend

    # ------------------------------------------------------------------

    def _instruction(self, line: str, lineno: int):
        parts = line.split(None, 1)
        mnemonic_text = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""
        cond = None
        if mnemonic_text in _COND_MNEMONICS:
            base, suffix = _COND_MNEMONICS[mnemonic_text]
            mnemonic = base
            cond = cond_from_suffix(suffix)
        elif mnemonic_text in _PLAIN_MNEMONICS:
            mnemonic = _PLAIN_MNEMONICS[mnemonic_text]
        elif mnemonic_text == "movabs":
            mnemonic = Mnemonic.MOV
        else:
            raise AsmError(f"line {lineno}: unknown mnemonic "
                           f"{mnemonic_text!r}")
        operands = [self._operand(text, lineno, mnemonic)
                    for text in _split_operands(operand_text)]
        operands = _fix_memory_sizes(operands)
        if mnemonic_text == "movabs" and len(operands) == 2 and \
                isinstance(operands[1], Imm):
            operands[1] = Imm(operands[1].value, 8)
        try:
            instruction = Instruction(mnemonic, tuple(operands), cond=cond)
        except ValueError as exc:
            raise AsmError(f"line {lineno}: {exc}") from None
        self._emit(InsnStmt(instruction, lineno))

    def _operand(self, text: str, lineno: int, mnemonic: Mnemonic):
        text = text.strip()
        lowered = text.lower()
        # size-annotated memory operand
        size = None
        match = re.match(r"^(byte|word|dword|qword)\s+ptr\s+(.*)$", lowered)
        if match:
            size = _SIZE_KEYWORDS[match.group(1)]
            text = text[match.end(1):].strip()
            assert text.lower().startswith("ptr")
            text = text[3:].strip()
        if text.startswith("["):
            if not text.endswith("]"):
                raise AsmError(f"line {lineno}: unterminated memory operand")
            return self._memory(text[1:-1].strip(), size, lineno)
        if size is not None:
            raise AsmError(f"line {lineno}: size prefix on non-memory "
                           f"operand {text!r}")
        if is_register_name(text):
            return Reg(reg(text))
        if lowered.startswith("offset "):
            sym, addend = self._symbol_with_addend(text[7:], lineno)
            return Label(sym, addend)
        value = self._try_const(text, lineno)
        if value is not None:
            return Imm(value)
        sym, addend = self._symbol_with_addend(text, lineno)
        return Label(sym, addend)

    def _memory(self, body: str, size, lineno: int) -> Mem:
        rip_relative = False
        if body.lower().startswith("rel "):
            rip_relative = True
            body = body[4:].strip()
        base = index = None
        scale = 1
        disp = 0
        sym_disp = None
        terms = re.findall(r"[+-]?[^+-]+(?:\s*)", body)
        for term in terms:
            term = term.strip()
            negative = term.startswith("-")
            term_body = term.lstrip("+-").strip()
            if not term_body:
                raise AsmError(f"line {lineno}: empty term in [{body}]")
            star = re.match(r"^(\w+)\s*\*\s*(\d+)$", term_body)
            if star and is_register_name(star.group(1)):
                if negative or index is not None:
                    raise AsmError(f"line {lineno}: bad index in [{body}]")
                index = reg(star.group(1))
                scale = int(star.group(2))
                continue
            star_rev = re.match(r"^(\d+)\s*\*\s*(\w+)$", term_body)
            if star_rev and is_register_name(star_rev.group(2)):
                if negative or index is not None:
                    raise AsmError(f"line {lineno}: bad index in [{body}]")
                index = reg(star_rev.group(2))
                scale = int(star_rev.group(1))
                continue
            if is_register_name(term_body):
                if negative:
                    raise AsmError(f"line {lineno}: negative register term")
                if base is None:
                    base = reg(term_body)
                elif index is None:
                    index = reg(term_body)
                else:
                    raise AsmError(f"line {lineno}: too many registers "
                                   f"in [{body}]")
                continue
            value = self._try_const(term_body, lineno)
            if value is not None:
                disp += -value if negative else value
                continue
            sym, addend = self._symbol_with_addend(term_body, lineno)
            if sym_disp is not None or negative:
                raise AsmError(f"line {lineno}: bad symbolic term in "
                               f"[{body}]")
            sym_disp = (sym, addend)
        if sym_disp is not None:
            if base is not None or index is not None:
                raise AsmError(
                    f"line {lineno}: symbolic displacement cannot be "
                    f"combined with registers in [{body}] (use lea)")
            label = Label(sym_disp[0], sym_disp[1] + disp)
            mem_base = RIP if rip_relative else None
            return Mem(base=mem_base, disp=label, size=size or 0)
        if rip_relative:
            raise AsmError(f"line {lineno}: 'rel' requires a symbol")
        try:
            return Mem(base=base, index=index, scale=scale, disp=disp,
                       size=size or 0)
        except ValueError as exc:
            raise AsmError(f"line {lineno}: {exc} in [{body}]") from None


def _fix_memory_sizes(operands):
    """Give unannotated memory operands the width of a register peer.

    ``mov [rbx], rax`` infers a qword access; a lone unannotated memory
    operand defaults to 8 bytes.
    """
    reg_size = None
    for operand in operands:
        if isinstance(operand, Reg):
            reg_size = operand.size
            break
    fixed = []
    for operand in operands:
        if isinstance(operand, Mem) and operand.size == 0:
            fixed.append(Mem(operand.base, operand.index, operand.scale,
                             operand.disp, reg_size or 8))
        else:
            fixed.append(operand)
    return fixed


def parse_source(text: str) -> Program:
    """Parse assembly source into a :class:`Program`."""
    return Parser().parse(text)
