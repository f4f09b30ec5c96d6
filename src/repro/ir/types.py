"""IR type system: integers, an opaque pointer, void, functions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class IntType:
    bits: int

    def __str__(self):
        return f"i{self.bits}"

    @property
    def mask(self) -> int:
        return (1 << self.bits) - 1


@dataclass(frozen=True)
class PointerType:
    def __str__(self):
        return "ptr"


@dataclass(frozen=True)
class VoidType:
    def __str__(self):
        return "void"


@dataclass(frozen=True)
class FunctionType:
    ret: object
    params: Tuple[object, ...] = ()

    def __str__(self):
        params = ", ".join(str(p) for p in self.params)
        return f"{self.ret} ({params})"


I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
PTR = PointerType()
VOID = VoidType()


def int_type(bits: int) -> IntType:
    return {1: I1, 8: I8, 16: I16, 32: I32, 64: I64}.get(bits,
                                                         IntType(bits))
