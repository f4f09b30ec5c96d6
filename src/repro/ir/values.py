"""IR value base classes with use-def tracking."""

from __future__ import annotations


from repro.ir.types import IntType


class Value:
    """Anything that can appear as an operand."""

    def __init__(self, vtype, name: str = ""):
        self.type = vtype
        self.name = name
        self.uses: list["object"] = []  # user instructions (with dups)

    def add_use(self, user):
        self.uses.append(user)

    def remove_use(self, user):
        # one occurrence per call; operands may repeat a value
        try:
            self.uses.remove(user)
        except ValueError:
            pass

    @property
    def users(self) -> list:
        """Distinct user instructions in first-use order (operands may
        repeat a value)."""
        return list({id(user): user for user in self.uses}.values())

    def replace_all_uses_with(self, replacement: "Value"):
        for user in list(self.uses):
            user.replace_operand(self, replacement)

    def short_name(self) -> str:
        return f"%{self.name}" if self.name else "%?"

    def __str__(self):
        return self.short_name()


class Constant(Value):
    """Integer constant."""

    def __init__(self, vtype: IntType, value: int):
        super().__init__(vtype)
        limit = 1 << vtype.bits
        value %= limit
        if value >= limit // 2:
            value -= limit
        self.value = value

    @property
    def unsigned(self) -> int:
        return self.value % (1 << self.type.bits)

    def short_name(self) -> str:
        return str(self.value)

    def __repr__(self):
        return f"Constant({self.type} {self.value})"

    def __str__(self):
        return str(self.value)


class Undef(Value):
    """Explicitly undefined value (used by out-of-SSA edge cases)."""

    def short_name(self) -> str:
        return "undef"


class Argument(Value):
    """Function parameter."""

    def __init__(self, vtype, name: str, index: int):
        super().__init__(vtype, name)
        self.index = index
