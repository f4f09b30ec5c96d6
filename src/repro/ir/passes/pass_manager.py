"""Sequential pass manager with verification between passes."""

from __future__ import annotations

from typing import Callable, Sequence

from repro.ir.module import Function, IRModule
from repro.ir.verifier import verify

FunctionPass = Callable[[Function], bool]


class PassManager:
    """Runs function passes in order; optionally verifies after each."""

    def __init__(self, passes: Sequence[tuple[str, FunctionPass]] = (),
                 verify_each: bool = True):
        self.passes: list[tuple[str, FunctionPass]] = list(passes)
        self.verify_each = verify_each

    def add(self, name: str, function_pass: FunctionPass):
        self.passes.append((name, function_pass))
        return self

    def run(self, target: IRModule | Function) -> bool:
        functions = (target.functions if isinstance(target, IRModule)
                     else [target])
        changed_any = False
        for function in functions:
            for _, function_pass in self.passes:
                changed_any |= bool(function_pass(function))
                if self.verify_each:
                    verify(function)
        return changed_any


def standard_cleanup() -> PassManager:
    """The default lift-side pipeline: mem2reg + folding + DCE + CFG."""
    from repro.ir.passes.constfold import constant_fold
    from repro.ir.passes.dce import dce
    from repro.ir.passes.mem2reg import mem2reg
    from repro.ir.passes.simplifycfg import simplify_cfg
    return PassManager([
        ("mem2reg", mem2reg),
        ("simplifycfg", simplify_cfg),
        ("constfold", constant_fold),
        ("dce", dce),
        ("simplifycfg", simplify_cfg),
        ("dce", dce),
    ])
