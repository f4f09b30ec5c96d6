"""Conditional branch hardening (paper Section V-B, Algorithm 1, Fig. 5).

For every conditional branch ``BB1 -> {BB2, BB3}``:

* each basic block gets a compile-time unique ID,
* the edge checksum ``h = UID_dst ^ UID_src`` is computed at run time
  from the *dynamically evaluated* comparison result using the
  branch-free mask construction of Algorithm 1::

      cmp_ext  = zext(cmp_res)          # i1 -> i64
      mask     = cmp_ext - 1            # 0 if taken-true, ~0 if false
      checksum = (~mask & constTdst) | (mask & constFdst)

* the checksum is computed **twice** (D1, D2) into independent values,
  the comparison itself is re-evaluated (C2) and the branch taken on
  C2,
* each destination prepends two nested validation blocks that ``switch``
  on D1 and D2 against the edge's expected value, diverting to a
  fault-response block (``call @abort``) on mismatch.

The UID->constant XORs are emitted as explicit ``xor`` instructions on
constants (not pre-folded), matching the instruction census the paper
reports in Table IV; running the constant-folding pass afterwards elides
them (see the ablation bench).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.builder import IRBuilder
from repro.ir.instructions import CondBr
from repro.ir.module import BasicBlock, Function, IRModule
from repro.ir.types import I64, VOID
from repro.ir.values import Constant


@dataclass
class HardeningStats:
    """What the pass did (feeds the Table IV / Fig. 5 benches)."""

    branches_hardened: int = 0
    validation_blocks: int = 0
    fault_response_blocks: int = 0
    uids: dict = field(default_factory=dict)  # block name -> uid


class BranchHardening:
    """The hardening pass object (reusable across functions).

    ``branch_filter`` optionally restricts which conditional branches
    are protected (callable ``(block, condbr) -> bool``); the default
    protects every conditional branch, like the paper's holistic
    application.  The selective mode feeds the targeted-vs-holistic
    ablation.
    """

    def __init__(self, uid_seed: int = 0x9E3779B9, branch_filter=None):
        self.uid_seed = uid_seed
        self.branch_filter = branch_filter
        self.stats = HardeningStats()

    # -- UIDs -----------------------------------------------------------------

    def _assign_uids(self, function: Function) -> dict[int, int]:
        """Deterministic, distinct, non-zero UID per basic block.

        UIDs stay below 2^31 so that checksum constants encode as imm32
        on the target (a codegen-size courtesy, not a requirement).
        """
        uids: dict[int, int] = {}
        seen: set[int] = set()
        for index, block in enumerate(function.blocks):
            uid = ((self.uid_seed * (index + 1)) ^ (index << 20)) \
                & 0x7FFF_FFFF
            while uid in seen or uid == 0:
                uid = (uid + 1) & 0x7FFF_FFFF
            seen.add(uid)
            uids[id(block)] = uid
            self.stats.uids[block.name] = uid
        return uids

    # -- pass entry --------------------------------------------------------

    def run(self, target: IRModule | Function) -> bool:
        functions = (target.functions if isinstance(target, IRModule)
                     else [target])
        changed = False
        for function in functions:
            changed |= self._run_function(function)
        return changed

    def _run_function(self, function: Function) -> bool:
        uids = self._assign_uids(function)
        changed = False
        for block in list(function.blocks):
            terminator = block.terminator
            if not isinstance(terminator, CondBr):
                continue
            if self.branch_filter is not None and \
                    not self.branch_filter(block, terminator):
                continue
            self._harden_branch(function, block, terminator, uids)
            changed = True
        return changed

    # -- per-branch rewrite ------------------------------------------------

    def _checksum(self, builder: IRBuilder, cond, uid_src: int,
                  uid_true: int, uid_false: int):
        """One copy of Algorithm 1 (six instructions + two UID xors)."""
        const_true = builder.xor(Constant(I64, uid_true),
                                 Constant(I64, uid_src))
        const_false = builder.xor(Constant(I64, uid_false),
                                  Constant(I64, uid_src))
        cmp_ext = builder.zext(cond, I64)
        mask = builder.sub(cmp_ext, Constant(I64, 1))
        not_mask = builder.not_(mask)
        taken_part = builder.and_(not_mask, const_true)
        fallthrough_part = builder.and_(mask, const_false)
        return builder.or_(taken_part, fallthrough_part)

    def _harden_branch(self, function: Function, block: BasicBlock,
                       terminator: CondBr, uids: dict[int, int]):
        cond = terminator.cond
        true_dst = terminator.if_true
        false_dst = terminator.if_false
        uid_src = uids[id(block)]
        uid_true = uids[id(true_dst)]
        uid_false = uids[id(false_dst)]

        if true_dst is false_dst:
            return  # degenerate branch; nothing to protect

        # build the duplicated checksums before the terminator
        position = block.instructions.index(terminator)
        staging = BasicBlock("staging")  # temporary container
        builder = IRBuilder(staging)
        d1 = self._checksum(builder, cond, uid_src, uid_true, uid_false)
        d2 = self._checksum(builder, cond, uid_src, uid_true, uid_false)
        # re-evaluate the comparison (C2) on a *recloned* computation
        # chain, so C1's operand loads/compares are not shared single
        # points of failure
        c2 = self._clone_chain(builder, cond, depth=8)
        for instruction in staging.instructions:
            instruction.parent = block
            # the whole point is redundancy: CSE must not merge these
            instruction.no_merge = True
        block.instructions[position:position] = staging.instructions

        expected_true = Constant(I64, uid_true ^ uid_src)
        expected_false = Constant(I64, uid_false ^ uid_src)
        # physical layout: false (fall-through) chain directly after the
        # source block, so a skipped `jmp` lands in the right validator
        validated_true = self._validation_chain(
            function, block, true_dst, d1, d2, expected_true, "t",
            after=block)
        validated_false = self._validation_chain(
            function, block, false_dst, d1, d2, expected_false, "f",
            after=block)

        terminator.set_operand(0, c2)
        terminator.replace_successor(true_dst, validated_true)
        terminator.replace_successor(false_dst, validated_false)
        self.stats.branches_hardened += 1

    def _clone_chain(self, builder: IRBuilder, value, depth: int):
        """Clone the instruction DAG producing ``value``.

        Recurses through compares, arithmetic, casts and loads; stops at
        phis, calls, arguments and constants (values whose recomputation
        is either impossible or not meaningful).
        """
        from repro.ir.instructions import (
            BinOp as IRBinOp, ICmp as IRICmp, Load as IRLoad,
            SExt as IRSExt, Trunc as IRTrunc, ZExt as IRZExt)

        if depth <= 0 or not isinstance(
                value, (IRICmp, IRBinOp, IRLoad, IRZExt, IRSExt,
                        IRTrunc)):
            return value

        def clone(operand):
            return self._clone_chain(builder, operand, depth - 1)

        if isinstance(value, IRICmp):
            return builder.icmp(value.pred, clone(value.lhs),
                                clone(value.rhs))
        if isinstance(value, IRBinOp):
            return builder.binop(value.op, clone(value.lhs),
                                 clone(value.rhs))
        if isinstance(value, IRLoad):
            return builder.load(value.type, clone(value.pointer))
        if isinstance(value, IRZExt):
            return builder.zext(clone(value.value), value.type)
        if isinstance(value, IRSExt):
            return builder.sext(clone(value.value), value.type)
        return builder.trunc(clone(value.value), value.type)

    def _validation_chain(self, function: Function, source: BasicBlock,
                          destination: BasicBlock, d1, d2, expected,
                          tag: str, after: BasicBlock) -> BasicBlock:
        """Two nested switch validations + a fault-response block.

        Blocks are placed (in order chk1, chk2, flt_resp) directly after
        ``after``, keeping the fall-through edge physically adjacent.
        """
        base = f"{source.name}_{tag}"
        fault_response = function.add_block(f"flt_resp_{base}",
                                            after=after)
        fault_builder = IRBuilder(fault_response)
        fault_builder.call(VOID, "abort", [])
        fault_builder.unreachable()

        check2 = function.add_block(f"chk2_{base}", after=after)
        builder2 = IRBuilder(check2)
        switch2 = builder2.switch(d2, fault_response)
        switch2.add_case(expected, destination)

        check1 = function.add_block(f"chk1_{base}", after=after)
        builder1 = IRBuilder(check1)
        switch1 = builder1.switch(d1, fault_response)
        switch1.add_case(expected, check2)

        # validation code guards the *source* block's edge: attribute
        # faults landing there back to the source's guest block
        for inserted in (fault_response, check2, check1):
            inserted.copy_guest_origin(source)

        for phi in destination.phis():
            phi.replace_incoming_block(source, check2)

        self.stats.validation_blocks += 2
        self.stats.fault_response_blocks += 1
        return check1


def harden_branches(target: IRModule | Function,
                    uid_seed: int = 0x9E3779B9,
                    branch_filter=None) -> HardeningStats:
    """Run conditional branch hardening; returns pass statistics."""
    hardening = BranchHardening(uid_seed, branch_filter=branch_filter)
    hardening.run(target)
    return hardening.stats
