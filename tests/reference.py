"""The paper's literal fault-simulation protocol: the tests' oracle.

For every point of a fault space: start a fresh machine on the bad
input, inject the point's faults at their absolute trace steps, run to
the step budget, and classify the result.  No JIT, no snapshot, no
reduction, no reordering — obviously correct and slow, so every
engine strategy (streaming windows, the master walk, the worker
fleet, chunking, equivalence reduction) is checked for bit-identity
against it.  Only execution is re-implemented: the
points come from the space's own enumeration over the faulter's
bad-input trace, and the report rows from the engine's ``Fault``
records, so the comparison isolates how each point was run.
"""

from repro.emu.machine import Machine
from repro.faulter.engine import CampaignEngine
from repro.faulter.models import model_by_name
from repro.faulter.report import CampaignReportBuilder
from repro.faulter.space import SUFFIX_CAP, ExhaustiveSpace


def reference_outcomes(faulter, model, space=None):
    """Yield ``(point, outcome)`` for every point, in enumeration
    order."""
    if isinstance(model, str):
        model = model_by_name(model)
    space = space if space is not None else ExhaustiveSpace()
    cap = faulter.continuation_cap
    for point in space.enumerate(faulter.engine().context(model)):
        machine = Machine(faulter.image, stdin=faulter.bad_input)
        plan = {step: model.effect(detail)
                for step, detail in zip(point.steps, point.details)}
        if space.cap_policy == SUFFIX_CAP:
            budget = point.first_step + cap
        else:
            budget = max(1, cap)
        result = machine.run(max_steps=budget, fault_plan=plan,
                             watches=faulter.watches)
        yield point, faulter.classify(result)


def reference_report(faulter, model, space=None, target=None,
                     collect_outcomes=False):
    """The :class:`CampaignReport` the engine must reproduce exactly
    (report equality ignores ``meta``)."""
    if isinstance(model, str):
        model = model_by_name(model)
    ctx = faulter.engine().context(model)
    builder = CampaignReportBuilder(
        target=target if target is not None else faulter.name,
        model=model.name,
        trace_length=len(ctx.trace),
        fault_for=lambda p: CampaignEngine._fault_for(p, ctx, model),
        collect_outcomes=collect_outcomes,
    )
    for point, outcome in reference_outcomes(faulter, model, space):
        builder.add(point, outcome)
    return builder.finish()
