"""``r2r`` command line: fault, patch, harden, and compare binaries.

Subcommands::

    r2r fault   TARGET --good HEX --bad HEX --marker TEXT
                [--model M] [engine knobs] [-k K]
                [--samples S] [--seed SEED]
    r2r harden  TARGET.elf -o OUT.elf --approach A
                [--evaluate [engine knobs]]
    r2r compare TARGET --approach A [--model M] [engine knobs]
    r2r demo    {pincheck,bootloader} --approach A
    r2r cache   {info,clear} [--cache-dir DIR]
    r2r run     TARGET.elf [--stdin HEX]
    r2r disasm  TARGET.elf

The engine knobs — ``--backend``, ``--workers``, ``--artifact-cache``
and ``--cache-dir`` — are declared once in a shared parent parser and
map onto one :class:`~repro.api.EngineConfig`.  The execution tier
and equivalence reduction are not knobs: every campaign runs compiled,
and every single-fault campaign reduced (``-v`` prints the step split
and the reduction certificate).  ``--approach``
choices derive from the
:data:`repro.hardening.HARDENING_APPROACHES` registry and ``--model``
choices from the fault-model registry, so registered third-party
approaches and models surface on every subcommand without touching
this module.

Exit codes: 0 is a clean verdict and 1 a vulnerable one (``fault``:
a successful fault; ``compare``: residual points after hardening);
``run`` passes the guest's exit status through.  Every subcommand
exits 2 on an error — conflicting engine knobs, a malformed target,
or inputs the oracle rejects (a good input that never grants).

Inputs are passed as hex strings (``--good 31323334``) or with a
``text:`` prefix (``--good text:1234``).  ``fault`` and ``compare``
also accept a bundled workload name (``pincheck``/``bootloader``/
``corpus``/``exitgate``) as TARGET, in which case the workload's own
campaign inputs *and oracle* are used — ``exitgate`` runs the whole
differential loop under an exit-code oracle.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.api import EngineConfig, Target, hardened_elf
from repro.binfmt.reader import read_elf
from repro.disasm import disassemble, pretty_print
from repro.emu.machine import run_executable
from repro.errors import ReproError
from repro.faulter.engine import BACKENDS
from repro.faulter.models import MODELS
from repro.hardening import HARDENING_APPROACHES
from repro.workloads import bootloader, corpus, pincheck

# --model choices come from the model registry, so new fault models
# surface on every subcommand without touching the CLI.
MODEL_CHOICES = sorted(MODELS)

WORKLOADS = {
    "pincheck": pincheck.workload,
    "bootloader": bootloader.workload,
    "corpus": corpus.workload,
    "exitgate": corpus.exitgate_workload,
}


def _decode_input(text: str) -> bytes:
    if text.startswith("text:"):
        return text[5:].encode()
    return bytes.fromhex(text)


def _load(path: str):
    with open(path, "rb") as handle:
        return read_elf(handle.read())


class _AppendOverDefault(argparse.Action):
    """``append`` that *replaces* the parser-declared default.

    Lets the parser own the ``--model`` default (no post-parse
    patching in ``main``) without the classic argparse gotcha of
    appending onto the default list.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        current = getattr(namespace, self.dest, None)
        if current is None or current is self.default:
            current = []
            setattr(namespace, self.dest, current)
        current.append(values)


def _model_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--model", action=_AppendOverDefault,
                        default=["skip"], choices=MODEL_CHOICES,
                        help="fault model(s), repeatable "
                             "(default: skip)")
    return parent


def _campaign_parent(required: bool) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--good", required=required,
                        help="good input (hex or text:...)")
    parent.add_argument("--bad", required=required,
                        help="bad input (hex or text:...)")
    parent.add_argument("--marker", required=required,
                        help="stdout marker of the privileged "
                             "behaviour")
    return parent


def _engine_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("engine knobs")
    group.add_argument("--backend", default=None,
                       choices=sorted(BACKENDS),
                       help="campaign execution backend "
                            "(default: sequential)")
    group.add_argument("--workers", type=int, default=None,
                       help="process count for --backend multiprocess")
    group.add_argument("--artifact-cache", default=None,
                       action=argparse.BooleanOptionalAction,
                       help="cache derivations (trace, flag replay, "
                            "traceflow facts, JIT block sources) in a "
                            "content-addressed on-disk store and load "
                            "them on later campaigns (default: off; "
                            "implied by --cache-dir)")
    group.add_argument("--cache-dir", default=None,
                       help="artifact store root (default: "
                            "$XDG_CACHE_HOME/r2r/artifacts); naming "
                            "one implies --artifact-cache")
    return parent


def _engine_config(args) -> EngineConfig:
    """One EngineConfig from the shared engine flags (validating)."""
    return EngineConfig(
        backend=args.backend,
        workers=args.workers,
        k_faults=getattr(args, "k_faults", 1),
        samples=getattr(args, "samples", 200),
        seed=getattr(args, "seed", 0),
        artifact_cache=args.artifact_cache,
        cache_dir=args.cache_dir)


def _file_target(args) -> Target:
    """Target for a subcommand taking an ELF path plus inputs."""
    return Target(_load(args.target), _decode_input(args.good),
                  _decode_input(args.bad), args.marker.encode(),
                  name=args.target)


def _resolve_target(args, prog: str) -> Target:
    """Target for an ELF path or a bundled workload name."""
    if args.target in WORKLOADS and not os.path.exists(args.target):
        wl = WORKLOADS[args.target]()
        good = (_decode_input(args.good) if args.good
                else wl.good_input)
        bad = _decode_input(args.bad) if args.bad else wl.bad_input
        if args.marker:
            oracle = args.marker.encode()
        elif wl.oracle is not None:
            oracle = wl.oracle
        else:
            oracle = wl.grant_marker
        return Target(wl.build(), good, bad, oracle, name=wl.name)
    missing = [flag for flag, value in (("--good", args.good),
                                        ("--bad", args.bad),
                                        ("--marker", args.marker))
               if not value]
    if missing:
        raise SystemExit(
            f"r2r {prog}: error: {', '.join(missing)} required "
            f"for file targets")
    return _file_target(args)


def _print_reduction(meta: dict) -> None:
    from repro.faulter.reduction import ReductionCertificate
    payload = meta.get("reduction")
    if payload is None:
        return
    print("  " + ReductionCertificate.from_dict(payload).summary())


def _cmd_fault(args) -> int:
    config = _engine_config(args)
    reports = _resolve_target(args, "fault").campaign(args.model, config)
    for report in reports.values():
        print(report.summary())
        if args.verbose:
            meta = report.meta
            print(f"  execution: {meta['compiled_steps']} compiled + "
                  f"{meta['precise_steps']} precise steps, "
                  f"{meta['memo_hits']} memo hits "
                  f"({meta['compile_divergences']} divergences, "
                  f"compile {meta['compile_seconds']}s)")
            print(f"  regions: {meta['regions']} formed, "
                  f"{meta['region_steps']} of the compiled steps in them")
            _print_reduction(meta)
            artifacts = meta.get("artifacts")
            if artifacts and artifacts.get("enabled"):
                print(f"  artifacts: {artifacts['hits']} hit(s), "
                      f"{artifacts['misses']} miss(es), "
                      f"{artifacts['saves']} save(s), derive "
                      f"{artifacts['derive_seconds']}s "
                      f"({artifacts.get('cache_dir', '?')})")
    return 0 if not any(r.vulnerable for r in reports.values()) else 1


def _cmd_harden(args) -> int:
    config = _engine_config(args)
    if not args.evaluate and config != EngineConfig():
        # the knobs drive the evaluation campaigns; a plain harden
        # would silently drop them — refuse instead
        raise ValueError("engine knobs require --evaluate")
    target = _file_target(args)
    if args.evaluate:
        evaluation = target.evaluate(
            approach=args.approach, models=args.model,
            config=config, harden_models=args.model)
        print(evaluation.report())
        result = evaluation.result
    else:
        result = target.harden(approach=args.approach,
                               fault_models=args.model)
        print(result.report())
    with open(args.output, "wb") as handle:
        handle.write(hardened_elf(result))
    print(f"hardened binary written to {args.output}")
    return 0


def _cmd_compare(args) -> int:
    evaluation = _resolve_target(args, "compare").evaluate(
        approach=args.approach, models=args.model,
        config=_engine_config(args), harden_models=args.model)
    print(evaluation.report())
    census = evaluation.diff.counts()
    residual = census["surviving"] + census["introduced"]
    return 0 if residual == 0 else 1


def _cmd_demo(args) -> int:
    wl = (pincheck.workload(rich=args.rich) if args.case == "pincheck"
          else bootloader.workload(rich=args.rich))
    result = wl.target().harden(approach=args.approach,
                                fault_models=args.model)
    print(result.report())
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(hardened_elf(result))
        print(f"hardened binary written to {args.output}")
    return 0


def _cmd_cache(args) -> int:
    from repro.faulter.artifacts import ArtifactStore
    store = ArtifactStore(args.cache_dir)
    if args.action == "info":
        census = store.info()
        print(f"artifact store: {census['root']}")
        print(f"  {census['entries']} entries, "
              f"{census['bytes']} bytes")
        for kind, row in sorted(census["kinds"].items()):
            print(f"  {kind}: {row['entries']} entries, "
                  f"{row['bytes']} bytes")
        return 0
    removed = store.clear()
    print(f"removed {removed} artifact(s) from {store.root}")
    return 0


def _cmd_run(args) -> int:
    stdin = _decode_input(args.stdin) if args.stdin else b""
    result = run_executable(_load(args.target), stdin=stdin)
    sys.stdout.write(result.stdout.decode("latin-1"))
    sys.stderr.write(result.stderr.decode("latin-1"))
    print(f"[{result.reason}] exit={result.exit_code} "
          f"steps={result.steps}", file=sys.stderr)
    return result.exit_code or 0


def _cmd_disasm(args) -> int:
    module = disassemble(_load(args.target), mode=args.mode)
    print(pretty_print(module))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="r2r",
        description="Rewrite to Reinforce: binary rewriting for "
                    "fault-injection countermeasures")
    sub = parser.add_subparsers(dest="command", required=True)

    # shared flag groups (declared once; see module docstring)
    model = _model_parent()
    inputs = _campaign_parent(required=True)
    inputs_optional = _campaign_parent(required=False)
    engine = _engine_parent()
    # --approach choices derive from the registry at parser-build
    # time, so approaches registered before build_parser() show up
    approach_choices = sorted(HARDENING_APPROACHES)

    fault = sub.add_parser("fault", help="run fault campaigns",
                           parents=[inputs_optional, model, engine])
    fault.add_argument("target",
                       help="an ELF path, or a bundled workload "
                            "name (pincheck/bootloader/corpus/"
                            "exitgate)")
    fault.add_argument("-k", "--k-faults", type=int, default=1,
                       help="faults injected per run (k > 1 samples "
                            "k-tuples along the trace)")
    fault.add_argument("--samples", type=int, default=200,
                       help="sampled runs for --k-faults > 1")
    fault.add_argument("--seed", type=int, default=0,
                       help="sampling seed for --k-faults > 1")
    fault.add_argument("-v", "--verbose", action="store_true",
                       help="print per-report execution detail "
                            "(compiled vs precise step split)")
    fault.set_defaults(func=_cmd_fault)

    harden = sub.add_parser("harden", help="harden a binary",
                            parents=[inputs, model, engine])
    harden.add_argument("target")
    harden.add_argument("-o", "--output", required=True)
    harden.add_argument("--approach", default="faulter+patcher",
                        choices=approach_choices)
    harden.add_argument("--evaluate", action="store_true",
                        help="also run the differential evaluation "
                             "loop (baseline campaign, re-fault the "
                             "hardened binary, report eliminated/"
                             "surviving/introduced/unmapped points) "
                             "honouring the engine knobs")
    harden.set_defaults(func=_cmd_harden)

    compare = sub.add_parser(
        "compare",
        help="differential countermeasure evaluation: campaign "
             "before/after hardening, joined through the rewrite's "
             "provenance map",
        parents=[inputs_optional, model, engine])
    compare.add_argument("target",
                         help="an ELF path, or a bundled workload "
                              "name (pincheck/bootloader/corpus/"
                              "exitgate)")
    compare.add_argument("--approach", default="faulter+patcher",
                         choices=approach_choices)
    compare.set_defaults(func=_cmd_compare)

    demo = sub.add_parser("demo", help="harden a bundled case study",
                          parents=[model])
    demo.add_argument("case", choices=["pincheck", "bootloader"])
    demo.add_argument("--approach", default="faulter+patcher",
                      choices=approach_choices)
    demo.add_argument("--rich", action="store_true",
                      help="use the realistically sized variant")
    demo.add_argument("-o", "--output")
    demo.set_defaults(func=_cmd_demo)

    cache = sub.add_parser(
        "cache",
        help="inspect or clear the campaign artifact store")
    cache.add_argument("action", choices=["info", "clear"])
    cache.add_argument("--cache-dir", default=None,
                       help="artifact store root (default: "
                            "$XDG_CACHE_HOME/r2r/artifacts)")
    cache.set_defaults(func=_cmd_cache)

    run = sub.add_parser("run", help="run a binary in the emulator")
    run.add_argument("target")
    run.add_argument("--stdin", help="stdin bytes (hex or text:...)")
    run.set_defaults(func=_cmd_run)

    disasm = sub.add_parser("disasm",
                            help="reassembleable disassembly to stdout")
    disasm.add_argument("target")
    disasm.add_argument("--mode", default="refined",
                        choices=["refined", "naive"])
    disasm.set_defaults(func=_cmd_disasm)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ReproError) as exc:
        # bad knobs or inputs, a malformed target, a refused campaign:
        # exit 2, never 1, which means "vulnerable"
        print(f"r2r {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
