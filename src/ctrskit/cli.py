"""Command-line interface.

Exit codes: 0 for success (or a YES verdict), 1 for NO (or a failed check),
2 for MAYBE (or a check that passed only within bounds), 3 for input or
usage errors, 4 for an internal error (a proof alarm or an unexpected
exception), so that a crash never reads as a verdict.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checker import (
    DEFAULT_SEED_SIZE,
    ProofAlarm,
    SimulationAlarm,
    check_simulation,
    prove_quasi_decreasing,
    validate_witness_order,
)
from .csrewrite import MuEngine, enumerate_original_terms, explore
from .ctrs import DEFAULT_FUEL, ConditionalEngine, Dctrs, Fuel
from .fmt import (
    ParseError,
    ValidationError,
    as_dctrs,
    parse_ctrs,
    parse_problem,
    parse_term,
    print_csrs,
    print_ctrs,
)
from .report import (
    graph_dict,
    graph_dot,
    outcome_dict,
    to_json,
    witness_report_dict,
)
from .terms import ReplacementMap, term_to_str
from .unravel import Csrs, unravel, unravel_cs

EXIT_YES = 0
EXIT_NO = 1
EXIT_MAYBE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


def _positive_int(text: str) -> int:
    """An argparse type: rejecting here names the flag in the message."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_fuel_flags(parser: argparse.ArgumentParser) -> None:
    for flag, default, text in (
        ("--max-level", DEFAULT_FUEL.max_level, "condition discharge depth"),
        ("--max-steps", DEFAULT_FUEL.max_steps, "node expansions per search"),
        ("--max-term-size", DEFAULT_FUEL.max_term_size, "term size cap"),
    ):
        parser.add_argument(flag, type=_positive_int, default=default, help=text)


def _fuel_from(args: argparse.Namespace) -> Fuel:
    return Fuel(args.max_level, args.max_steps, args.max_term_size)


def _load_problem(path: str):
    return parse_problem(Path(path).read_text(), path)


def _write_or_print(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        parse_ctrs(Path(args.file).read_text(), args.file)
    except ValidationError as err:
        for violation in err.violations:
            print(violation, file=sys.stderr)
        return EXIT_NO
    print(f"{args.file}: valid deterministic conditional system")
    return EXIT_YES


def _cmd_unravel(args: argparse.Namespace) -> int:
    system = parse_ctrs(Path(args.file).read_text(), args.file)
    if args.cs:
        text = print_csrs(unravel_cs(system))
    else:
        text = print_ctrs(unravel(system))
    _write_or_print(text, args.output)
    return EXIT_YES


def _as_csrs(problem) -> Csrs:
    system = problem.system
    if isinstance(system, Csrs):
        return system
    if isinstance(system, Dctrs):
        return unravel_cs(system)
    return Csrs(
        system.signature, system.rules, ReplacementMap.full(system.signature)
    )


def _cmd_rewrite(args: argparse.Namespace) -> int:
    problem = _load_problem(args.file)
    term = parse_term(args.term, problem)
    fuel = _fuel_from(args)
    if isinstance(problem.system, Dctrs) and not args.mu:
        engine = ConditionalEngine(problem.system, fuel)
        succ, reducts = engine.all_steps, engine.targets
    else:
        # No condition search, so no bound cuts these steps; plain TRS inputs
        # rewrite under the full replacement map.
        mu = MuEngine(_as_csrs(problem))
        succ = lambda t: (mu.steps(t), False)
        reducts = lambda t: (mu.targets(t), False)

    stopped = False
    if args.successors:
        steps, cut = succ(term)
        for step in steps:
            print(step)
        if not steps:
            print("no successors found within bounds" if cut else "no successors (normal form)")
        elif cut:
            print("note: the step search hit its bounds; more successors may exist")
    else:
        trace = [term]
        seen = {term}
        for _ in range(fuel.max_steps):
            targets, cut = reducts(trace[-1])
            if not targets:
                break
            trace.append(targets[0])
            if trace[-1] in seen:
                break
            seen.add(trace[-1])
        else:
            # The budget is spent; the trace is whole only at a normal form.
            targets, cut = reducts(trace[-1])
            stopped = bool(targets)
        print(" ->\n".join(f"  {term_to_str(t)}" for t in trace))
        cut = cut and not targets
        if cut:
            print("note: the step search hit its bounds at the last term")
        if stopped:
            print(f"note: the trace stopped after {fuel.max_steps} steps (--max-steps)")

    if args.dot or args.graph_json:
        # Graph export always uses the active-position relation (for plain
        # TRS inputs the replacement map is full, so they coincide).
        graph, verdict = explore(term, _as_csrs(problem), fuel)
        if args.dot:
            _write_or_print(graph_dot(graph), args.dot)
        if args.graph_json:
            _write_or_print(to_json(graph_dict(graph, verdict)), args.graph_json)
    return EXIT_MAYBE if cut or stopped else EXIT_YES


def _cmd_simulate(args: argparse.Namespace) -> int:
    problem = _load_problem(args.file)
    system = as_dctrs(problem)
    term = parse_term(args.start, problem)
    fuel = _fuel_from(args)
    engine = ConditionalEngine(system, fuel)
    cs = unravel_cs(system)
    mu_engine = MuEngine(cs)
    steps, exhausted = engine.all_steps(term)
    if not steps:
        print("no conditional steps from the given term")
        return EXIT_MAYBE if exhausted else EXIT_YES
    code = EXIT_YES
    for step in steps:
        print(f"step: {step}")
        try:
            result = check_simulation(step, cs, fuel, engine=mu_engine)
        except SimulationAlarm as alarm:
            print(f"  ALARM: {alarm}", file=sys.stderr)
            code = EXIT_NO
            continue
        if result.found:
            print(f"  simulation ({len(result.reduction)} mu-steps): {result.reduction}")
        else:
            print("  simulation not found within bounds")
            code = max(code, EXIT_MAYBE)
    return code


def _cmd_prove(args: argparse.Namespace) -> int:
    system = parse_ctrs(Path(args.file).read_text(), args.file)
    fuel = _fuel_from(args)
    try:
        outcome = prove_quasi_decreasing(system, fuel, seed_size=args.seeds_size)
    except ProofAlarm as alarm:
        print(f"ALARM: {alarm} (methods: {alarm.methods})", file=sys.stderr)
        return EXIT_INTERNAL
    print(f"verdict: {outcome.verdict}")
    print(f"provenance: {outcome.provenance}")
    for line in outcome.diagnostics:
        print(f"note: {line}")
    if args.json:
        _write_or_print(to_json(outcome_dict(outcome)), args.json)
    return {"YES": EXIT_YES, "NO": EXIT_NO, "MAYBE": EXIT_MAYBE}[outcome.verdict]


def _cmd_check_witness(args: argparse.Namespace) -> int:
    system = parse_ctrs(Path(args.file).read_text(), args.file)
    fuel = _fuel_from(args)
    seeds = enumerate_original_terms(system.signature, args.seeds_size)
    report = validate_witness_order(system, seeds, fuel)
    for obligation in report.obligations:
        print(obligation)
        for failure in obligation.failures[:5]:
            print(f"    {failure}")
    if report.incomplete:
        print("note: some searches hit their bounds; the sample is incomplete")
    if args.json:
        _write_or_print(to_json(witness_report_dict(report)), args.json)
    if not report.ok:
        return EXIT_NO
    return EXIT_MAYBE if report.incomplete else EXIT_YES


def _cmd_experiment(args: argparse.Namespace) -> int:
    # Only this command needs the batch runner.
    from .experiment import load_config, run_experiment

    config = load_config(args.config)
    if args.seeds_size is not None:
        config.seed_size = args.seeds_size
    report = run_experiment(args.directory, config)
    width = max([len(r.system) for r in report.rows] + [6])
    print(f"{'system':<{width}}  {'verdict':<7}  {'lpo':<6}  {'loop':<6}  status")
    for row in report.rows:
        print(
            f"{row.system:<{width}}  {row.verdict or '-':<7}  "
            f"{row.methods.get('unravel+lpo', '-'):<6}  "
            f"{row.methods.get('loop-search', '-'):<6}  {row.status}"
        )
    summary = report.summary
    print(
        f"summary: YES={summary['YES']} NO={summary['NO']} "
        f"MAYBE={summary['MAYBE']} error={summary['error']}"
    )
    print(f"note: {report.note}")
    if args.json:
        _write_or_print(to_json(report.to_dict()), args.json)
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctrskit",
        description="Conditional term rewriting toolkit: unravelings, "
        "context-sensitive rewriting, and quasi-decreasingness checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the deterministic-system conditions")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("unravel", help="transform a conditional system")
    p.add_argument("file")
    p.add_argument("--cs", action="store_true", help="emit the context-sensitive variant")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_unravel)

    p = sub.add_parser("rewrite", help="rewrite a term (successors or a trace)")
    p.add_argument("file")
    p.add_argument("-t", "--term", required=True)
    p.add_argument("--mu", action="store_true", help="use the context-sensitive unraveling")
    p.add_argument("--successors", action="store_true", help="list one-step successors")
    p.add_argument("--dot", default=None, help="export the reduction graph as DOT")
    p.add_argument("--graph-json", default=None, help="export the reduction graph as JSON")
    _add_fuel_flags(p)
    p.set_defaults(func=_cmd_rewrite)

    p = sub.add_parser("simulate", help="run steps and their unraveled simulations")
    p.add_argument("file")
    p.add_argument("-s", "--start", required=True)
    _add_fuel_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("prove", help="prove or refute quasi-decreasingness")
    p.add_argument("file")
    p.add_argument("--seeds-size", type=_positive_int, default=DEFAULT_SEED_SIZE)
    p.add_argument("--json", default=None)
    _add_fuel_flags(p)
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("check-witness", help="validate the witness order obligations")
    p.add_argument("file")
    p.add_argument("--seeds-size", type=_positive_int, default=DEFAULT_SEED_SIZE)
    p.add_argument("--json", default=None)
    _add_fuel_flags(p)
    p.set_defaults(func=_cmd_check_witness)

    p = sub.add_parser("experiment", help="run the batch prover over a directory")
    p.add_argument("directory")
    p.add_argument("--json", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seeds-size", type=_positive_int, default=None)
    p.set_defaults(func=_cmd_experiment)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_YES
    try:
        return args.func(args)
    except (ParseError, ValidationError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(cli_main())
