"""The benchmark's workloads: inputs, one timed pass, and output checks.

Each workload is a closed loop on one thread: every call into ctrskit starts
when the previous one has returned.  A workload provides

* ``prepare(ck, seed)``: parse, validate and unravel the inputs (set-up);
* ``run(ck, inputs)``: one full pass, the part that is timed;
* ``check(ck, inputs, output)``: re-check every answer of a pass without
  trusting ctrskit's own verdicts, returning a :class:`Checked`.

``ck`` is the imported ``ctrskit`` package.  Functions are looked up on it at
call time, so the traced run sees every call the pass makes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import gen_dctrs

HERE = Path(__file__).resolve().parent
KNOWN = json.loads((HERE / "known_answers.json").read_text())


@dataclass
class Checked:
    """Outcome of checking one pass."""

    attempted: int = 0
    failed: int = 0
    definite: int = 0
    answers: list = field(default_factory=list)  # digest material, order-free
    problems: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def _read_term(ck, text: str, symbols: dict):
    """Parse ``term_to_str`` output; ``symbols`` maps (name, arity) to the
    signature's symbols and other bare names are variables.  Kept apart from
    ctrskit's parser so that the re-check is independent of it."""
    pos = 0

    def term():
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos] not in "(),":
            pos += 1
        name = text[start:pos]
        args = []
        if pos < len(text) and text[pos] == "(":
            pos += 1
            args.append(term())
            while text[pos] == ",":
                pos += 1
                args.append(term())
            if text[pos] != ")":
                raise ValueError(f"expected ')' at {pos} in {text!r}")
            pos += 1
        sym = symbols.get((name, len(args)))
        if sym is None:
            if args:
                raise ValueError(f"unknown symbol {name}/{len(args)} in {text!r}")
            return ck.Var(name)
        return ck.App(sym, tuple(args))

    result = term()
    if pos != len(text):
        raise ValueError(f"trailing input in {text!r}")
    return result


def _read_position(text: str) -> tuple:
    return () if text == "e" else tuple(int(i) for i in text.split("."))


# ---------------------------------------------------------------------------
# corpus_prove: `ctrskit experiment CORPUS --seeds-size 6 --json OUT`

CORPUS_SEED_SIZE = 6


def corpus_prepare(ck, seed: int) -> dict:
    systems = {}
    for path in sorted(Path(ck.corpus_dir()).glob("*.ctrs")):
        system = ck.parse_ctrs(path.read_text(), str(path))
        systems[path.stem] = (system, ck.unravel(system), ck.unravel_cs(system))
    return systems


def corpus_run(ck, inputs: dict) -> str:
    config = ck.experiment.ExperimentConfig(seed_size=CORPUS_SEED_SIZE, workers=1)
    report = ck.experiment.run_experiment(ck.corpus_dir(), config)
    return ck.report.to_json(report.to_dict())


def _check_precedence(ck, cert: dict, trs) -> bool:
    by_name = {s.name: s for s in trs.signature}
    if sorted(cert["order"]) != sorted(by_name):
        return False
    order = tuple(by_name[name] for name in cert["order"])
    return ck.orients(trs, ck.Precedence(order))


def _check_loop(ck, cert: dict, cs) -> str:
    """Re-derive a loop certificate from its JSON; returns "" or the defect."""
    symbols = {(s.name, s.arity): s for s in cs.signature}
    rules = {r.id: r for r in cs.rules}
    loop = cert["loop"]
    here = _read_term(ck, cert["seed"], symbols)
    if not ck.is_original(here) or _read_term(ck, loop["start"], symbols) != here:
        return "loop does not start at an original seed"
    seen = [here]
    for entry in loop["steps"]:
        source = _read_term(ck, entry["source"], symbols)
        target = _read_term(ck, entry["target"], symbols)
        position = _read_position(entry["position"])
        rule = rules.get(entry["rule"])
        if source != here or rule is None:
            return f"step {entry} does not chain or names an unknown rule"
        if position not in ck.active_positions(source, cs.mu):
            return f"step {entry} rewrites at an inactive position"
        redex = ck.subterm_at(source, position)
        sigma = ck.match(rule.lhs, redex)
        step = ck.ReductionStep(source, target, position, rule.id, sigma or {})
        if sigma is None or not step.check(rule.lhs, rule.rhs):
            return f"step {entry} does not re-derive"
        here = target
        seen.append(here)
    if len(loop["steps"]) == 0 or here not in seen[:-1]:
        return "last term does not repeat an earlier one"
    return ""


def corpus_check(ck, inputs: dict, output: str) -> Checked:
    out = Checked()
    rows = {row["system"]: row for row in json.loads(output)["rows"]}
    qd = set(KNOWN["quasi_decreasing"])
    for name in sorted(qd | set(KNOWN["not_quasi_decreasing"]) | set(rows)):
        out.attempted += 1
        row = rows.get(name)
        if row is None:
            out.fail(f"{name}: no row in the report")
            continue
        verdict = row["verdict"]
        cert = row["certificate"] or {}
        out.answers.append([name, row["status"], verdict, cert.get("type")])
        if row["status"] != "ok" or name not in inputs:
            out.fail(f"{name}: status {row['status']}")
            continue
        _, trs, cs = inputs[name]
        if verdict == "YES":
            if name not in qd:
                out.fail(f"{name}: YES for a system that is not quasi-decreasing")
            elif not _check_precedence(ck, cert, trs):
                out.fail(f"{name}: precedence certificate does not orient the unraveling")
            else:
                out.definite += 1
        elif verdict == "NO":
            if name in qd:
                out.fail(f"{name}: NO for a quasi-decreasing system")
                continue
            defect = _check_loop(ck, cert, cs)
            if defect:
                out.fail(f"{name}: {defect}")
            else:
                out.definite += 1
        elif verdict != "MAYBE":
            out.fail(f"{name}: verdict {verdict}")
    return out


# ---------------------------------------------------------------------------
# cond_simulation: random DCTRSs, every conditional step simulated

SIM_SYSTEMS = 12
SIM_TERM_SIZE = 3
SIM_STEPS_PER_TERM = 6


def _sim_fuel(ck):
    return ck.Fuel(max_level=4, max_steps=200, max_term_size=60)


def sim_prepare(ck, seed: int) -> list:
    systems = []
    for text in gen_dctrs.random_systems(seed, SIM_SYSTEMS):
        system = ck.parse_ctrs(text)
        systems.append((system, ck.unravel_cs(system)))
    return systems


def sim_run(ck, inputs: list) -> list:
    """Per system: for each ground term, its steps with the exhausted flag and
    the simulation result (or the exception) of the first steps."""
    fuel = _sim_fuel(ck)
    out = []
    for system, cs in inputs:
        engine = ck.ConditionalEngine(system, fuel)
        mu_engine = ck.MuEngine(cs)
        per_term = []
        for term in ck.enumerate_original_terms(system.signature, SIM_TERM_SIZE):
            try:
                steps, exhausted = engine.all_steps(term)
            except Exception as err:  # counted as a failed operation
                per_term.append((term, err, False, []))
                continue
            sims = []
            for step in steps[:SIM_STEPS_PER_TERM]:
                try:
                    sims.append(ck.check_simulation(step, cs, fuel, engine=mu_engine))
                except Exception as err:  # SimulationAlarm included
                    sims.append(err)
            per_term.append((term, steps, exhausted, sims))
        out.append(per_term)
    return out


def _step_key(ck, step) -> list:
    return [
        ck.term_to_str(step.source),
        ck.term_to_str(step.target),
        ck.format_position(step.position),
        step.rule_id,
    ]


def _check_simulating(ck, step, reduction, cs) -> str:
    if reduction.start != step.source or reduction.end != step.target or not reduction.steps:
        return "does not lead from the step's source to its target"
    rules = {r.id: r for r in cs.rules}
    here = step.source
    for mu_step in reduction.steps:
        rule = rules.get(mu_step.rule_id)
        if mu_step.source != here or rule is None:
            return f"mu-step {mu_step} does not chain"
        if mu_step.position not in ck.active_positions(here, cs.mu):
            return f"mu-step {mu_step} is at an inactive position"
        if not mu_step.check(rule.lhs, rule.rhs):
            return f"mu-step {mu_step} does not re-derive"
        here = mu_step.target
    return ""


def sim_check(ck, inputs: list, output: list) -> Checked:
    out = Checked()
    for index, ((system, cs), per_term) in enumerate(zip(inputs, output)):
        rules = {r.id: r for r in system.rules}
        for term, steps, exhausted, sims in per_term:
            if isinstance(steps, Exception):
                out.attempted += 1
                out.fail(f"system {index}: all_steps raised {steps!r}")
                continue
            out.answers.append([index, ck.term_to_str(term), "exhausted", bool(exhausted)])
            for step in steps:
                out.answers.append([index, "step"] + _step_key(ck, step))
            for step, result in zip(steps, sims):
                out.attempted += 1
                where = f"system {index}: {step}"
                rule = rules.get(step.rule_id)
                if step.source != term or rule is None or not step.check(rule.lhs, rule.rhs):
                    out.fail(f"{where}: conditional step does not re-derive")
                    continue
                if isinstance(result, Exception):
                    out.fail(f"{where}: {result!r}")
                    continue
                out.answers.append([index, "found"] + _step_key(ck, step) + [result.found])
                if not result.found:
                    continue
                defect = _check_simulating(ck, step, result.reduction, cs)
                if defect:
                    out.fail(f"{where}: simulation {defect}")
                else:
                    out.definite += 1
    return out


# ---------------------------------------------------------------------------
# witness_order: `ctrskit check-witness FILE --seeds-size 6` on four systems

WITNESS_SYSTEMS = ("bubble_sort", "even_odd", "minus_le", "parity_cond")
WITNESS_SEED_SIZE = 6


def witness_prepare(ck, seed: int) -> list:
    systems = []
    for name in WITNESS_SYSTEMS:
        path = Path(ck.corpus_dir()) / f"{name}.ctrs"
        system = ck.parse_ctrs(path.read_text(), str(path))
        # Unraveled as set-up is defined; the validation unravels again inside
        # the pass, as `ctrskit check-witness` does.
        ck.unravel_cs(system)
        systems.append((name, system))
    # The order of the four validations is the only input the seed varies.
    random.Random(seed).shuffle(systems)
    return systems


def witness_run(ck, inputs: list) -> list:
    out = []
    for name, system in inputs:
        seeds = ck.enumerate_original_terms(system.signature, WITNESS_SEED_SIZE)
        try:
            out.append((name, len(seeds), ck.validate_witness_order(system, seeds)))
        except Exception as err:  # counted as a failed operation
            out.append((name, len(seeds), err))
    return out


def witness_check(ck, inputs: list, output: list) -> Checked:
    out = Checked()
    qd = set(KNOWN["quasi_decreasing"])
    for name, seed_count, report in output:
        out.attempted += 1
        if isinstance(report, Exception):
            out.fail(f"{name}: raised {report!r}")
            continue
        out.answers.append(
            [
                name,
                seed_count,
                report.ok,
                report.incomplete,
                len(report.sampled_pairs),
                report.obligation(1).checked,
                [ob.checked for ob in report.obligations],
                len(report.chain_instances),
            ]
        )
        if name in qd and not report.ok:
            failures = [f for ob in report.obligations for f in ob.failures]
            out.fail(f"{name}: obligation failed on a quasi-decreasing system: {failures[:2]}")
            continue
        if not report.incomplete:
            out.definite += 1
    return out


@dataclass(frozen=True)
class Workload:
    prepare: object
    run: object
    check: object


WORKLOADS = {
    "corpus_prove": Workload(corpus_prepare, corpus_run, corpus_check),
    "cond_simulation": Workload(sim_prepare, sim_run, sim_check),
    "witness_order": Workload(witness_prepare, witness_run, witness_check),
}
