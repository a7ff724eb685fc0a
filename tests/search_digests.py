"""SHA-256 digests of canonical JSON for every search-driven public result.

The digests pin reduction graphs and verdicts from ``explore``, witness-order
reports, the experiment JSON, and the conditional engine's steps,
reachability and simulation answers on seeded random systems.  Any change in
a step order, a substitution, a level or an ``exhausted`` flag changes a
digest.  ``tests/test_search_equivalence.py`` recomputes them and compares
with ``tests/search_equivalence.json``.

Regenerate the fixture from the root of a checkout whose behaviour is known
to be right (the fixture must only ever change on purpose):

    PYTHONPATH=src python tests/search_digests.py > tests/search_equivalence.json
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ctrskit as ck
from ctrskit.checker import SimulationAlarm, check_simulation, validate_witness_order
from ctrskit.csrewrite import MuEngine, enumerate_original_terms, explore
from ctrskit.ctrs import ConditionalEngine, Fuel
from ctrskit.experiment import ExperimentConfig, run_experiment
from ctrskit.report import graph_dict, witness_report_dict
from ctrskit.terms import term_to_str
from ctrskit.unravel import unravel_cs

from test_checker import _random_dctrs

CORPUS = Path(ck.corpus_dir())
EXPLORE_SEED_SIZE = 3
# The last three loop, which pins the cycle that obligation 1 reports.
WITNESS_SYSTEMS = (
    "bubble_sort", "even_odd", "minus_le", "parity_cond", "cond_loop", "self_loop", "two_step_loop"
)
WITNESS_SEED_SIZE = 4
EXPERIMENT_SEED_SIZE = 3
RANDOM_SYSTEMS = 20
RANDOM_FUEL = Fuel(4, 200, 60)
RANDOM_SEED_SIZE = 3
RANDOM_SOURCES = 6  # reachability from the seeds of sizes 1 and 2 ...
RANDOM_GOALS = 2  # ... to the two constants; every seed also reaches its last reduct
RANDOM_SIMULATED_STEPS = 6
# Systems on which the conditional engine's memos decide answers because
# max_steps binds: (seed, n) is the n-th system that one random.Random(seed)
# draws, the order in which perfbench's cond_simulation workload draws them.
BUDGET_SYSTEMS = ((7, 4), (7, 11), (12, 10))


def digest(document) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _corpus(name: str) -> ck.Dctrs:
    path = CORPUS / f"{name}.ctrs"
    return ck.parse_ctrs(path.read_text(), str(path))


def _step(step) -> dict:
    """Every field of a step, as text that does not depend on the process."""
    return {
        "source": term_to_str(step.source),
        "target": term_to_str(step.target),
        "position": list(step.position),
        "rule": step.rule_id,
        "subst": sorted((v, term_to_str(t)) for v, t in step.subst.items()),
        "kind": step.kind,
        "level": step.level,
    }


def _reduction(reduction):
    if reduction is None:
        return None
    return {"start": term_to_str(reduction.start), "steps": [_step(s) for s in reduction.steps]}


def explore_document(name: str) -> list:
    system = _corpus(name)
    cs = unravel_cs(system)
    return [
        graph_dict(*explore(seed, cs))
        for seed in enumerate_original_terms(system.signature, EXPLORE_SEED_SIZE)
    ]


def witness_document(name: str) -> dict:
    system = _corpus(name)
    seeds = enumerate_original_terms(system.signature, WITNESS_SEED_SIZE)
    report = validate_witness_order(system, seeds)
    document = witness_report_dict(report)
    document["pairs"] = [[term_to_str(s), term_to_str(t)] for s, t in report.sampled_pairs]
    return document


def experiment_document() -> dict:
    report = run_experiment(str(CORPUS), ExperimentConfig(seed_size=EXPERIMENT_SEED_SIZE))
    document = report.to_dict()
    del document["total_time"]
    for row in document["rows"]:
        del row["wall_time"]
    return document


def drawn_system(seed: int, n: int) -> ck.Dctrs:
    """The ``n``-th system drawn from one ``random.Random(seed)``."""
    rng = random.Random(seed)
    for _ in range(n):
        system = _random_dctrs(rng)
    return system


def random_document(system: ck.Dctrs) -> list:
    engine = ConditionalEngine(system, RANDOM_FUEL)
    cs = unravel_cs(system)
    mu_engine = MuEngine(cs)
    seeds = enumerate_original_terms(system.signature, RANDOM_SEED_SIZE)
    out = []
    for i, seed in enumerate(seeds):
        steps, exhausted = engine.all_steps(seed)
        entry = {"seed": term_to_str(seed), "steps": [_step(s) for s in steps], "exhausted": exhausted}
        goals = list(seeds[:RANDOM_GOALS]) if i < RANDOM_SOURCES else []
        goals += [s.target for s in steps[-1:]]
        entry["reach"] = [
            [_reduction(r.reduction), r.exhausted]
            for r in (engine.reachable(seed, goal) for goal in goals)
        ]
        sims = []
        for step in steps[:RANDOM_SIMULATED_STEPS]:
            try:
                result = check_simulation(step, cs, RANDOM_FUEL, engine=mu_engine)
            except SimulationAlarm as alarm:
                sims.append(["alarm", str(alarm)])
                continue
            sims.append([_reduction(result.reduction), result.exhausted])
        entry["simulations"] = sims
        out.append(entry)
    return out


def cases() -> dict:
    """Case name -> zero-argument function building its document."""
    table = {}
    for path in sorted(CORPUS.glob("*.ctrs")):
        table[f"explore/{path.stem}"] = lambda name=path.stem: explore_document(name)
    for name in WITNESS_SYSTEMS:
        table[f"witness/{name}"] = lambda name=name: witness_document(name)
    table["experiment"] = experiment_document
    for k in range(RANDOM_SYSTEMS):
        table[f"random/{k}"] = lambda k=k: random_document(drawn_system(k, 1))
    for seed, n in BUDGET_SYSTEMS:
        table[f"random/{seed}/{n}"] = lambda seed=seed, n=n: random_document(drawn_system(seed, n))
    return table


def main() -> None:
    digests = {name: digest(build()) for name, build in cases().items()}
    sys.stdout.write(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
