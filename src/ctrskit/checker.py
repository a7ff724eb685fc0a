"""Executable checks for the toolkit's central claims, and a small sound
prover for quasi-decreasingness.

* simulation: every conditional-system step is covered by a nonempty
  active-position reduction of the unraveled system between the same terms;
  a bounded search that saturates without finding one is an alarm, because
  that would contradict simulation completeness.
* commutation: taking an active subterm commutes over active-position
  rewriting; the check constructs the commuting term rather than asserting
  existence.
* witness order: the candidate order "reduction-or-active-subterm, closed
  transitively, restricted to original terms" is sampled on a reachable
  fragment and checked against the four defining properties of
  quasi-decreasingness.
* prover: YES when a path-order precedence orients the unraveled system
  (termination of the unraveled system is inherited by its context-sensitive
  restriction, so by the characterization the conditional system is
  quasi-decreasing); NO when an active-position loop starts from an original
  term; MAYBE otherwise.  Both methods always run, and the experiment runner
  takes its verdicts from this prover.

Every bounded search here goes through the two primitives of
:mod:`ctrskit.ctrs`: the breadth-first search ``bfs``, which returns the
graph it walked (the witness-order graph) and a node path to its goal, and
the depth-first cycle finder ``dfs`` (the well-foundedness obligation).
Simulations and waypoints are the loop search's ``mu_search`` with a goal:
``check_simulation`` turns its node path into a certificate through
``reduction``; the witness check asks only whether a path exists, so it
builds no steps, and a waypoint's path gives its length.  Per-source
reachability in the finished graph needs no budget, so it is a plain
closure walk, in ``bfs``'s order.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple, Optional, Sequence

from .ctrs import (
    DEFAULT_FUEL,
    ConditionalEngine,
    Dctrs,
    Fuel,
    Reach,
    Reduction,
    ReductionStep,
    bfs,
    dfs,
    expansion_budget,
    reduction,
    within_size,
)
from .csrewrite import MuEngine, enumerate_original_terms, mu_search, mu_terminating_on_seeds
from .lpo import Precedence, SearchRefusedError, orients, search_precedence
from .records import Record
from .terms import (
    App,
    Term,
    active_positions,
    admits,
    apply_subst,
    arg_guard,
    is_original,
    match,
    mu_proper_subterms,
    replace_at,
    subterm_at,
    subterms,
    term_size,
    term_to_str,
)
from .unravel import Csrs, unravel_cs, unravel_rule


class SimulationAlarm(Exception):
    """A saturated search found no simulating reduction: implementation bug."""

    def __init__(self, step: ReductionStep):
        self.step = step
        super().__init__(f"no simulating reduction for {step} despite a saturated search")


def check_simulation(
    step: ReductionStep,
    system: Csrs,
    fuel: Fuel = DEFAULT_FUEL,
    engine: Optional[MuEngine] = None,
) -> Reach:
    """Find a nonempty active-position reduction covering a conditional step.

    Raises :class:`SimulationAlarm` when the search saturates without finding
    one; with a valid input step this cannot happen unless the transformation
    or the engine is wrong.
    """
    eng = engine if engine is not None else MuEngine(system)
    search = mu_search(eng, step.source, fuel, step.target)
    if search.path is None and not search.exhausted:
        raise SimulationAlarm(step)
    found = None if search.path is None else reduction(search.path, eng.step)
    return Reach(found, search.exhausted)


class CommutationError(Exception):
    """Preconditions of the commutation check do not hold."""


def check_commutation(s: Term, t: Term, u: Term, system: Csrs) -> Term:
    """Given s with t as an active proper subterm and a step t -> u, build
    the term v with s -> v at an active position and u an active proper
    subterm of v.  Returns v after verifying both claims."""
    mu = system.mu
    actives = active_positions(s, mu)
    holes = sorted(p for p in actives if p and subterm_at(s, p) == t)
    if not holes:
        raise CommutationError(
            f"{term_to_str(t)} is not an active proper subterm of {term_to_str(s)}"
        )
    engine = MuEngine(system)
    if u not in engine.targets(t):
        raise CommutationError(f"{term_to_str(t)} does not rewrite to {term_to_str(u)}")
    p = holes[0]
    inner = engine.step(t, u)
    v = replace_at(s, p, u)

    lifted = p + inner.position
    if lifted not in actives:
        raise AssertionError("lifted rewrite position is not active in the outer term")
    rule = next(r for r in system.rules if r.id == inner.rule_id)
    if v != replace_at(s, lifted, apply_subst(rule.rhs, inner.subst)):
        raise AssertionError("commuting term disagrees with the lifted step")
    if u not in mu_proper_subterms(v, mu):
        raise AssertionError("rewritten subterm is not active in the commuting term")
    return v


# ---------------------------------------------------------------------------
# Prover


class PrecedenceCert(NamedTuple):
    precedence: Precedence


class LoopCert(NamedTuple):
    loop: Reduction

    @property
    def seed(self) -> Term:
        return self.loop.start


class BoundsExhausted(NamedTuple):
    fuel: Fuel


class ProofOutcome(Record):
    """A verdict ("YES", "NO" or "MAYBE") with its certificate.  ``methods``
    holds the per-method answers: "unravel+lpo" (YES or MAYBE), "loop-search"
    (NO or MAYBE), and "lpo-note" when the precedence search refused the
    system for the size of its signature or the verdicts it needs."""

    __slots__ = ("verdict", "certificate", "provenance", "diagnostics", "methods")
    _defaults = {"diagnostics": list, "methods": dict}

    def _check(self) -> None:
        expected = {"YES": PrecedenceCert, "NO": LoopCert, "MAYBE": BoundsExhausted}
        if not isinstance(self.certificate, expected[self.verdict]):
            raise ValueError(f"{self.verdict} verdict with {type(self.certificate).__name__}")


class ProofAlarm(Exception):
    """The built-in methods contradict each other or a certificate fails to
    re-validate: a soundness bug, never a verdict."""

    def __init__(self, message: str, methods: dict[str, str]):
        super().__init__(message)
        self.methods = methods


# The largest seed term, in nodes, enumerated when no seed size is given.
DEFAULT_SEED_SIZE = 4

_PROVENANCE = {
    "YES": (
        "path order orients the unraveled system; its termination restricts "
        "to mu-termination on original terms, which is equivalent to "
        "quasi-decreasingness"
    ),
    "NO": (
        "an active-position loop starts from an original term, so the "
        "context-sensitive unraveling is not mu-terminating on original "
        "terms, which refutes quasi-decreasingness"
    ),
    "MAYBE": "no orienting precedence and no loop within bounds",
}


def prove_quasi_decreasing(
    system: Dctrs, fuel: Fuel = DEFAULT_FUEL, seed_size: int = DEFAULT_SEED_SIZE
) -> ProofOutcome:
    """Sound YES/NO/MAYBE verdict on quasi-decreasingness.

    YES: a precedence orients every rule of the unraveled system, so the
    unraveled system terminates; its context-sensitive restriction then
    cannot loop either, in particular not from original terms, which is
    equivalent to quasi-decreasingness.  NO: an active-position loop from an
    original term refutes that same property.  Everything else is MAYBE.
    The loop search starts from every original ground term of at most
    ``seed_size`` nodes.

    Both methods always run and ``methods`` records each one's answer.  A
    disagreement, a precedence that fails re-validation, or a loop from a
    non-original term raises :class:`ProofAlarm` instead of a verdict.
    """
    diagnostics: list[str] = []
    methods: dict[str, str] = {}
    unraveled = unravel_cs(system)
    precedence: Optional[Precedence] = None
    try:
        precedence = search_precedence(unraveled)
    except SearchRefusedError as err:
        diagnostics.append(str(err))
        methods["lpo-note"] = str(err)
    else:
        if precedence is None:
            diagnostics.append("exhaustive precedence search cannot orient the unraveled system")
    methods["unravel+lpo"] = "MAYBE" if precedence is None else "YES"

    seeds = enumerate_original_terms(system.signature, seed_size)
    diagnostics.append(f"enumerated {len(seeds)} ground seed terms up to size {seed_size}")
    loops = mu_terminating_on_seeds(seeds, unraveled, fuel)
    methods["loop-search"] = "NO" if loops.is_loop else "MAYBE"
    if not loops.is_loop:
        diagnostics.append(f"loop search over seeds: {loops}")

    if precedence is not None and not orients(unraveled, precedence):
        raise ProofAlarm("precedence certificate failed re-validation", methods)
    if loops.is_loop and not is_original(loops.witness.start):
        raise ProofAlarm("loop witness does not start from an original term", methods)
    if precedence is not None and loops.is_loop:
        raise ProofAlarm("methods disagree: orientation found together with a loop", methods)

    if precedence is not None:
        verdict, certificate = "YES", PrecedenceCert(precedence)
    elif loops.is_loop:
        verdict, certificate = "NO", LoopCert(loops.witness)
    else:
        verdict, certificate = "MAYBE", BoundsExhausted(fuel)
    return ProofOutcome(verdict, certificate, _PROVENANCE[verdict], diagnostics, methods)


# ---------------------------------------------------------------------------
# Witness-order validation


class ObligationResult(Record):
    __slots__ = ("number", "name", "passed", "checked", "failures")
    _defaults = {"failures": list}

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"({self.number}) {self.name}: {status} [{self.checked} checks]"

    def refute(self, failure: str, cut: bool = False) -> None:
        """Fail the obligation with ``failure``, unless a bound ``cut`` the
        evidence short: that only leaves the report incomplete."""
        if not cut:
            self.passed = False
            self.failures.append(failure)


class WitnessOrderReport(Record):
    __slots__ = ("sampled_pairs", "obligations", "incomplete", "notes", "chain_instances")
    _defaults = {"notes": list, "chain_instances": list}

    @property
    def ok(self) -> bool:
        return all(ob.passed for ob in self.obligations)

    def obligation(self, number: int) -> ObligationResult:
        return self.obligations[number - 1]


# Sampling caps of validate_witness_order; its docstring says what each bounds.
MAX_GRAPH_EXPANSIONS = 500_000
MAX_SOURCES = 4000
MAX_PAIRS = 20000
MAX_STEPS_PER_SOURCE = 8
MAX_SOLUTIONS_PER_CONDITION = 3
MAX_RULE_INSTANCES = 400


def _combined_graph(
    seeds: Sequence[Term], fuel: Fuel, engine: MuEngine
) -> tuple[dict[Term, Optional[Term]], dict[Term, list[Term]], bool]:
    """Reachable fragment of "one rewrite step or one active-child step":
    its nodes in BFS order, the successor lists of the expanded nodes, and
    whether a bound cut it short.  A node too large to rewrite still gets its
    active-child edges."""

    def successors(t: Term) -> list[Optional[Term]]:
        out: list[Optional[Term]] = [None]  # too large to rewrite
        if term_size(t) <= fuel.max_term_size:
            out = within_size(engine.targets(t), fuel.max_term_size)
        if isinstance(t, App) and t.args:
            out += [t.args[i - 1] for i in engine._symbol(t.sym)[0]]
        return out

    cap = min(MAX_GRAPH_EXPANSIONS, fuel.max_steps * max(1, len(seeds)))
    search = bfs(seeds, successors, expansion_budget(cap))
    return search.reached, search.succ, search.exhausted


def _closure(starts: Sequence[Term], succ: dict[Term, list[Term]]) -> dict[Term, None]:
    """The nodes reachable from ``starts`` in ``succ``, the starts included,
    as dict keys in breadth-first order: the order ``bfs`` reaches them in."""
    reached = dict.fromkeys(starts)
    queue = list(reached)
    for t in queue:  # grows while it is walked
        for u in succ.get(t, ()):
            if u not in reached:
                reached[u] = None
                queue.append(u)
    return reached


def validate_witness_order(
    system: Dctrs, seeds: Sequence[Term], fuel: Fuel = DEFAULT_FUEL
) -> WitnessOrderReport:
    """Sample the candidate well-founded order on a fragment reachable from
    the seeds and check the four quasi-decreasingness obligations.

    The sampled order relates original terms connected by a nonempty path of
    rewrite steps and active-subterm steps in the unraveled system.  A search
    or graph that a bound cuts short marks the report incomplete, and only
    complete evidence fails an obligation: (1) a cycle through an original
    term, (2) a proper subterm missed in a combined graph that no bound cut,
    (3) a saturated simulation search without a reduction, (4) a saturated
    waypoint search without a path (the waypoint ``U_{i+1}(s_{i+1}, ...)``
    has the next condition source as its first argument, which is active).
    Six module constants cap the sample:
    ``MAX_GRAPH_EXPANSIONS`` (expansions of the combined graph, also held to
    ``fuel.max_steps`` per seed), ``MAX_SOURCES`` (original terms used as
    sources), ``MAX_PAIRS`` (pairs sampled for obligation 2; no source's
    reachability closure is built once it is reached),
    ``MAX_STEPS_PER_SOURCE`` (steps simulated per source for obligation 3),
    and for obligation 4 ``MAX_RULE_INSTANCES`` (left-hand-side instances
    per conditional rule) and ``MAX_SOLUTIONS_PER_CONDITION`` (condition
    solutions tried per instance and condition).  The first marks the report
    incomplete and the second leaves a note; the other four cut the sample
    without a trace.
    """
    for seed in seeds:
        if not is_original(seed):
            raise ValueError(f"seed {term_to_str(seed)} contains unraveling symbols")

    cs = unravel_cs(system)
    mu_engine = MuEngine(cs)
    cond_engine = ConditionalEngine(system, fuel)
    notes: list[str] = []

    nodes, succ, graph_cut = _combined_graph(seeds, fuel, mu_engine)
    incomplete = graph_cut
    original_nodes = [t for t in nodes if is_original(t)]
    if len(original_nodes) > MAX_SOURCES:
        notes.append(f"sampling capped at {MAX_SOURCES} of {len(original_nodes)} original terms")
        original_nodes = original_nodes[:MAX_SOURCES]

    # Obligation 1: the sampled relation is acyclic (bounded stand-in for
    # well-foundedness).
    cycle = dfs(nodes, succ, lambda ts: any(map(is_original, ts))).cycle
    ob1 = ObligationResult(1, "well-founded on original terms", True, len(nodes))
    if cycle is not None:
        # Rotate so the cycle starts at an original term.
        k = next(j for j, t in enumerate(cycle) if is_original(t))
        ob1.refute(" > ".join(term_to_str(t) for t in cycle[k:-1] + cycle[: k + 1]))

    # Sampled pairs and obligation 2 (closure under plain proper subterms on
    # the original side), one source at a time until MAX_PAIRS pairs: the
    # closure of the finished successor lists from the source's successors,
    # so only nonempty paths count, gives the source's pairs in breadth-first
    # order and decides their subterms.  Targets repeat across sources, so
    # each one's proper subterms are listed once; a pair whose subterms are
    # all reached needs no loop.  The check stops at the sixth missed
    # subterm, whether or not it is evidence; the sampling goes on.
    ob2 = ObligationResult(2, "closed under proper subterms", True, 0)
    sampled_pairs: list[tuple[Term, Term]] = []
    proper: dict[Term, tuple[Term, ...]] = {}
    misses = 0
    for source in original_nodes:
        room = MAX_PAIRS - len(sampled_pairs)
        if room <= 0:
            break
        reached = _closure(succ.get(source, ()), succ)
        for target in islice(filter(is_original, reached), room):
            sampled_pairs.append((source, target))
            if misses > 5:
                continue
            subs = proper.get(target)
            if subs is None:
                subs = proper[target] = tuple(islice(subterms(target), 1, None))
            if all(map(reached.__contains__, subs)):
                ob2.checked += len(subs)
                continue
            for sub in subs:
                ob2.checked += 1
                if sub not in reached:
                    misses += 1
                    pair = f"{term_to_str(source)} > {term_to_str(target)}"
                    ob2.refute(f"{pair} but not > {term_to_str(sub)}", graph_cut)
                    if misses > 5:
                        break

    # Obligation 3: every sampled conditional-system step is in the order,
    # witnessed by an explicit simulating reduction.
    ob3 = ObligationResult(3, "contains every rewrite step", True, 0)
    for source in original_nodes:
        steps, exhausted = cond_engine.all_steps(source)
        incomplete = incomplete or exhausted
        for step in steps[:MAX_STEPS_PER_SOURCE]:
            ob3.checked += 1
            search = mu_search(mu_engine, step.source, fuel, step.target)
            if search.path is not None:
                sampled_pairs.append((step.source, step.target))
            elif search.exhausted:  # not found within bounds: the search was cut
                incomplete = True
            else:  # the search saturated without one
                ob3.refute(str(SimulationAlarm(step)))

    # Obligation 4: from each instantiated left-hand side, the order reaches
    # the next condition source once the earlier conditions hold: the waypoint
    # is reached only by rewriting each earlier condition source to its target.
    ob4 = ObligationResult(4, "decreases into condition sources", True, 0)
    chain_instances: list[dict] = []
    for rule in system.conditional_rules:
        generated = unravel_rule(rule)
        root, guard = rule.lhs.sym, arg_guard(rule.lhs)
        instances = 0
        for source in original_nodes:
            if instances >= MAX_RULE_INSTANCES:
                break
            if source.__class__ is not App or source.sym is not root:
                continue
            sigma0 = match(rule.lhs, source) if admits(guard, source.args) else None
            if sigma0 is None:
                continue
            for i in range(len(rule.conditions)):
                solutions, exhausted = cond_engine.condition_solutions(rule, sigma0, i)
                incomplete = incomplete or exhausted
                for sigma in solutions[:MAX_SOLUTIONS_PER_CONDITION]:
                    if instances >= MAX_RULE_INSTANCES:
                        break
                    instances += 1
                    ob4.checked += 1
                    waypoint = apply_subst(generated[i].rhs, sigma)
                    next_source = apply_subst(rule.conditions[i][0], sigma)
                    search = mu_search(mu_engine, source, fuel, waypoint)
                    incomplete = incomplete or search.exhausted
                    if search.path is None:
                        failure = f"{term_to_str(source)} cannot reach {term_to_str(waypoint)}"
                        ob4.refute(failure, search.exhausted)
                        continue
                    sampled_pairs.append((source, next_source))
                    chain_instances.append({
                        "rule": rule.id, "condition_index": i + 1, "lhs_instance": source,
                        "waypoint": waypoint, "condition_source_instance": next_source,
                        "reduction_length": len(search.path) - 1,
                    })

    return WitnessOrderReport(
        sampled_pairs=sampled_pairs,
        obligations=[ob1, ob2, ob3, ob4],
        incomplete=incomplete,
        notes=notes,
        chain_instances=chain_instances,
    )
