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

Every search here goes through the two primitives of :mod:`ctrskit.ctrs`:
the bounded breadth-first search ``bfs`` (simulating reductions, the
witness-order graph and its per-source reachability) and the depth-first
cycle finder ``dfs`` (the well-foundedness obligation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

from .ctrs import (
    DEFAULT_FUEL,
    ConditionalEngine,
    Dctrs,
    Fuel,
    Reduction,
    ReductionStep,
    Search,
    bfs,
    dfs,
    expansion_budget,
    within_size,
)
from .csrewrite import MuEngine, enumerate_original_terms, mu_terminating_on_seeds
from .lpo import Precedence, SignatureTooLargeError, orients, search_precedence
from .terms import (
    App,
    Term,
    active_positions,
    apply_subst,
    is_original,
    match,
    mu_proper_subterms,
    replace_at,
    subterm_at,
    term_size,
    term_to_str,
)
from .unravel import Csrs, unravel, unravel_cs, unravel_rule


class SimulationAlarm(Exception):
    """A saturated search found no simulating reduction: implementation bug."""

    def __init__(self, step: ReductionStep):
        self.step = step
        super().__init__(f"no simulating reduction for {step} despite a saturated search")


class SimulationResult(NamedTuple):
    reduction: Optional[Reduction]
    exhausted: bool

    @property
    def found(self) -> bool:
        return self.reduction is not None


def _mu_search(engine: MuEngine, start: Term, goal: Term, fuel: Fuel) -> Search:
    """Bounded search for a nonempty active-position reduction start ->+ goal."""
    return bfs(
        [start],
        lambda t: within_size(engine.steps(t), fuel.max_term_size),
        expansion_budget(fuel.max_steps),
        goal,
    )


def check_simulation(
    step: ReductionStep,
    system: Csrs,
    fuel: Fuel = DEFAULT_FUEL,
    engine: Optional[MuEngine] = None,
) -> SimulationResult:
    """Find a nonempty active-position reduction covering a conditional step.

    Raises :class:`SimulationAlarm` when the search saturates without finding
    one; with a valid input step this cannot happen unless the transformation
    or the engine is wrong.
    """
    eng = engine if engine is not None else MuEngine(system)
    search = _mu_search(eng, step.source, step.target, fuel)
    if search.path is None and not search.exhausted:
        raise SimulationAlarm(step)
    return SimulationResult(search.path, search.exhausted)


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
    witnesses = [st for st in engine.steps(t) if st.target == u]
    if not witnesses:
        raise CommutationError(f"{term_to_str(t)} does not rewrite to {term_to_str(u)}")
    p = holes[0]
    inner = witnesses[0]
    v = replace_at(s, p, u)

    lifted = p + inner.position
    if lifted not in actives:
        raise AssertionError("lifted rewrite position is not active in the outer term")
    if v != replace_at(s, lifted, apply_subst_rhs(system, inner)):
        raise AssertionError("commuting term disagrees with the lifted step")
    if u not in mu_proper_subterms(v, mu):
        raise AssertionError("rewritten subterm is not active in the commuting term")
    return v


def apply_subst_rhs(system: Csrs, step: ReductionStep) -> Term:
    """Instantiate the right-hand side of the step's rule by its binding."""
    for rule in system.rules:
        if rule.id == step.rule_id:
            return apply_subst(rule.rhs, step.subst)
    raise KeyError(step.rule_id)


# ---------------------------------------------------------------------------
# Prover


@dataclass(frozen=True)
class PrecedenceCert:
    precedence: Precedence


@dataclass(frozen=True)
class LoopCert:
    loop: Reduction

    @property
    def seed(self) -> Term:
        return self.loop.start


@dataclass(frozen=True)
class BoundsExhausted:
    fuel: Fuel


Certificate = Union[PrecedenceCert, LoopCert, BoundsExhausted]


@dataclass
class ProofOutcome:
    verdict: str  # "YES" | "NO" | "MAYBE"
    certificate: Certificate
    provenance: str
    diagnostics: list[str] = field(default_factory=list)
    # Per-method answers: "unravel+lpo" (YES or MAYBE), "loop-search" (NO or
    # MAYBE), and "lpo-note" when the precedence search refused the signature.
    methods: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = {"YES": PrecedenceCert, "NO": LoopCert, "MAYBE": BoundsExhausted}
        if not isinstance(self.certificate, expected[self.verdict]):
            raise ValueError(f"{self.verdict} verdict with {type(self.certificate).__name__}")


class ProofAlarm(Exception):
    """The built-in methods contradict each other or a certificate fails to
    re-validate: a soundness bug, never a verdict."""

    def __init__(self, message: str, methods: dict[str, str]):
        super().__init__(message)
        self.methods = methods


def prove_quasi_decreasing(
    system: Dctrs,
    fuel: Fuel = DEFAULT_FUEL,
    seeds: Optional[Sequence[Term]] = None,
    seed_size: int = 4,
    precedence_cap: int = 10,
) -> ProofOutcome:
    """Sound YES/NO/MAYBE verdict on quasi-decreasingness.

    YES: a precedence orients every rule of the unraveled system, so the
    unraveled system terminates; its context-sensitive restriction then
    cannot loop either, in particular not from original terms, which is
    equivalent to quasi-decreasingness.  NO: an active-position loop from an
    original term refutes that same property.  Everything else is MAYBE.

    Both methods always run and ``methods`` records each one's answer.  A
    disagreement, a precedence that fails re-validation, or a loop from a
    non-original term raises :class:`ProofAlarm` instead of a verdict.
    """
    diagnostics: list[str] = []
    methods: dict[str, str] = {}
    unraveled = unravel(system)
    precedence: Optional[Precedence] = None
    try:
        precedence = search_precedence(unraveled, precedence_cap)
    except SignatureTooLargeError as err:
        diagnostics.append(str(err))
        methods["lpo-note"] = str(err)
    methods["unravel+lpo"] = "MAYBE" if precedence is None else "YES"
    if precedence is None:
        diagnostics.append("exhaustive precedence search cannot orient the unraveled system")

    if seeds is None:
        seeds = enumerate_original_terms(system.signature, seed_size)
        diagnostics.append(f"enumerated {len(seeds)} ground seed terms up to size {seed_size}")
    loops = mu_terminating_on_seeds(seeds, unravel_cs(system), fuel)
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
        return ProofOutcome(
            "YES",
            PrecedenceCert(precedence),
            "path order orients the unraveled system; its termination restricts "
            "to mu-termination on original terms, which is equivalent to "
            "quasi-decreasingness",
            diagnostics,
            methods,
        )
    if loops.is_loop:
        return ProofOutcome(
            "NO",
            LoopCert(loops.witness),
            "an active-position loop starts from an original term, so the "
            "context-sensitive unraveling is not mu-terminating on original "
            "terms, which refutes quasi-decreasingness",
            diagnostics,
            methods,
        )
    return ProofOutcome(
        "MAYBE",
        BoundsExhausted(fuel),
        "no orienting precedence and no loop within bounds",
        diagnostics,
        methods,
    )


# ---------------------------------------------------------------------------
# Witness-order validation


@dataclass
class ObligationResult:
    number: int
    name: str
    passed: bool
    checked: int
    failures: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"({self.number}) {self.name}: {status} [{self.checked} checks]"


@dataclass
class WitnessOrderReport:
    sampled_pairs: list[tuple[Term, Term]]
    obligations: list[ObligationResult]
    incomplete: bool
    notes: list[str] = field(default_factory=list)
    chain_instances: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(ob.passed for ob in self.obligations)

    def obligation(self, number: int) -> ObligationResult:
        return self.obligations[number - 1]


def _itself(t: Term) -> Term:
    return t


def _combined_graph(
    seeds: Sequence[Term], cs: Csrs, fuel: Fuel, engine: MuEngine
) -> tuple[list[Term], dict[Term, list[Term]], bool]:
    """Reachable fragment of "one rewrite step or one active-child step":
    its nodes in BFS order, the successor lists of the expanded nodes, and
    whether a bound cut it short.  A node too large to rewrite still gets its
    active-child edges."""
    succ: dict[Term, list[Term]] = {}

    def successors(t: Term) -> list[Optional[Term]]:
        out: list[Optional[Term]] = [None]  # too large to rewrite
        if term_size(t) <= fuel.max_term_size:
            steps = within_size(engine.steps(t), fuel.max_term_size)
            out = [None if step is None else step.target for step in steps]
        if isinstance(t, App) and t.args:
            out += [t.args[i - 1] for i in sorted(cs.mu.active_indices(t.sym))]
        succ[t] = [u for u in out if u is not None]
        return out

    cap = min(500_000, fuel.max_steps * max(1, len(seeds)))
    search = bfs(seeds, successors, expansion_budget(cap), target=_itself)
    return list(search.reached), succ, search.exhausted


def _proper_subterms(t: Term) -> list[Term]:
    out: list[Term] = []

    def walk(node: Term, root: bool) -> None:
        if not root:
            out.append(node)
        if isinstance(node, App):
            for arg in node.args:
                walk(arg, False)

    walk(t, True)
    return out


def validate_witness_order(
    system: Dctrs,
    seeds: Sequence[Term],
    fuel: Fuel = DEFAULT_FUEL,
    *,
    max_sources: int = 4000,
    max_pairs: int = 20000,
    max_steps_per_source: int = 8,
    max_rule_instances: int = 400,
) -> WitnessOrderReport:
    """Sample the candidate well-founded order on a fragment reachable from
    the seeds and check the four quasi-decreasingness obligations.

    The sampled order relates original terms connected by a nonempty path of
    rewrite steps and active-subterm steps in the unraveled system.
    """
    for seed in seeds:
        if not is_original(seed):
            raise ValueError(f"seed {term_to_str(seed)} contains unraveling symbols")

    cs = unravel_cs(system)
    mu_engine = MuEngine(cs)
    cond_engine = ConditionalEngine(system, fuel)
    notes: list[str] = []

    nodes, succ, incomplete = _combined_graph(seeds, cs, fuel, mu_engine)
    original_nodes = [t for t in nodes if is_original(t)]
    if len(original_nodes) > max_sources:
        notes.append(
            f"sampling capped at {max_sources} of {len(original_nodes)} original terms"
        )
        original_nodes = original_nodes[:max_sources]

    # Obligation 1: the sampled relation is acyclic (bounded stand-in for
    # well-foundedness).
    cycle = dfs(nodes, succ, lambda ts: any(map(is_original, ts)), target=_itself).cycle
    ob1 = ObligationResult(1, "well-founded on original terms", cycle is None, len(nodes))
    if cycle is not None:
        # Rotate so the cycle starts at an original term.
        k = next(j for j, t in enumerate(cycle) if is_original(t))
        ob1.failures.append(" > ".join(term_to_str(t) for t in cycle[k:-1] + cycle[: k + 1]))

    # Sampled pairs and per-source reachability: a full BFS from the
    # successors of each source, so only nonempty paths count.  The pair list
    # is capped, the reachability sets are not.
    reach: dict[Term, dict] = {}
    sampled_pairs: list[tuple[Term, Term]] = []
    for source in original_nodes:
        reach[source] = bfs(
            succ.get(source, ()), lambda t: succ.get(t, ()), lambda: True, target=_itself
        ).reached
        if len(sampled_pairs) < max_pairs:
            for target in reach[source]:
                if is_original(target):
                    sampled_pairs.append((source, target))
                    if len(sampled_pairs) >= max_pairs:
                        break

    # Obligation 2: closure under plain proper subterms on the original side.
    ob2 = ObligationResult(2, "closed under proper subterms", True, 0)
    for source, target in sampled_pairs:
        for sub in _proper_subterms(target):
            ob2.checked += 1
            if sub not in reach[source]:
                ob2.passed = False
                ob2.failures.append(
                    f"{term_to_str(source)} > {term_to_str(target)} but not > {term_to_str(sub)}"
                )
                if len(ob2.failures) > 5:
                    break
        if len(ob2.failures) > 5:
            break

    # Obligation 3: every sampled conditional-system step is in the order,
    # witnessed by an explicit simulating reduction.
    ob3 = ObligationResult(3, "contains every rewrite step", True, 0)
    for source in original_nodes:
        steps, exhausted = cond_engine.all_steps(source)
        incomplete = incomplete or exhausted
        for step in steps[:max_steps_per_source]:
            ob3.checked += 1
            try:
                result = check_simulation(step, cs, fuel, engine=mu_engine)
            except SimulationAlarm as alarm:
                ob3.passed = False
                ob3.failures.append(str(alarm))
                continue
            if not result.found:
                incomplete = True
                ob3.failures.append(f"search exhausted simulating {step}")
                ob3.passed = False
            else:
                sampled_pairs.append((step.source, step.target))

    # Obligation 4: from each instantiated left-hand side, the order reaches
    # the next condition source once the earlier conditions hold.
    ob4 = ObligationResult(4, "decreases into condition sources", True, 0)
    chain_instances: list[dict] = []
    for rule in system.conditional_rules:
        generated = unravel_rule(rule)
        instances = 0
        for source in original_nodes:
            if instances >= max_rule_instances:
                break
            sigma0 = match(rule.lhs, source)
            if sigma0 is None:
                continue
            for i in range(len(rule.conditions)):
                solutions, exhausted = cond_engine.condition_solutions(rule, sigma0, i)
                incomplete = incomplete or exhausted
                for sigma in solutions[:3]:
                    if instances >= max_rule_instances:
                        break
                    verified = True
                    for s_j, t_j in rule.conditions[:i]:
                        reach_res = cond_engine.reachable(
                            apply_subst(s_j, sigma), apply_subst(t_j, sigma)
                        )
                        incomplete = incomplete or reach_res.exhausted
                        if reach_res.reduction is None:
                            verified = False
                            break
                    if not verified:
                        continue
                    instances += 1
                    ob4.checked += 1
                    waypoint = apply_subst(generated[i].rhs, sigma)
                    next_source = apply_subst(rule.conditions[i][0], sigma)
                    search = _mu_search(mu_engine, source, waypoint, fuel)
                    incomplete = incomplete or search.exhausted
                    if search.path is None:
                        ob4.passed = False
                        ob4.failures.append(
                            f"{term_to_str(source)} cannot reach {term_to_str(waypoint)}"
                        )
                        continue
                    if next_source not in mu_proper_subterms(waypoint, cs.mu):
                        ob4.passed = False
                        ob4.failures.append(
                            f"{term_to_str(next_source)} not an active subterm of "
                            f"{term_to_str(waypoint)}"
                        )
                        continue
                    sampled_pairs.append((source, next_source))
                    chain_instances.append(
                        {
                            "rule": rule.id,
                            "condition_index": i + 1,
                            "lhs_instance": source,
                            "waypoint": waypoint,
                            "condition_source_instance": next_source,
                            "reduction_length": len(search.path),
                        }
                    )

    return WitnessOrderReport(
        sampled_pairs=sampled_pairs,
        obligations=[ob1, ob2, ob3, ob4],
        incomplete=incomplete,
        notes=notes,
        chain_instances=chain_instances,
    )
