"""Rewriting restricted to active positions, bounded reduction-graph
exploration, loop detection, and bounded termination verdicts on
original-signature terms.

Exploration deduplicates terms globally, so a reduct shared by many paths is
expanded once.  A verdict is one of: the graph was fully expanded and acyclic
(terminates within the reported depth), a term repeats along a path (loop
witness), or fuel ran out first (unknown).

A :class:`MuEngine` computes a term's steps from its arguments' steps and
keeps those of every term it meets, subterms included, for its lifetime:
they depend on the system alone, so the memo is never invalidated.  A term
not in the memo is filled bottom-up from an explicit stack of its uncached
active subterms, so stepping does not recurse once per term level.

Over many seeds, :func:`mu_terminating_on_seeds` settles each term's graph
once.  A settled term reaches no cycle and no step past ``max_term_size``;
the memo keeps its height and an upper bound on the terms it reaches.  A
seed whose bound, or else whose exact count of reachable terms, is at most
``max_steps`` gets exactly the answer ``explore`` would give, without a
search; only the other seeds are explored.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, NamedTuple, Optional, Sequence

from .ctrs import (
    DEFAULT_FUEL,
    Fuel,
    KIND_MU,
    Reduction,
    ReductionStep,
    bfs,
    dfs,
    expansion_budget,
    guarded_rules_by_root,
    lift_steps,
    within_size,
)
from .records import Record
from .terms import (
    ROOT,
    App,
    FunSym,
    Term,
    admits,
    apply_subst,
    is_original,
    match,
    term_size,
    term_to_str,
)
from .unravel import Csrs


class MuVerdict(NamedTuple):
    """Outcome of a bounded termination check."""

    outcome: str  # "terminates" | "loop" | "unknown"
    bound: Optional[int] = None
    witness: Optional[Reduction] = None
    exhausted_fuel: Optional[Fuel] = None

    @classmethod
    def terminates_within(cls, bound: int) -> "MuVerdict":
        return cls("terminates", bound=bound)

    @classmethod
    def loop_found(cls, witness: Reduction) -> "MuVerdict":
        terms = witness.terms()
        if not witness.steps or terms[-1] not in terms[:-1]:
            raise ValueError("loop witness must end in a repeated term")
        return cls("loop", witness=witness)

    @classmethod
    def unknown(cls, fuel: Fuel) -> "MuVerdict":
        return cls("unknown", exhausted_fuel=fuel)

    @property
    def is_loop(self) -> bool:
        return self.outcome == "loop"

    def __str__(self) -> str:
        if self.outcome == "terminates":
            return f"terminates within depth {self.bound}"
        if self.outcome == "loop":
            return f"loop found: {self.witness}"
        return "unknown (bounds exhausted)"


class MuEngine:
    """Memoized one-step successor enumeration at the active positions of a
    context-sensitive system.  Plain rewriting is the special case of the
    full replacement map (:meth:`ReplacementMap.full`).

    A term's steps are its root steps, rules in ``rules_by_root`` order, then
    each active argument's memoized steps lifted in ascending argument order:
    a preorder walk, so positions come out in sorted order.  A rule whose
    argument guard clashes with the term's arguments is skipped unmatched.
    """

    def __init__(self, system: Csrs):
        self.system = system
        self._rules_at = guarded_rules_by_root(system.rules)
        self._active: dict[FunSym, tuple[int, ...]] = {}
        self._cache: dict[Term, tuple[ReductionStep, ...]] = {}

    def steps(self, s: Term) -> tuple[ReductionStep, ...]:
        # A miss fills the cache bottom-up from a stack of the active
        # subterms not in it yet: a term is computed once its active
        # arguments are cached, so no call recurses per term level.
        cache = self._cache
        cached = cache.get(s)
        if cached is not None:
            return cached
        todo = [s]
        while todo:
            t = todo[-1]
            if t in cache:  # pushed twice, as f(u, u) pushes u
                todo.pop()
                continue
            out: list[ReductionStep] = []
            if t.__class__ is App:
                active = self._active_indices(t.sym) if t.args else ()
                missing = [t.args[i - 1] for i in active if t.args[i - 1] not in cache]
                if missing:
                    todo += missing
                    continue
                for rule, guard in self._rules_at.get(t.sym, ()):
                    if not admits(guard, t.args):
                        continue
                    sigma = match(rule.lhs, t)
                    if sigma is not None:
                        rhs = apply_subst(rule.rhs, sigma)
                        out.append(ReductionStep(t, rhs, ROOT, rule.id, sigma, KIND_MU))
                for i in active:
                    out += lift_steps(t, i, cache[t.args[i - 1]])
            cache[t] = tuple(out)
            todo.pop()
        return cache[s]

    def _active_indices(self, sym: FunSym) -> tuple[int, ...]:
        indices = self._active.get(sym)
        if indices is None:
            indices = self._active[sym] = tuple(sorted(self.system.mu.active_indices(sym)))
        return indices


class ReductionGraph(Record):
    """A bounded unfolding of the rewrite relation from one root."""

    __slots__ = ("root", "nodes", "edges", "depth", "complete")
    _defaults = {"nodes": list, "edges": list, "depth": dict, "complete": True}


def explore(
    s: Term,
    system: Csrs,
    fuel: Fuel = DEFAULT_FUEL,
    engine: Optional[MuEngine] = None,
) -> tuple[ReductionGraph, MuVerdict]:
    """Breadth-first expansion of the active-position rewrite relation, then
    one depth-first walk for a loop or, failing that, the longest path."""
    eng = engine if engine is not None else MuEngine(system)
    edges: list[ReductionStep] = []
    out_edges: dict[Term, list[ReductionStep]] = {}

    def successors(t: Term) -> list[Optional[ReductionStep]]:
        out = within_size(eng.steps(t), fuel.max_term_size)
        out_edges[t] = [step for step in out if step is not None]
        edges.extend(out_edges[t])
        return out

    search = bfs([s], successors, expansion_budget(fuel.max_steps))
    depth = {}
    for t, step in search.reached.items():
        depth[t] = 0 if step is None else depth[step.source] + 1
    graph = ReductionGraph(s, list(search.reached), edges, depth, not search.exhausted)

    walk = dfs([s], out_edges)
    if walk.path is not None:
        return graph, MuVerdict.loop_found(Reduction(s, tuple(walk.path)))
    if not graph.complete:
        return graph, MuVerdict.unknown(fuel)
    return graph, MuVerdict.terminates_within(walk.heights[s])


def mu_terminating_on_seeds(
    seeds: Sequence[Term],
    system: Csrs,
    fuel: Fuel = DEFAULT_FUEL,
) -> MuVerdict:
    """Aggregate exploration over seed terms, on one engine; a loop anywhere
    dominates, then fuel exhaustion, then termination with the maximal depth.

    A memo that lives for this call maps each settled term, one whose whole
    reachable graph is known to be acyclic with every step within
    ``max_term_size``, to its height and an upper bound on its reachable
    nodes.  A settled seed whose bound, or else its count of reachable terms
    over the engine's memoized steps, is at most ``max_steps`` is answered
    from the memo: ``explore`` would expand every node, drop no edge, find
    no cycle and return that height.  Every other seed goes through
    ``explore``, so loops, their witnesses and unknowns are exactly as
    ``explore`` gives them.  It answers such a seed "loop" or "unknown"
    only: the seed reaches a cycle, which a complete graph shows, or an
    oversize step or more than ``max_steps`` terms, which cut the graph.
    """
    for seed in seeds:
        if not is_original(seed):
            raise ValueError(f"seed {term_to_str(seed)} contains unraveling symbols")
    eng = MuEngine(system)
    settled: dict[Term, tuple[int, int]] = {}
    max_depth = 0
    unknown: Optional[MuVerdict] = None
    for seed in seeds:
        known = settled.get(seed) or _settle(seed, eng, fuel, settled)
        if known is not None and (
            known[1] <= fuel.max_steps
            or not bfs([seed], eng.steps, expansion_budget(fuel.max_steps)).exhausted
        ):
            max_depth = max(max_depth, known[0])
            continue
        _, verdict = explore(seed, system, fuel, engine=eng)
        if verdict.is_loop:
            return verdict
        unknown = verdict
    return unknown or MuVerdict.terminates_within(max_depth)


def _settle(
    seed: Term, eng: MuEngine, fuel: Fuel, settled: dict[Term, tuple[int, int]]
) -> Optional[tuple[int, int]]:
    """Settle ``seed`` and the unsettled terms it reaches into ``settled``,
    each as (height, reach bound), and return the seed's entry; None when
    the seed cannot be settled within ``fuel``.

    A breadth-first walk lists the unsettled part of the graph: it gives up
    once it lists more than ``max_steps`` terms, which ``explore`` could not
    all expand, or at a step whose target exceeds ``max_term_size``.  A post-order walk with an explicit stack then
    settles the listed terms, and gives up at the first back edge: a term
    that finished before it reaches no cycle, so it stays settled.  A
    term's bound is 1 plus the sum of its distinct successors' bounds,
    capped at ``max_steps + 1``: shared terms count once per path, so it
    never undercounts.
    """
    if not eng.steps(seed):  # a normal form, as most seeds are
        settled[seed] = (0, 1)
        return settled[seed]
    succ: dict[Term, tuple[Term, ...]] = {seed: ()}  # listed -> distinct successors
    queue = [seed]
    for t in queue:  # grows while it is walked
        targets = tuple(dict.fromkeys([step.target for step in eng.steps(t)]))
        for u in targets:
            if term_size(u) > fuel.max_term_size:
                return None
            if u not in succ and u not in settled:
                succ[u] = ()
                queue.append(u)
        if len(queue) > fuel.max_steps:
            return None
        succ[t] = targets

    cap = fuel.max_steps + 1
    on_path = {seed}
    stack = [(seed, iter(succ[seed]))]
    while stack:
        t, todo = stack[-1]
        for u in todo:
            if u in settled:
                continue
            if u in on_path:
                return None
            on_path.add(u)
            stack.append((u, iter(succ[u])))
            break
        else:
            stack.pop()
            on_path.discard(t)
            height, bound = 0, 1
            for u in succ[t]:
                h, b = settled[u]
                if h >= height:
                    height = h + 1
                bound += b
            settled[t] = (height, min(bound, cap))
    return settled[seed]


def enumerate_original_terms(signature: Sequence[FunSym], max_size: int) -> list[Term]:
    """All ground terms over the original symbols with at most ``max_size``
    nodes, smallest first, in a deterministic structural order.

    This is a finite under-approximation of the full term universe, used to
    seed searches that would otherwise quantify over all terms.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    symbols = sorted(
        (s for s in signature if not s.is_usymbol), key=lambda s: (s.name, s.arity)
    )
    by_size: list[list[Term]] = [[] for _ in range(max_size + 1)]
    for size in range(1, max_size + 1):
        bucket: list[Term] = []
        for sym in symbols:
            if sym.arity == 0:
                if size == 1:
                    bucket.append(App(sym))
                continue
            budget = size - 1
            if budget < sym.arity:
                continue
            for parts in _compositions(budget, sym.arity):
                for args in product(*(by_size[p] for p in parts)):
                    bucket.append(App(sym, args))
        by_size[size] = bucket
    return [t for bucket in by_size for t in bucket]


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """Orderings of ``total`` into ``parts`` positive integers, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest
