"""Rewriting restricted to active positions, bounded reduction-graph
exploration, loop detection, and bounded termination verdicts on
original-signature terms.

Exploration deduplicates terms globally, so a reduct shared by many paths is
expanded once.  A verdict is one of: the graph was fully expanded and acyclic
(terminates within the reported depth), a term repeats along a path (loop
witness), or fuel ran out first (unknown).

A :class:`MuEngine` computes a term's steps from its arguments' steps and
keeps those of every term it meets, subterms included, for its lifetime:
they depend on the system alone, so the memo is never invalidated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Optional, Sequence, Union

from .ctrs import (
    DEFAULT_FUEL,
    Fuel,
    KIND_MU,
    KIND_PLAIN,
    Reduction,
    ReductionStep,
    bfs,
    dfs,
    expansion_budget,
    lift_steps,
    rules_by_root,
    within_size,
)
from .terms import (
    ROOT,
    App,
    FunSym,
    Term,
    apply_subst,
    is_original,
    match,
    term_to_str,
)
from .unravel import Csrs, Trs


@dataclass(frozen=True)
class MuVerdict:
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
    """Memoized one-step successor enumeration: ``mu`` steps at the active
    positions of a context-sensitive system, ``plain`` steps at every
    position of a plain one.

    A term's steps are its root steps, rules in ``rules_by_root`` order, then
    each active argument's memoized steps lifted in ascending argument order:
    a preorder walk, so positions come out in sorted order.
    """

    def __init__(self, system: Union[Csrs, Trs]):
        self.system = system
        self._rules_at = rules_by_root(system.rules)
        self._mu = system.mu if isinstance(system, Csrs) else None
        self._kind = KIND_MU if self._mu is not None else KIND_PLAIN
        self._active: dict[FunSym, tuple[int, ...]] = {}
        self._cache: dict[Term, tuple[ReductionStep, ...]] = {}

    def steps(self, s: Term) -> tuple[ReductionStep, ...]:
        return self._steps(s)

    def _steps(self, s: Term) -> tuple[ReductionStep, ...]:
        # Recursion goes through here, not through ``steps``, so that calls
        # of ``steps`` count only the terms callers asked about.
        cached = self._cache.get(s)
        if cached is not None:
            return cached
        out: list[ReductionStep] = []
        if isinstance(s, App):
            for rule in self._rules_at.get(s.sym, ()):
                sigma = match(rule.lhs, s)
                if sigma is not None:
                    rhs = apply_subst(rule.rhs, sigma)
                    out.append(ReductionStep(s, rhs, ROOT, rule.id, sigma, self._kind))
            if s.args:  # constants need no replacement-map entry
                for i in self._active_indices(s.sym):
                    out += lift_steps(s, i, self._steps(s.args[i - 1]))
        cached = self._cache[s] = tuple(out)
        return cached

    def _active_indices(self, sym: FunSym) -> tuple[int, ...]:
        indices = self._active.get(sym)
        if indices is None:
            active = range(1, sym.arity + 1) if self._mu is None else self._mu.active_indices(sym)
            indices = self._active[sym] = tuple(sorted(active))
        return indices


def plain_steps(s: Term, system: Trs) -> list[ReductionStep]:
    """Unrestricted one-step rewriting: steps at every position, of kind
    ``plain``, from a fresh engine."""
    return list(MuEngine(system)._steps(s))


@dataclass
class ReductionGraph:
    """A bounded unfolding of the rewrite relation from one root."""

    root: Term
    nodes: list[Term] = field(default_factory=list)
    edges: list[ReductionStep] = field(default_factory=list)
    depth: dict[Term, int] = field(default_factory=dict)
    complete: bool = True


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
    engine: Optional[MuEngine] = None,
) -> MuVerdict:
    """Aggregate exploration over seed terms; a loop anywhere dominates,
    then fuel exhaustion, then termination with the maximal depth."""
    for seed in seeds:
        if not is_original(seed):
            raise ValueError(f"seed {term_to_str(seed)} contains unraveling symbols")
    eng = engine if engine is not None else MuEngine(system)
    max_depth = 0
    any_unknown = False
    for seed in seeds:
        _, verdict = explore(seed, system, fuel, engine=eng)
        if verdict.is_loop:
            return verdict
        if verdict.outcome == "unknown":
            any_unknown = True
        else:
            max_depth = max(max_depth, verdict.bound or 0)
    if any_unknown:
        return MuVerdict.unknown(fuel)
    return MuVerdict.terminates_within(max_depth)


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
