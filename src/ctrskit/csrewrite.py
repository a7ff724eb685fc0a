"""Rewriting restricted to active positions, and the bounded loop search
behind termination verdicts on original-signature terms.

The loop search walks a graph of terms: a breadth-first expansion of a
seed's reducts, deduplicated so that a reduct shared by many paths is
expanded once, then one depth-first walk.  A verdict is one of: the graph
was fully expanded and acyclic (terminates within the reported depth), a
term repeats along a path (loop witness), or fuel ran out first (unknown).

A :class:`MuEngine` keeps one memo of every term it meets, subterms
included: its distinct reducts and its root redexes, which depend on the
system alone.  It is filled bottom-up from an explicit stack, so stepping
does not recurse once per term level.  Steps, with their positions and
substitutions, are built from it only for certificates and exports.
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
    Search,
    bfs,
    dfs,
    expansion_budget,
    guarded_rules_by_root,
    reduction,
    within_size,
)
from .records import Record
from .terms import (
    ROOT,
    App,
    FunSym,
    Subst,
    Term,
    admits,
    apply_subst,
    is_original,
    match,
    replace_at,
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
    """Memoized one-step rewriting at the active positions of a
    context-sensitive system.  Plain rewriting is the special case of the
    full replacement map (:meth:`ReplacementMap.full`).

    A term's steps are its root steps, rules in ``rules_by_root`` order, then
    each active argument's steps lifted in ascending argument order: a
    preorder walk, so positions come out in sorted order.  A rule whose
    argument guard clashes with the term's arguments is skipped unmatched.

    The one memo maps a term to its distinct targets, in the order of its
    steps, and its root redexes as (rule id, substitution, right-hand side
    instance), so each rule is matched once per subject.  Steps are rebuilt
    from it on each call and never kept.
    """

    def __init__(self, system: Csrs):
        self.system = system
        self._rules_at = guarded_rules_by_root(system.rules)
        self._active = {sym: tuple(sorted(ix)) for sym, ix in system.mu.entries.items()}
        # term -> (distinct targets, root redexes)
        self._memo: dict[Term, tuple[tuple[Term, ...], tuple[tuple[str, Subst, Term], ...]]] = {}

    def targets(self, s: Term) -> tuple[Term, ...]:
        """The distinct one-step reducts of ``s``, first occurrences in the
        order of its steps."""
        memo = self._memo
        entry = memo.get(s)
        if entry is not None:
            return entry[0]
        # A term is filled once its active arguments are, so no call recurses
        # per term level.
        todo = [s]
        while todo:
            t = todo[-1]
            if t in memo:  # pushed twice, as f(u, u) pushes u
                todo.pop()
                continue
            entry = ((), ())  # a constant: normal forms share it
            if t.__class__ is App:
                args = t.args
                active = self._active_indices(t.sym) if args else ()
                missing = [args[i - 1] for i in active if args[i - 1] not in memo]
                if missing:
                    todo += missing
                    continue
                redexes = []
                for rule, guard in self._rules_at.get(t.sym, ()):
                    if admits(guard, args):
                        sigma = match(rule.lhs, t)
                        if sigma is not None:
                            redexes.append((rule.id, sigma, apply_subst(rule.rhs, sigma)))
                out = [rhs for _, _, rhs in redexes]
                for i in active:
                    below = memo[args[i - 1]][0]
                    if below:
                        sym, before, after = t.sym, args[: i - 1], args[i:]
                        out += [App(sym, before + (u,) + after) for u in below]
                if out:
                    entry = (tuple(dict.fromkeys(out)), tuple(redexes))
            memo[t] = entry
            todo.pop()
        return memo[s][0]

    def steps(self, s: Term) -> tuple[ReductionStep, ...]:
        """The steps of ``s``, rebuilt from the memo on each call: a preorder
        walk down the active arguments that have a target, and each root
        redex met replaced in ``s``."""
        memo, out = self._memo, []
        todo = [(s, ROOT)] if self.targets(s) else []
        while todo:
            t, p = todo.pop()
            out += [
                ReductionStep(s, replace_at(s, p, rhs), p, rule_id, sigma, KIND_MU)
                for rule_id, sigma, rhs in memo[t][1]
            ]
            if t.args:
                todo += [
                    (t.args[i - 1], p + (i,))
                    for i in reversed(self._active_indices(t.sym))
                    if memo[t.args[i - 1]][0]
                ]
        return tuple(out)

    def step(self, s: Term, t: Term) -> ReductionStep:
        """The first of the steps of ``s`` whose target is ``t``, which must
        be one of its targets: the edge a search over targets takes.  One
        walk down the memo finds it, and builds no other step."""
        memo, position, u, v = self._memo, [], s, t
        while True:
            for rule_id, sigma, rhs in memo[u][1]:
                if rhs == v:
                    return ReductionStep(s, t, tuple(position), rule_id, sigma, KIND_MU)
            # No root step reaches v, so v is u with one active argument rewritten.
            args, goal = u.args, v.args
            i = next(
                i
                for i in self._active_indices(u.sym)
                if goal[i - 1] in memo[args[i - 1]][0]
                and goal[: i - 1] == args[: i - 1]
                and goal[i:] == args[i:]
            )
            position.append(i)
            u, v = args[i - 1], goal[i - 1]

    def _active_indices(self, sym: FunSym) -> tuple[int, ...]:
        """The active argument indices of ``sym``, ascending; a symbol with
        no entry raises :class:`MissingReplacementError`."""
        indices = self._active.get(sym)
        return indices if indices is not None else self.system.mu.active_indices(sym)


class ReductionGraph(Record):
    """A bounded unfolding of the rewrite relation from one root."""

    __slots__ = ("root", "nodes", "edges", "depth", "complete")
    _defaults = {"nodes": list, "edges": list, "depth": dict, "complete": True}


def _loop_search(
    s: Term, eng: MuEngine, fuel: Fuel
) -> tuple[Search, dict[Term, list[Term]], MuVerdict]:
    """Breadth-first expansion of the reducts of ``s``, then one depth-first
    walk for a loop or, failing that, the longest path.  Returns the search,
    the expanded nodes' successors within the size bound, and the verdict."""
    succ: dict[Term, list[Term]] = {}

    def successors(t: Term) -> list[Optional[Term]]:
        out = within_size(eng.targets(t), fuel.max_term_size)
        succ[t] = out if None not in out else [u for u in out if u is not None]
        return out

    search = bfs([s], successors, expansion_budget(fuel.max_steps))
    walk = dfs([s], succ)
    if walk.path is not None:
        return search, succ, MuVerdict.loop_found(reduction(walk.path, eng.step))
    if search.exhausted:
        return search, succ, MuVerdict.unknown(fuel)
    return search, succ, MuVerdict.terminates_within(walk.heights[s])


def explore(
    s: Term,
    system: Csrs,
    fuel: Fuel = DEFAULT_FUEL,
    engine: Optional[MuEngine] = None,
) -> tuple[ReductionGraph, MuVerdict]:
    """The loop search from ``s`` with its graph: every reached term, its
    breadth-first depth, and each expanded term's steps within the size
    bound, in expansion order."""
    eng = engine if engine is not None else MuEngine(system)
    search, succ, verdict = _loop_search(s, eng, fuel)
    depth: dict[Term, int] = {}
    for t, parent in search.reached.items():
        depth[t] = 0 if parent is None else depth[parent] + 1
    edges = [st for t in succ for st in eng.steps(t) if term_size(st.target) <= fuel.max_term_size]
    return ReductionGraph(s, list(search.reached), edges, depth, not search.exhausted), verdict


def mu_terminating_on_seeds(
    seeds: Sequence[Term],
    system: Csrs,
    fuel: Fuel = DEFAULT_FUEL,
) -> MuVerdict:
    """The loop search of :func:`explore` from each seed in turn, on one
    engine: a loop anywhere dominates, then fuel exhaustion, then
    termination with the maximal depth.  A normal-form seed is answered at
    once, with depth 0."""
    for seed in seeds:
        if not is_original(seed):
            raise ValueError(f"seed {term_to_str(seed)} contains unraveling symbols")
    eng = MuEngine(system)
    max_depth = 0
    unknown: Optional[MuVerdict] = None
    for seed in seeds:
        if not eng.targets(seed):
            continue
        verdict = _loop_search(seed, eng, fuel)[2]
        if verdict.is_loop:
            return verdict
        if verdict.outcome == "unknown":
            unknown = verdict
        else:
            max_depth = max(max_depth, verdict.bound)
    return unknown or MuVerdict.terminates_within(max_depth)


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
