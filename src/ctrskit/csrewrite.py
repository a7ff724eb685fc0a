"""Rewriting restricted to active positions, and the bounded loop search
behind termination verdicts on original-signature terms.

The loop search walks a graph of terms: a breadth-first expansion of a
seed's reducts, deduplicated so that a reduct shared by many paths is
expanded once, then one depth-first walk.  A verdict is one of: the graph
was fully expanded and acyclic (terminates within the reported depth), a
term repeats along a path (loop witness), or fuel ran out first (unknown).
Over many seeds, every term a terminating search reached is settled with
its height, and a seed whose reducts are all settled is answered from
their heights without a search of its own.

A :class:`MuEngine` keeps one memo of every term it meets, subterms
included: its step entry (see :mod:`ctrskit.ctrs`), which depends on the
system alone.  It is filled bottom-up from an explicit stack, so stepping
does not recurse once per term level.  Steps, with their positions and
substitutions, are built from it only for certificates and exports.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, NamedTuple, Optional, Sequence

from .ctrs import (
    DEFAULT_FUEL,
    Fuel,
    KIND_MU,
    NORMAL_FORM,
    Reduction,
    ReductionStep,
    Search,
    Walk,
    bfs,
    dfs,
    expansion_budget,
    guarded_rules_by_root,
    memo_entry,
    memo_step,
    memo_steps,
    reduction,
    within_size,
)
from .records import Record
from .terms import (
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
    """Memoized one-step rewriting at the active positions of a
    context-sensitive system.  Plain rewriting is the special case of the
    full replacement map (:meth:`ReplacementMap.full`).

    The one memo maps a term to its step entry over the active arguments,
    root rules in ``rules_by_root`` order, so each rule is matched once per
    subject; a rule whose argument guard clashes with the term's arguments
    is skipped unmatched.  Steps are rebuilt from it on each call.
    """

    def __init__(self, system: Csrs):
        self.system = system
        self._rules_at = guarded_rules_by_root(system.rules)
        self._at: dict[FunSym, tuple] = {}  # sym -> its _symbol pair
        self._memo: dict[Term, tuple] = {}  # term -> its step entry

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
            entry = NORMAL_FORM
            if t.__class__ is App:
                sym, args = t.sym, t.args
                active, rules = self._at.get(sym) or self._symbol(sym)
                missing, below = [], []
                for i in active:
                    e = memo.get(args[i - 1])
                    if e is None:
                        missing.append(args[i - 1])
                    elif e[0]:
                        below.append((i, e))
                if missing:
                    todo += missing
                    continue
                redexes = []
                for rule, guard in rules:
                    if admits(guard, args):
                        sigma = match(rule.lhs, t)
                        if sigma is not None:
                            redexes.append((rule.id, sigma, apply_subst(rule.rhs, sigma), None))
                if redexes or below:
                    entry = memo_entry(t, redexes, below)
            memo[t] = entry
            todo.pop()
        return memo[s][0]

    def steps(self, s: Term) -> tuple[ReductionStep, ...]:
        """The steps of ``s``, rebuilt from the memo on each call."""
        self.targets(s)
        return memo_steps(s, self._memo[s], KIND_MU)

    def step(self, s: Term, t: Term) -> ReductionStep:
        """The first of the steps of ``s`` whose target is ``t``, the edge a
        search over targets takes; ValueError if ``t`` is not a target."""
        self.targets(s)
        return memo_step(s, t, self._memo[s], KIND_MU)

    def _symbol(self, sym: FunSym) -> tuple[tuple[int, ...], tuple]:
        """The active argument indices of ``sym``, ascending, and its guarded
        rules, looked up once per symbol; a symbol of positive arity with no
        replacement entry raises :class:`MissingReplacementError`."""
        at = self._at.get(sym)
        if at is None:
            active = tuple(sorted(self.system.mu.active_indices(sym))) if sym.arity else ()
            at = self._at[sym] = active, self._rules_at.get(sym, ())
        return at


class ReductionGraph(Record):
    """A bounded unfolding of the rewrite relation from one root."""

    __slots__ = ("root", "nodes", "edges", "depth", "complete")
    _defaults = {"nodes": list, "edges": list, "depth": dict, "complete": True}


def mu_search(engine: MuEngine, start: Term, fuel: Fuel, goal: Optional[Term] = None) -> Search:
    """The bounded :func:`~ctrskit.ctrs.bfs` of the reducts of ``start``
    within the size bound, for a nonempty path to ``goal`` if one is given."""
    return bfs(
        [start],
        lambda t: within_size(engine.targets(t), fuel.max_term_size),
        expansion_budget(fuel.max_steps),
        goal,
    )


def _loop_search(s: Term, eng: MuEngine, fuel: Fuel) -> tuple[Search, Walk, MuVerdict]:
    """:func:`mu_search` from ``s``, then one depth-first walk over its graph,
    ``search.succ``, for a loop, whose node path becomes the witness, or
    failing that the longest path.  Returns the search, the walk (with every
    reached term's height when the verdict is termination) and the verdict."""
    search = mu_search(eng, s, fuel)
    walk = dfs([s], search.succ)
    if walk.path is not None:
        return search, walk, MuVerdict.loop_found(reduction(walk.path, eng.step))
    if search.exhausted:
        return search, walk, MuVerdict.unknown(fuel)
    return search, walk, MuVerdict.terminates_within(walk.heights[s])


def explore(
    s: Term,
    system: Csrs,
    fuel: Fuel = DEFAULT_FUEL,
    engine: Optional[MuEngine] = None,
) -> tuple[ReductionGraph, MuVerdict]:
    """The loop search from ``s`` with the graph it walked: every reached
    term, its breadth-first depth, and each expanded term's steps to its
    successors within the size bound (``search.succ``), in expansion order."""
    eng = engine if engine is not None else MuEngine(system)
    search, _, verdict = _loop_search(s, eng, fuel)
    depth: dict[Term, int] = {}
    for t, parent in search.reached.items():
        depth[t] = 0 if parent is None else depth[parent] + 1
    edges = [st for t, kept in search.succ.items() for st in eng.steps(t) if st.target in kept]
    return ReductionGraph(s, list(search.reached), edges, depth, not search.exhausted), verdict


def mu_terminating_on_seeds(
    seeds: Sequence[Term],
    system: Csrs,
    fuel: Fuel = DEFAULT_FUEL,
) -> MuVerdict:
    """The loop search of :func:`explore` from each seed in turn, on one
    engine: a loop anywhere dominates, then fuel exhaustion, then
    termination with the maximal depth.  A terminating search settles every
    term it reached: its height, with the search's size as a bound on the
    expansions a search from it needs.  A seed that :func:`_settle` answers
    from its reducts needs no search."""
    for seed in seeds:
        if not is_original(seed):
            raise ValueError(f"seed {term_to_str(seed)} contains unraveling symbols")
    eng = MuEngine(system)
    settled: dict[Term, tuple[int, int]] = {}  # term -> (height, bound on its reach)
    max_depth = 0
    unknown: Optional[MuVerdict] = None
    for seed in seeds:
        known = settled.get(seed) or _settle(seed, eng, fuel, settled)
        if known is None:
            search, walk, verdict = _loop_search(seed, eng, fuel)
            if verdict.is_loop:
                return verdict
            if verdict.outcome == "unknown":
                unknown = verdict
                continue
            for t, height in walk.heights.items():
                settled.setdefault(t, (height, len(search.reached)))
            known = settled[seed]
        max_depth = max(max_depth, known[0])
    return unknown or MuVerdict.terminates_within(max_depth)


def _settle(
    s: Term, eng: MuEngine, fuel: Fuel, settled: dict[Term, tuple[int, int]]
) -> Optional[tuple[int, int]]:
    """Settle ``s`` from its reducts, as its loop search would: each must be
    within the size bound (checked first, as a start is settled at any
    size) and settled or a normal form, and one plus their bounds within
    ``max_steps``.  The search's graph is then theirs under ``s``: complete,
    acyclic, with no oversize term, since a settled term's graph holds only
    settled terms.  Returns the (height, bound) recorded for ``s``, or None."""
    height, bound = 0, 1
    for r in eng.targets(s):
        if term_size(r) > fuel.max_term_size:
            return None
        known = settled.get(r)
        if known is None:
            if eng.targets(r):
                return None
            known = (0, 1)
        height = max(height, known[0] + 1)
        bound += known[1]
    if bound > fuel.max_steps:
        return None
    settled[s] = (height, bound)
    return height, bound


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
            for parts in _compositions(size - 1, sym.arity):
                for args in product(*(by_size[p] for p in parts)):
                    bucket.append(App(sym, args))
        by_size[size] = bucket
    return [t for bucket in by_size for t in bucket]


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """Orderings of ``total`` into ``parts`` positive integers, lexicographic:
    the gaps between ``parts - 1`` cut points strictly inside ``(0, total)``."""
    for cuts in combinations(range(1, total), parts - 1):
        bounds = (0, *cuts, total)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))
