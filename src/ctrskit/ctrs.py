"""Conditional rewrite rules, their well-formedness checks, and a bounded
engine for the level-indexed conditional rewrite relation.

A deterministic conditional system consists of rules
``lhs -> rhs <= s1 == t1, ..., sn == tn`` where conditions are oriented
reachability constraints, every right-hand variable is bound by the left-hand
side or some condition, and each ``s_i`` only uses variables bound by ``lhs``
and earlier ``t_j``.  The induced rewrite relation is stratified: a step at
level ``i + 1`` may discharge its conditions using reachability built from
steps of level ``i`` or lower, and level 0 permits no steps at all.

Conditional rewriting is undecidable in general, so every search here is
bounded by a :class:`Fuel` and every answer carries an ``exhausted`` flag
distinguishing "provably absent" from "not found within bounds".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from operator import attrgetter
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .terms import (
    FunSym,
    Position,
    Subst,
    Term,
    Var,
    apply_subst,
    fun_syms,
    match,
    positions,
    replace_at,
    subterm_at,
    term_size,
    term_to_str,
    vars_of,
)


@dataclass(frozen=True)
class ConditionalRule:
    """A rule ``lhs -> rhs`` guarded by an ordered list of oriented conditions."""

    id: str
    lhs: Term
    rhs: Term
    conditions: tuple[tuple[Term, Term], ...] = ()

    @property
    def is_conditional(self) -> bool:
        return bool(self.conditions)

    def __str__(self) -> str:
        head = f"{term_to_str(self.lhs)} -> {term_to_str(self.rhs)}"
        if not self.conditions:
            return head
        conds = ", ".join(f"{term_to_str(s)} == {term_to_str(t)}" for s, t in self.conditions)
        return f"{head} | {conds}"


@dataclass(frozen=True)
class Violation:
    """One violated well-formedness condition, tied to a rule (and condition)."""

    rule_id: str
    code: str
    message: str
    condition_index: Optional[int] = None

    def __str__(self) -> str:
        where = self.rule_id
        if self.condition_index is not None:
            where += f", condition {self.condition_index}"
        return f"[{self.code}] {where}: {self.message}"


@dataclass(frozen=True)
class Dctrs:
    """A validated deterministic conditional system over an original signature."""

    signature: tuple[FunSym, ...]  # sorted by (name, arity)
    rules: tuple[ConditionalRule, ...]

    @property
    def conditional_rules(self) -> tuple[ConditionalRule, ...]:
        return tuple(r for r in self.rules if r.is_conditional)

    @property
    def unconditional_rules(self) -> tuple[ConditionalRule, ...]:
        return tuple(r for r in self.rules if not r.is_conditional)

    def rule(self, rule_id: str) -> ConditionalRule:
        for r in self.rules:
            if r.id == rule_id:
                return r
        raise KeyError(rule_id)


def _rule_symbols(rule: ConditionalRule) -> set[FunSym]:
    syms = fun_syms(rule.lhs) | fun_syms(rule.rhs)
    for s, t in rule.conditions:
        syms |= fun_syms(s) | fun_syms(t)
    return syms


def validate_dctrs(
    rules: Sequence[ConditionalRule],
    extra_symbols: Sequence[FunSym] = (),
) -> Union[Dctrs, list[Violation]]:
    """Check the determinism and variable conditions on every rule.

    Returns the validated system, or the complete list of violations.
    ``extra_symbols`` adds declared-but-unused symbols to the signature
    (useful for constructors that only occur in terms to be rewritten).
    """
    violations: list[Violation] = []
    seen_ids: set[str] = set()
    for rule in rules:
        if rule.id in seen_ids:
            violations.append(Violation(rule.id, "duplicate-id", "rule id used twice"))
        seen_ids.add(rule.id)

        if isinstance(rule.lhs, Var):
            violations.append(
                Violation(rule.id, "variable-lhs", "left-hand side is a variable")
            )
        lhs_vars = set(vars_of(rule.lhs))
        cond_vars: set[str] = set()
        for s, t in rule.conditions:
            cond_vars |= set(vars_of([s, t]))
        free_rhs = set(vars_of(rule.rhs)) - lhs_vars - cond_vars
        if free_rhs:
            violations.append(
                Violation(
                    rule.id,
                    "unbound-rhs-var",
                    f"right-hand side uses unbound variables {sorted(free_rhs)}",
                )
            )
        bound = set(lhs_vars)
        for i, (s, t) in enumerate(rule.conditions, start=1):
            loose = set(vars_of(s)) - bound
            if loose:
                violations.append(
                    Violation(
                        rule.id,
                        "determinism",
                        f"condition source uses variables {sorted(loose)} not bound "
                        "by the left-hand side or earlier condition targets",
                        condition_index=i,
                    )
                )
            bound |= set(vars_of(t))

        for sym in _rule_symbols(rule):
            if sym.is_usymbol:
                violations.append(
                    Violation(
                        rule.id,
                        "unraveling-symbol",
                        f"symbol {sym.name} is reserved for unraveled systems",
                    )
                )

    if violations:
        return violations

    symbols: set[FunSym] = set(extra_symbols)
    for rule in rules:
        symbols |= _rule_symbols(rule)
    signature = tuple(sorted(symbols, key=lambda s: (s.name, s.arity)))
    return Dctrs(signature=signature, rules=tuple(rules))


@dataclass(frozen=True)
class Fuel:
    """Bounds that make every search total.

    ``max_level`` caps the condition-discharge stratification, ``max_steps``
    caps node expansions per search, and ``max_term_size`` discards reducts
    larger than the given node count.
    """

    max_level: int = 8
    max_steps: int = 500
    max_term_size: int = 200

    def __post_init__(self) -> None:
        if min(self.max_level, self.max_steps, self.max_term_size) < 1:
            raise ValueError("all fuel bounds must be strictly positive")


DEFAULT_FUEL = Fuel()

# Step kinds: "conditional" steps carry the level that witnessed their
# conditions, "mu" steps come from the context-sensitive engine, "plain"
# steps from unrestricted unconditional rewriting.
KIND_CONDITIONAL = "conditional"
KIND_MU = "mu"
KIND_PLAIN = "plain"


@dataclass(frozen=True, eq=False)
class ReductionStep:
    """One rewrite step, kept as a checkable certificate."""

    source: Term
    target: Term
    position: Position
    rule_id: str
    subst: Subst
    kind: str = KIND_CONDITIONAL
    level: Optional[int] = None

    def check(self, lhs: Term, rhs: Term) -> bool:
        """Re-derive the step from the named rule's sides."""
        try:
            redex = subterm_at(self.source, self.position)
        except Exception:
            return False
        return (
            redex == apply_subst(lhs, self.subst)
            and self.target == replace_at(self.source, self.position, apply_subst(rhs, self.subst))
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReductionStep):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.position == other.position
            and self.rule_id == other.rule_id
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.position, self.rule_id))

    def __str__(self) -> str:
        from .terms import format_position

        return (
            f"{term_to_str(self.source)} -> {term_to_str(self.target)} "
            f"[{self.rule_id} @ {format_position(self.position)}]"
        )


@dataclass(frozen=True)
class Reduction:
    """A finite step sequence; adjacent steps must chain source-to-target."""

    start: Term
    steps: tuple[ReductionStep, ...] = ()

    def __post_init__(self) -> None:
        here = self.start
        for step in self.steps:
            if step.source != here:
                raise ValueError("reduction steps do not chain")
            here = step.target

    @property
    def end(self) -> Term:
        return self.steps[-1].target if self.steps else self.start

    def __len__(self) -> int:
        return len(self.steps)

    def terms(self) -> list[Term]:
        return [self.start] + [s.target for s in self.steps]

    def __str__(self) -> str:
        return " -> ".join(term_to_str(t) for t in self.terms())


class StepAt(NamedTuple):
    step: Optional[ReductionStep]
    exhausted: bool


class StepSearch(NamedTuple):
    steps: tuple[ReductionStep, ...]
    exhausted: bool


class Reach(NamedTuple):
    reduction: Optional[Reduction]
    exhausted: bool


# -- the shared search primitives ------------------------------------------


def expansion_budget(limit: int) -> Callable[[], bool]:
    """A ``charge`` that allows ``limit`` node expansions."""
    spent = count(1)
    return lambda: next(spent) <= limit


def within_size(
    steps: Iterable[ReductionStep], max_term_size: int
) -> list[Optional[ReductionStep]]:
    """``steps`` in order, with None in place of each step whose target
    exceeds ``max_term_size``."""
    return [step if term_size(step.target) <= max_term_size else None for step in steps]


def _path_from(reached: dict[Term, Optional[ReductionStep]], last: ReductionStep) -> Reduction:
    """The step path from a search start through ``last``."""
    chain = [last]
    while reached[chain[-1].source] is not None:
        chain.append(reached[chain[-1].source])
    chain.reverse()
    return Reduction(chain[0].source, tuple(chain))


class Search(NamedTuple):
    # Every discovered node in BFS order, the starts first, mapped to the
    # edge that discovered it (None for a start).
    reached: dict
    path: Optional[Reduction]  # a nonempty path to the goal, when one was found
    exhausted: bool


def bfs(
    starts: Iterable[Any],
    successors: Callable[[Any], Iterable[Any]],
    charge: Callable[[], bool],
    goal: Optional[Term] = None,
    target: Callable[[Any], Any] = attrgetter("target"),
) -> Search:
    """The bounded breadth-first search behind every search in the toolkit.

    ``successors(node)`` yields the node's out-edges in order, with None in
    place of each edge the caller dropped or could not compute (term-size
    filters belong to callers); a None makes the search exhausted from that
    point on.  ``target`` maps an edge to its node.  ``charge()`` runs before
    each expansion; once it returns False the search stops, exhausted.
    ``goal`` is tested on every kept edge before the seen-check, so a goal
    equal to a start needs a nonempty cycle back to it.
    """
    reached: dict = dict.fromkeys(starts)
    queue = list(reached)
    exhausted = False
    for current in queue:  # grows while it is walked
        if not charge():
            return Search(reached, None, True)
        for edge in successors(current):
            if edge is None:
                exhausted = True
                continue
            nxt = target(edge)
            if goal is not None and nxt == goal:
                return Search(reached, _path_from(reached, edge), exhausted)
            if nxt not in reached:
                reached[nxt] = edge
                queue.append(nxt)
    return Search(reached, None, exhausted)


_ON_PATH = -1


class Walk(NamedTuple):
    path: Optional[list]  # edges from a root through the accepted back edge
    cycle: Optional[list]  # that cycle's nodes [t, ..., t]
    heights: Optional[dict]  # without any cycle: node -> longest path length


def dfs(
    roots: Iterable[Any],
    out_edges: dict[Any, Sequence[Any]],
    accept: Optional[Callable[[list], bool]] = None,
    target: Callable[[Any], Any] = attrgetter("target"),
) -> Walk:
    """Iterative depth-first search from each unvisited root in turn, the one
    cycle finder of the toolkit.

    Returns the first back edge whose cycle ``accept`` takes (any cycle when
    ``accept`` is None).  Otherwise, if the visited graph has no cycle at
    all, the height of every visited node.
    """
    state: dict = {}  # node -> _ON_PATH while on the current path, then its height
    acyclic = True
    for root in roots:
        if root in state:
            continue
        state[root] = _ON_PATH
        nodes, path, best = [root], [], [0]  # the current path; best heights so far
        stack = [iter(out_edges.get(root, ()))]
        while stack:
            for edge in stack[-1]:
                nxt = target(edge)
                mark = state.get(nxt)
                if mark is None:
                    state[nxt] = _ON_PATH
                    nodes.append(nxt)
                    path.append(edge)
                    best.append(0)
                    stack.append(iter(out_edges.get(nxt, ())))
                    break
                if mark == _ON_PATH:
                    cycle = nodes[nodes.index(nxt):] + [nxt]
                    if accept is None or accept(cycle):
                        return Walk(path + [edge], cycle, None)
                    acyclic = False
                elif mark >= best[-1]:
                    best[-1] = mark + 1
            else:
                stack.pop()
                height = best.pop()
                state[nodes.pop()] = height
                if path:
                    path.pop()
                    best[-1] = max(best[-1], height + 1)
    return Walk(None, None, state if acyclic else None)


def _subst_key(sigma: Subst) -> tuple:
    return tuple(sorted(sigma.items(), key=lambda kv: kv[0]))


class ConditionalEngine:
    """Bounded successor enumeration for the level-indexed relation.

    The engine memoizes per-term results, so reuse one instance when stepping
    many terms of the same system.  All methods are pure with respect to the
    system; the caches only ever hold derived data.
    """

    def __init__(self, system: Dctrs, fuel: Fuel = DEFAULT_FUEL):
        self.system = system
        self.fuel = fuel
        # (subterm, rule_id, budget) -> (solutions, exhausted)
        self._rule_cache: dict[tuple, tuple[tuple[tuple[dict, int], ...], bool]] = {}
        # (term, budget) -> (reduct closure in BFS order, exhausted)
        self._reduct_cache: dict[tuple, tuple[tuple[Term, ...], bool]] = {}
        self._redex_cache: dict[Term, bool] = {}
        # max_steps is a global work budget per public operation; nested
        # condition-discharge searches would otherwise multiply their bounds.
        self._work = 0

    def _reset_budget(self) -> None:
        self._work = 0

    def _charge(self) -> bool:
        """Consume one expansion; False once the operation's budget is spent."""
        self._work += 1
        return self._work <= self.fuel.max_steps

    # -- internal search --------------------------------------------------

    def _has_syntactic_redex(self, t: Term) -> bool:
        cached = self._redex_cache.get(t)
        if cached is None:
            cached = any(
                match(rule.lhs, subterm_at(t, p)) is not None
                for p in positions(t)
                for rule in self.system.rules
            )
            self._redex_cache[t] = cached
        return cached

    def _rule_solutions(
        self, redex: Term, rule: ConditionalRule, budget: int
    ) -> tuple[tuple[tuple[dict, int], ...], bool]:
        """Matching substitutions for ``rule`` on ``redex`` with their minimal
        witnessing levels, using condition discharge at levels < budget."""
        sigma0 = match(rule.lhs, redex)
        if sigma0 is None:
            return (), False
        if not rule.conditions:
            return ((sigma0, 1),), False

        key = (redex, rule.id, budget)
        cached = self._rule_cache.get(key)
        if cached is not None:
            return cached
        if self._work > self.fuel.max_steps:
            return (), True

        solutions: dict[tuple, tuple[dict, int]] = {}
        exhausted_top = True
        keys_before_last: set[tuple] = set()
        for level in range(1, budget + 1):
            if level == budget:
                keys_before_last = set(solutions)
            found, sub_exhausted = self._solve_conditions(rule.conditions, sigma0, level - 1)
            for sigma in found:
                k = _subst_key(sigma)
                if k not in solutions:
                    solutions[k] = (sigma, level)
            if level == budget:
                # Complete only if the sub-searches saturated and no new
                # solutions appeared at the top budget (level fixpoint).
                exhausted_top = sub_exhausted or set(solutions) != keys_before_last
        result = (tuple(solutions.values()), exhausted_top)
        if self._work <= self.fuel.max_steps:
            # Results truncated by the operation budget are not cached: a
            # later operation with a fresh budget must be able to do better.
            self._rule_cache[key] = result
        return result

    def _solve_conditions(
        self, conditions: tuple[tuple[Term, Term], ...], sigma: dict, budget: int
    ) -> tuple[list[dict], bool]:
        """Extend ``sigma`` left-to-right over the conditions by bounded
        reachability; condition targets are matched against reducts to bind
        their extra variables."""
        if not conditions:
            return [sigma], False
        source, target = conditions[0]
        instantiated = apply_subst(source, sigma)
        pattern = apply_subst(target, sigma)
        reducts, exhausted = self._reducts(instantiated, budget)
        out: list[dict] = []
        seen: set[tuple] = set()
        for reduct in reducts:
            if not self._charge():
                return out, True
            binding = match(pattern, reduct)
            if binding is None:
                continue
            merged = dict(sigma)
            merged.update(binding)
            sub, sub_exhausted = self._solve_conditions(conditions[1:], merged, budget)
            exhausted = exhausted or sub_exhausted
            for solution in sub:
                k = _subst_key(solution)
                if k not in seen:
                    seen.add(k)
                    out.append(solution)
        return out, exhausted

    def _reducts(self, t: Term, budget: int) -> tuple[tuple[Term, ...], bool]:
        """Closure of ``t`` under steps of level <= budget, in BFS order."""
        if budget <= 0:
            return (t,), self._has_syntactic_redex(t)
        key = (t, budget)
        cached = self._reduct_cache.get(key)
        if cached is not None:
            return cached

        search = bfs([t], lambda s: self._search_edges(s, budget), self._charge)
        result = (tuple(search.reached), search.exhausted)
        if self._work <= self.fuel.max_steps:
            self._reduct_cache[key] = result
        return result

    def _search_edges(self, s: Term, budget: int) -> list[Optional[ReductionStep]]:
        """Out-edges of ``s`` for :func:`bfs`: a leading None when a condition
        search was cut short, then the steps within the term-size bound."""
        steps, exhausted = self._successors(s, budget)
        cut: list[Optional[ReductionStep]] = [None] if exhausted else []
        return cut + within_size(steps, self.fuel.max_term_size)

    def _successors(self, s: Term, budget: int) -> tuple[tuple[ReductionStep, ...], bool]:
        """All one-step reducts of ``s`` at levels <= budget, deduplicated by
        (target, position, rule) and ordered by position then rule id."""
        out: dict[tuple, ReductionStep] = {}
        exhausted = False
        for p in sorted(positions(s)):
            redex = subterm_at(s, p)
            if isinstance(redex, Var):
                continue
            for rule in self.system.rules:
                solutions, rule_exhausted = self._rule_solutions(redex, rule, budget)
                exhausted = exhausted or rule_exhausted
                for sigma, level in solutions:
                    target = replace_at(s, p, apply_subst(rule.rhs, sigma))
                    dedup = (target, p, rule.id)
                    if dedup not in out:
                        out[dedup] = ReductionStep(
                            source=s,
                            target=target,
                            position=p,
                            rule_id=rule.id,
                            subst=sigma,
                            kind=KIND_CONDITIONAL,
                            level=level,
                        )
        ordered = tuple(
            sorted(out.values(), key=lambda st: (st.position, st.rule_id, _term_key(st.target)))
        )
        return ordered, exhausted

    # -- public operations -------------------------------------------------

    def condition_solutions(
        self, rule: ConditionalRule, sigma: dict, upto: int
    ) -> tuple[list[dict], bool]:
        """Extensions of ``sigma`` discharging the first ``upto`` conditions
        of ``rule`` within the engine's level budget."""
        self._reset_budget()
        return self._solve_conditions(rule.conditions[:upto], sigma, self.fuel.max_level)

    def step_at(self, s: Term, p: Position, rule: ConditionalRule) -> StepAt:
        """The minimal-level step applying ``rule`` at position ``p`` of ``s``."""
        self._reset_budget()
        redex = subterm_at(s, p)
        if isinstance(redex, Var):
            return StepAt(None, False)
        solutions, exhausted = self._rule_solutions(redex, rule, self.fuel.max_level)
        if not solutions:
            return StepAt(None, exhausted)
        sigma, level = min(
            solutions, key=lambda pair: (pair[1], _term_key(apply_subst(rule.rhs, pair[0])))
        )
        target = replace_at(s, p, apply_subst(rule.rhs, sigma))
        step = ReductionStep(
            source=s,
            target=target,
            position=p,
            rule_id=rule.id,
            subst=sigma,
            kind=KIND_CONDITIONAL,
            level=level,
        )
        return StepAt(step, exhausted)

    def all_steps(self, s: Term) -> StepSearch:
        self._reset_budget()
        steps, exhausted = self._successors(s, self.fuel.max_level)
        return StepSearch(steps, exhausted)

    def reachable(self, start: Term, goal: Term) -> Reach:
        """Breadth-first bounded search for ``start ->* goal``."""
        self._reset_budget()
        if start == goal:
            return Reach(Reduction(start), False)
        search = bfs(
            [start],
            lambda s: self._search_edges(s, self.fuel.max_level),
            self._charge,
            goal,
        )
        return Reach(search.path, search.exhausted)


def _term_key(t: Term) -> tuple:
    """A deterministic structural sort key (independent of hash seeds)."""
    if isinstance(t, Var):
        return (0, t.name)
    return (1, t.sym.name, t.sym.arity) + tuple(_term_key(a) for a in t.args)

