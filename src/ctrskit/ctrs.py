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
distinguishing "provably absent" from "not found within bounds".  One rule
decides completeness: a rule's solutions at level budget ``L`` are complete
when its condition searches at level ``L - 1`` saturated, and a closure is
complete when every step it took is; by induction on the level, such an
answer is the same at every higher level (see ``_rule_solutions``).

The engine keeps three memos per (term, level budget): rule solutions,
reduct closures and step entries.  Both engines memoize a term's steps as
its entry ``(targets, roots, below)``: its distinct one-step targets in step
order, its root redexes as (rule id, substitution, right-hand side instance,
level), and ``(index, entry)`` for each argument, ascending, that has a
target.  The steps are the root steps, then each such argument's steps at
its position: a preorder walk, so positions come out sorted.
:func:`memo_steps` rebuilds them and :func:`memo_step` the first to a given
target; no memo holds a step below the root.  A result is stored only if the
operation's work budget was not spent when it was complete, so a later
operation, with a fresh budget, recomputes what an earlier one could not
finish.  So an entry holds its arguments' entries, not their keys: one left
unstored must still rebuild the steps above it.  A warm engine spends less
on subproblems it has already solved, so it can finish where a fresh one
runs out of budget.  Whether a term holds a redex, all that a level-0 search
asks, costs no budget and is not memoized.  The walks over a term's subterms
keep explicit stacks; only condition searches nest, at most ``max_level``
deep.
"""

from __future__ import annotations

from itertools import count
from operator import attrgetter
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .records import Frozen
from .terms import (
    ROOT,
    App,
    FunSym,
    Guard,
    InvalidPositionError,
    Position,
    Subst,
    Term,
    Var,
    admits,
    apply_subst,
    arg_guard,
    format_position,
    fun_syms,
    match,
    replace_at,
    subterm_at,
    subterms,
    term_size,
    term_to_str,
    vars_of,
)


class ConditionalRule(NamedTuple):
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


class Violation(NamedTuple):
    """One violated well-formedness condition, tied to a rule (and condition)
    or, for a symbol declared but used by no rule, to ``SIG``."""

    rule_id: str
    code: str
    message: str
    condition_index: Optional[int] = None

    def __str__(self) -> str:
        where = self.rule_id
        if self.condition_index is not None:
            where += f", condition {self.condition_index}"
        return f"[{self.code}] {where}: {self.message}"


class ValidationError(Exception):
    def __init__(self, violations: Sequence[Violation]):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class Dctrs(Frozen):
    """A validated deterministic conditional system over an original
    signature, which is sorted by ``(name, arity)``."""

    __slots__ = ("signature", "rules")

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


def _signature(
    symbols: Iterable[FunSym], rules: Iterable[ConditionalRule] = ()
) -> tuple[FunSym, ...]:
    """``symbols`` and the symbols of ``rules``, sorted by name and arity."""
    symbols = set(symbols).union(*map(_rule_symbols, rules))
    return tuple(sorted(symbols, key=attrgetter("name", "arity")))


def validate_dctrs(
    rules: Sequence[ConditionalRule],
    extra_symbols: Sequence[FunSym] = (),
) -> Union[Dctrs, list[Violation]]:
    """Check the determinism and variable conditions on every rule, and that
    no symbol, in a rule or in ``extra_symbols``, bears an unraveling name.

    Returns the validated system, or the complete list of violations.
    ``extra_symbols`` adds declared-but-unused symbols to the signature
    (useful for constructors that only occur in terms to be rewritten).
    """
    violations: list[Violation] = []
    seen_ids: set[str] = set()
    used: set[FunSym] = set()
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

        rule_symbols = _rule_symbols(rule)
        used |= rule_symbols
        violations += _reserved(rule.id, rule_symbols)
    violations += _reserved("SIG", set(extra_symbols) - used)

    if violations:
        return violations
    return Dctrs(_signature(used.union(extra_symbols)), tuple(rules))


def _reserved(where: str, symbols: Iterable[FunSym]) -> list[Violation]:
    """A violation for each symbol that bears a name reserved for unraveling."""
    return [
        Violation(where, "unraveling-symbol", f"symbol {s.name} is reserved for unraveled systems")
        for s in _signature(symbols)
        if s.is_usymbol
    ]


class Fuel(Frozen):
    """Bounds that make every search total.

    ``max_level`` caps the condition-discharge stratification, ``max_steps``
    caps node expansions per search, and ``max_term_size`` discards reducts
    larger than the given node count.
    """

    __slots__ = ("max_level", "max_steps", "max_term_size")
    _defaults = {"max_level": 8, "max_steps": 500, "max_term_size": 200}

    def _check(self) -> None:
        if min(self.max_level, self.max_steps, self.max_term_size) < 1:
            raise ValueError("all fuel bounds must be strictly positive")


DEFAULT_FUEL = Fuel()

# Step kinds: "conditional" steps carry the level that witnessed their
# conditions; "mu" steps come from the context-sensitive engine, which also
# does plain rewriting, under the full replacement map.
KIND_CONDITIONAL = "conditional"
KIND_MU = "mu"


class ReductionStep(NamedTuple):
    """One rewrite step, kept as a checkable certificate.

    A step is a tuple of its fields, so it is iterable, immutable, and equal
    to a plain tuple of the same fields.  Equality compares every field, the
    substitution, kind and level included.  Steps are unhashable, because
    the substitution is a dict.
    """

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
        except InvalidPositionError:
            return False
        return (
            redex == apply_subst(lhs, self.subst)
            and self.target == replace_at(self.source, self.position, apply_subst(rhs, self.subst))
        )

    def __str__(self) -> str:
        return (
            f"{term_to_str(self.source)} -> {term_to_str(self.target)} "
            f"[{self.rule_id} @ {format_position(self.position)}]"
        )


class Reduction(Frozen):
    """A finite step sequence; adjacent steps must chain source-to-target."""

    __slots__ = ("start", "steps")
    _defaults = {"steps": ()}

    def _check(self) -> None:
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


class StepSearch(NamedTuple):
    steps: tuple[ReductionStep, ...]
    exhausted: bool


class Reach(NamedTuple):
    reduction: Optional[Reduction]
    exhausted: bool

    @property
    def found(self) -> bool:
        return self.reduction is not None


# -- step memo entries ------------------------------------------------------

NORMAL_FORM: tuple = ((), (), ())  # the entry of every term without a step


def memo_entry(t: App, roots: Sequence[tuple], below: Sequence[tuple[int, tuple]]) -> tuple:
    """The entry of ``t`` with these root redexes and arguments' entries."""
    if not roots and not below:
        return NORMAL_FORM
    out = [root[2] for root in roots]
    sym, args = t.sym, t.args
    for i, entry in below:
        before, after = args[: i - 1], args[i:]
        out += [App(sym, before + (u,) + after) for u in entry[0]]
    return tuple(dict.fromkeys(out)), tuple(roots), tuple(below)


def memo_steps(s: Term, entry: tuple, kind: str) -> tuple[ReductionStep, ...]:
    """The steps of ``s``, rebuilt from its entry: a preorder walk down the
    arguments' entries, with each root redex met replaced in ``s``."""
    if not entry[0]:
        return ()
    steps = []
    todo = [(entry, ROOT)]
    while todo:
        (_, roots, below), p = todo.pop()
        for rule_id, sigma, rhs, level in roots:
            steps.append(ReductionStep(s, replace_at(s, p, rhs), p, rule_id, sigma, kind, level))
        for i, e in reversed(below):
            todo.append((e, p + (i,)))
    return tuple(steps)


def memo_step(s: Term, t: Term, entry: tuple, kind: str) -> ReductionStep:
    """The first step of ``s`` to ``t``, one of its entry's targets: the edge
    a search over targets takes, found by one walk down the entries.  Raises
    :class:`ValueError` when ``t`` is not one of them."""
    if t not in entry[0]:
        raise ValueError(f"{term_to_str(t)} is not a one-step reduct of {term_to_str(s)}")
    position, u, v = [], s, t
    while True:  # v is a target of u, and entry is the entry of u
        _, roots, below = entry
        for rule_id, sigma, rhs, level in roots:
            if rhs == v:
                return ReductionStep(s, t, tuple(position), rule_id, sigma, kind, level)
        # No root step reaches v, so v is u with one argument rewritten.
        args, goal = u.args, v.args
        i, entry = next(
            (i, e)
            for i, e in below
            if goal[i - 1] in e[0] and goal[: i - 1] == args[: i - 1] and goal[i:] == args[i:]
        )
        position.append(i)
        u, v = args[i - 1], goal[i - 1]


# -- the shared search primitives ------------------------------------------


def expansion_budget(limit: int) -> Callable[[], bool]:
    """A ``charge`` that allows ``limit`` node expansions."""
    spent = count(1)
    return lambda: next(spent) <= limit


def within_size(terms: Iterable[Term], max_term_size: int) -> list[Optional[Term]]:
    """``terms`` in order, with None in place of each one that exceeds
    ``max_term_size``."""
    return [t if term_size(t) <= max_term_size else None for t in terms]


def reduction(terms: Sequence[Term], step: Callable[[Term, Term], ReductionStep]) -> Reduction:
    """The reduction through the node path ``terms``, with ``step(u, v)``
    from each term to the next: the one builder of certificates."""
    return Reduction(terms[0], tuple(map(step, terms, terms[1:])))


class Search(NamedTuple):
    # Every discovered node in BFS order, the starts first, mapped to the
    # node that discovered it (None for a start).
    reached: dict
    succ: dict  # each expanded node -> its kept successors, in expansion order
    path: Optional[list]  # the nodes from a start to the goal, when it was found
    exhausted: bool


def bfs(
    starts: Iterable[Any],
    successors: Callable[[Any], Sequence[Any]],
    charge: Callable[[], bool],
    goal: Optional[Term] = None,
) -> Search:
    """The bounded breadth-first search behind every search in the toolkit;
    it returns the graph it walked.

    ``successors(node)`` returns the node's successors in order, with None
    in place of each one the caller dropped or could not compute (term-size
    filters belong to callers); a None makes the search exhausted from that
    point on.  ``charge()`` runs before each expansion; once it returns
    False the search stops, exhausted, and the nodes it did not expand get
    no ``succ`` entry.  ``goal`` is tested on every kept successor before
    the seen-check, so a goal equal to a start needs a nonempty cycle back
    to it.  ``path`` lists the nodes that discovered each other, from a
    start through the goal; :func:`reduction` turns it into a certificate.
    """
    reached: dict = dict.fromkeys(starts)
    succ: dict = {}
    queue = list(reached)
    exhausted = False
    for current in queue:  # grows while it is walked
        if not charge():
            return Search(reached, succ, None, True)
        out = successors(current)
        succ[current] = out if None not in out else [u for u in out if u is not None]
        for nxt in out:
            if nxt is None:
                exhausted = True
                continue
            if goal is not None and nxt == goal:
                path = [goal, current]
                while reached[path[-1]] is not None:
                    path.append(reached[path[-1]])
                return Search(reached, succ, path[::-1], exhausted)
            if nxt not in reached:
                reached[nxt] = current
                queue.append(nxt)
    return Search(reached, succ, None, exhausted)


_ON_PATH = -1


class Walk(NamedTuple):
    path: Optional[list]  # nodes from a root through the accepted back edge's target
    cycle: Optional[list]  # that cycle's nodes [t, ..., t]
    heights: Optional[dict]  # without any cycle: node -> longest path length


def dfs(
    roots: Iterable[Any],
    succ: dict[Any, Sequence[Any]],
    accept: Optional[Callable[[list], bool]] = None,
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
        nodes, best = [root], [0]  # the current path; best heights so far
        stack = [iter(succ.get(root, ()))]
        while stack:
            for nxt in stack[-1]:
                mark = state.get(nxt)
                if mark is None:
                    state[nxt] = _ON_PATH
                    nodes.append(nxt)
                    best.append(0)
                    stack.append(iter(succ.get(nxt, ())))
                    break
                if mark == _ON_PATH:
                    cycle = nodes[nodes.index(nxt):] + [nxt]
                    if accept is None or accept(cycle):
                        return Walk(nodes + [nxt], cycle, None)
                    acyclic = False
                elif mark >= best[-1]:
                    best[-1] = mark + 1
            else:
                stack.pop()
                height = best.pop()
                state[nodes.pop()] = height
                if best:
                    best[-1] = max(best[-1], height + 1)
    return Walk(None, None, state if acyclic else None)


def rules_by_root(rules: Iterable[Any]) -> dict[FunSym, tuple[Any, ...]]:
    """``rules`` grouped by the root symbol of their left-hand side, each
    group in the given order: only one group can match at a given redex."""
    index: dict[FunSym, list] = {}
    for rule in rules:
        index.setdefault(rule.lhs.sym, []).append(rule)
    return {sym: tuple(group) for sym, group in index.items()}


def guarded_rules_by_root(rules: Iterable[Any]) -> dict[FunSym, tuple[tuple[Any, Guard], ...]]:
    """:func:`rules_by_root` with each rule paired with the :func:`arg_guard`
    of its left-hand side, so that a rule whose arguments clash with a
    redex's is skipped without matching."""
    return {
        sym: tuple((rule, arg_guard(rule.lhs)) for rule in group)
        for sym, group in rules_by_root(rules).items()
    }


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
        self._rules_at = guarded_rules_by_root(system.rules)
        # (subterm, rule_id, budget) -> (solutions, exhausted)
        self._rule_cache: dict[tuple, tuple[tuple[tuple[dict, int], ...], bool]] = {}
        # (term, budget) -> (reduct closure in BFS order, exhausted)
        self._reduct_cache: dict[tuple, tuple[tuple[Term, ...], bool]] = {}
        # (term, budget) -> (step entry, exhausted)
        self._step_cache: dict[tuple, tuple[tuple, bool]] = {}
        # max_steps is a global work budget per public operation; nested
        # condition-discharge searches would otherwise multiply their bounds.
        self._work = 0

    def _charge(self) -> bool:
        """Consume one expansion; False once the operation's budget is spent."""
        self._work += 1
        return self._work <= self.fuel.max_steps

    # -- internal search --------------------------------------------------

    def _has_syntactic_redex(self, t: Term) -> bool:
        """Whether a rule's left-hand side matches some subterm of ``t``."""
        return any(
            admits(guard, node.args) and match(rule.lhs, node) is not None
            for node in subterms(t)
            if node.__class__ is App
            for rule, guard in self._rules_at.get(node.sym, ())
        )

    def _rule_solutions(
        self, redex: Term, rule: ConditionalRule, budget: int
    ) -> tuple[tuple[tuple[dict, int], ...], bool]:
        """Matching substitutions for ``rule`` on ``redex`` with their minimal
        witnessing levels, using condition discharge at levels < budget.

        The solutions are complete when the condition searches at the top
        level, ``budget - 1``, saturated.  By induction on the level: the
        level-0 closure of a condition source ``t`` is ``{t}``, flagged
        exactly when ``t`` has a syntactic redex, so unflagged it is ``t``'s
        closure at every level; and if every condition closure at level
        ``L - 1`` is unflagged, it equals the closure at every level, so the
        level-``L`` solutions, and the steps and closures built on them, are final.

        So the level loop stops at the first level ``L`` whose condition
        searches, at level ``L - 1``, saturated: higher levels would find
        the same solutions, whose minimal levels are already recorded.
        """
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
        for level in range(1, budget + 1):
            found, exhausted = self._solve_conditions(rule.conditions, sigma0, level - 1)
            for sigma in found:
                solutions.setdefault(_subst_key(sigma), (sigma, level))
            if not exhausted:
                break
        result = (tuple(solutions.values()), exhausted)
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

        search = bfs([t], lambda s: self._search_edges(*self._successors(s, budget)), self._charge)
        result = (tuple(search.reached), search.exhausted)
        if self._work <= self.fuel.max_steps:
            self._reduct_cache[key] = result
        return result

    def _search_edges(self, entry: tuple, exhausted: bool) -> list[Optional[Term]]:
        """Successors for :func:`bfs` from a term's step entry: a leading None
        when a condition search was cut short, then the targets within the
        term-size bound."""
        cut: list[Optional[Term]] = [None] if exhausted else []
        return cut + within_size(entry[0], self.fuel.max_term_size)

    def _successors(self, s: Term, budget: int) -> tuple[tuple, bool]:
        """The step entry of ``s`` at levels <= budget, and whether a
        condition search was cut short.  Its steps are deduplicated by
        (target, position, rule) and ordered by position, rule id, target.

        The walk keeps a stack of open terms, not host recursion, and does
        what the recursive definition would, in the same order: a term's
        root redexes when it is entered, then its arguments left to right,
        each looked up in the cache when its turn comes; a term's entry is
        cached when it completes if the operation budget is not spent by
        then.  Since condition searches charge the shared budget, this order
        decides what is found when the budget binds.  An entry holds its
        arguments' entries, not their keys: an argument's entry left
        uncached because the budget ran out still rebuilds the steps of the
        terms above it."""
        key = (s, budget)
        cached = self._step_cache.get(key)
        if cached is not None:
            return cached
        if s.__class__ is Var:
            return NORMAL_FORM, False
        # Open terms: [term, root redexes, exhausted so far, arguments done,
        # (index, entry) of each argument done that has a target].
        stack = [[s, *self._root_redexes(s, budget), 0, []]]
        while True:
            frame = stack[-1]
            t, roots, exhausted, i, below = frame
            if i < len(t.args):
                frame[3] = i = i + 1
                arg = t.args[i - 1]
                result = self._step_cache.get((arg, budget))
                if result is None:
                    if arg.__class__ is not Var:
                        stack.append([arg, *self._root_redexes(arg, budget), 0, []])
                        continue
                    result = NORMAL_FORM, False
            else:
                result = (memo_entry(t, roots, below), exhausted)
                if self._work <= self.fuel.max_steps:
                    self._step_cache[t, budget] = result
                stack.pop()
                if not stack:
                    return result
                frame = stack[-1]
                i = frame[3]
            if result[0][0]:
                frame[4].append((i, result[0]))
            frame[2] = frame[2] or result[1]

    def _root_redexes(self, s: App, budget: int) -> tuple[list[tuple], bool]:
        """The root redexes of ``s`` for its entry, one per (target, rule),
        ordered by rule id and target, and whether a condition search was cut short."""
        root: dict[tuple, tuple] = {}
        exhausted = False
        for rule, guard in self._rules_at.get(s.sym, ()):
            if not admits(guard, s.args):
                continue
            solutions, rule_exhausted = self._rule_solutions(s, rule, budget)
            exhausted = exhausted or rule_exhausted
            for sigma, level in solutions:
                target = apply_subst(rule.rhs, sigma)
                root.setdefault((target, rule.id), (rule.id, sigma, target, level))
        return sorted(root.values(), key=lambda r: (r[0], _term_key(r[2]))), exhausted

    # -- public operations -------------------------------------------------

    def condition_solutions(
        self, rule: ConditionalRule, sigma: dict, upto: int
    ) -> tuple[list[dict], bool]:
        """Extensions of ``sigma`` discharging the first ``upto`` conditions
        of ``rule`` within the engine's level budget."""
        self._work = 0
        return self._solve_conditions(rule.conditions[:upto], sigma, self.fuel.max_level)

    def targets(self, s: Term) -> tuple[tuple[Term, ...], bool]:
        """The distinct one-step reducts of ``s``, first occurrences in the
        order of its steps, and whether a condition search was cut short."""
        self._work = 0
        entry, exhausted = self._successors(s, self.fuel.max_level)
        return entry[0], exhausted

    def all_steps(self, s: Term) -> StepSearch:
        self._work = 0
        entry, exhausted = self._successors(s, self.fuel.max_level)
        return StepSearch(memo_steps(s, entry, KIND_CONDITIONAL), exhausted)

    def reachable(self, start: Term, goal: Term) -> Reach:
        """Breadth-first bounded search for ``start ->* goal``."""
        self._work = 0
        if start == goal:
            return Reach(Reduction(start), False)
        expanded: dict[Term, tuple] = {}  # term -> its step entry, for memo_step

        def successors(s: Term) -> list[Optional[Term]]:
            expanded[s], exhausted = self._successors(s, self.fuel.max_level)
            return self._search_edges(expanded[s], exhausted)

        search = bfs([start], successors, self._charge, goal)
        step = lambda u, v: memo_step(u, v, expanded[u], KIND_CONDITIONAL)
        found = None if search.path is None else reduction(search.path, step)
        return Reach(found, search.exhausted)


def _term_key(t: Term) -> tuple:
    """A deterministic structural sort key (independent of hash seeds): the
    flat preorder of ``t``'s nodes, ``0, name`` for a variable and ``1,
    name, arity`` for an application.  Arities make it prefix-free, so it
    orders terms as the nested key ``(1, name, arity, key(arg1), ...)``
    would, without nesting."""
    key: list = []
    todo = [t]
    while todo:
        node = todo.pop()
        if node.__class__ is Var:
            key += (0, node.name)
        else:
            key += (1, node.sym.name, node.sym.arity)
            todo += reversed(node.args)
    return tuple(key)
