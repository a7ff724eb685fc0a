"""Lexicographic path order and exhaustive precedence search.

The order compares terms through a strict total precedence on function
symbols, with left-to-right lexicographic status everywhere.  Orienting every
rule of a system proves its termination.

The search runs over strict partial orders on the signature, after Codish,
Lagoon and Stuckey, "Solving Partial Order Constraints for LPO Termination"
(RTA 2006).  Under a partial order a comparison is true, false, or undecided;
the order's defining formula is positive in the precedence, so a true or
false verdict holds for every total extension.  An undecided comparison names
an atom ``f > g`` it needs, and the search branches on that atom only: first
``f > g``, then ``g > f``, each transitively closed.  Every total precedence
extends one of the two branches, so a failed search is as exhaustive as
trying every permutation, while it never branches on symbols no comparison
reaches.

No function here recurses: comparisons wait on an explicit stack, and with
their verdicts memoized ``s`` and ``t`` need O(|s|·|t|) of them (Löchner,
"Things to know when implementing LPO", 2006).  The search refuses, naming
the cap, more than ``MAX_SIGNATURE`` symbols or ``MAX_VERDICTS`` verdicts.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable, Optional, Union

from .records import Frozen
from .terms import App, FunSym, Term, Var, fun_syms, subterms
from .unravel import Csrs, Trs


class UnknownSymbolError(Exception):
    """A compared term uses a symbol outside the precedence."""


class SearchRefusedError(Exception):
    """The system exceeds a cap of the search; use an external prover."""


# The verdict budget bounds the time and memory of the comparisons; the
# signature cap bounds the number of precedences built, which it does not.
MAX_SIGNATURE = 10
MAX_VERDICTS = 1_000_000


class Precedence(Frozen):
    """A strict total order on function symbols, greatest first."""

    __slots__ = ("order",)

    def _check(self) -> None:
        if len(set(self.order)) != len(self.order):
            raise ValueError("precedence lists a symbol twice")

    def __str__(self) -> str:
        return " > ".join(s.name for s in self.order)


# Three-valued evaluation under a partial precedence.  ``above`` is a
# transitively closed set of pairs (f, g), read f > g.  A verdict is True or
# False when every total extension of ``above`` agrees, and otherwise the
# first undecided atom (f, g) the evaluation met.

Atom = tuple[FunSym, FunSym]
Verdict = Union[bool, Atom]
VarSets = dict[Term, frozenset[str]]
Memo = dict[tuple[Term, Term, frozenset[Atom]], Verdict]
# An evaluation of s > t yields the pairs ``(u, v, *context)`` it needs.
Evaluation = Generator[tuple, Verdict, Verdict]


def _decide(
    pair: tuple, evaluate: Callable, varsets: VarSets, memo: dict, limit: Optional[int] = None
) -> Verdict:
    """Whether ``s > t`` for ``pair = (s, t, *context)``.  Two applications
    are compared by ``evaluate(*pair)``, which waits on the stack while the
    pairs it yields are decided; its verdict is kept in ``memo``, and a memo
    beyond ``limit`` refuses the search.  A variable is greater than nothing,
    an application than each variable in ``varsets[s]``.
    """
    stack: list[tuple[tuple, Evaluation]] = []
    while True:
        s, t = pair[0], pair[1]
        if s.__class__ is Var:
            verdict = False
        elif t.__class__ is Var:
            verdict = t.name in varsets[s]
        else:
            verdict = memo.get(pair)
            if verdict is None:
                stack.append((pair, evaluate(*pair)))
        # Resume the open evaluations until one asks for another pair.
        while stack:
            top, evaluation = stack[-1]
            try:
                pair = evaluation.send(verdict)
                break
            except StopIteration as done:
                stack.pop()
                verdict = memo[top] = done.value
                if limit is not None and len(memo) > limit:
                    reason = f"search needs more than {limit} verdicts (cap {limit})"
                    raise SearchRefusedError(f"{reason}; delegate to an external prover") from None
        else:
            return verdict


def _varsets(terms: Iterable[Term]) -> VarSets:
    """Every subterm of ``terms`` mapped to its variable names, in one pass
    over reversed preorder, where the arguments of a term come before it."""
    varsets: VarSets = {}
    for u in reversed([u for t in terms for u in subterms(t)]):
        if u.__class__ is Var:
            varsets[u] = frozenset((u.name,))
        elif u not in varsets:
            below = [varsets[a] for a in u.args]
            varsets[u] = below[0] if len(below) == 1 else frozenset().union(*below)
    return varsets


def lpo_greater(s: Term, t: Term, prec: Precedence) -> bool:
    """The strict lexicographic path order induced by ``prec``."""
    ranks = {sym: i for i, sym in enumerate(prec.order)}
    unknown = sorted(f"{f.name}/{f.arity}" for f in fun_syms(s) | fun_syms(t) if f not in ranks)
    if unknown:
        raise UnknownSymbolError(f"{', '.join(unknown)} not in precedence")

    def gt(a: App, b: App) -> Evaluation:
        for ai in a.args:
            if ai == b or (yield ai, b):  # (i) some argument of a is >= b
                return True
        # (ii) greater root, or (iii) equal roots and lexicographically
        # greater arguments; either way a dominates every argument of b
        head = ranks[a.sym] < ranks[b.sym]
        if a.sym == b.sym:
            for ak, bk in zip(a.args, b.args):
                if ak != bk:
                    head = yield ak, bk
                    break
        if head:
            for bj in b.args:
                if not (yield a, bj):
                    return False
            return True
        return False

    return _decide((s, t), gt, _varsets([s]), {})


def _lpo3(s: App, t: App, above: frozenset[Atom]) -> Evaluation:
    """``s >lpo t`` under the partial precedence ``above``, as an evaluation
    for :func:`_decide`."""
    need: Optional[Atom] = None
    for si in s.args:
        verdict = si == t or (yield si, t, above)
        if verdict is True:
            return True
        if verdict is not False and need is None:
            need = verdict

    if s.sym == t.sym:
        head: Verdict = False
        for sk, tk in zip(s.args, t.args):
            if sk != tk:
                head = yield sk, tk, above
                break
    elif (s.sym, t.sym) in above:
        head = True
    elif (t.sym, s.sym) in above:
        head = False
    else:
        head = (s.sym, t.sym)

    if head is not False:
        # s must also dominate every argument of t.
        dominates: Verdict = True
        for tj in t.args:
            verdict = yield s, tj, above
            if verdict is False:
                dominates = False
                break
            if dominates is True:
                dominates = verdict
        if dominates is not False:
            both = dominates if head is True else head
            if both is True:
                return True
            if need is None:
                need = both
    return False if need is None else need


def _with(above: frozenset[Atom], f: FunSym, g: FunSym) -> frozenset[Atom]:
    """The transitive closure of ``above`` plus f > g.

    Callers pass an undecided atom, neither (f, g) nor (g, f) in ``above``,
    so the result has no cycle and stays a strict partial order.
    """
    uppers = {f} | {a for a, b in above if b == f}
    lowers = {g} | {b for a, b in above if a == g}
    return above | {(a, b) for a in uppers for b in lowers}


def _orientable(
    pairs: list[tuple[Term, Term]], above: frozenset[Atom], varsets: VarSets, memo: Memo
) -> bool:
    """Whether some total extension of ``above`` orients every pair.

    A branch is a partial order and the pairs undecided under it, as pairs
    decided True stay True in every extension.  Branching on the first needed
    atom, ``f > g`` first and then ``g > f``, covers every total extension.
    """
    branches = [(pairs, above)]
    while branches:
        pending, above = branches.pop()
        undecided, need = [], None
        for lhs, rhs in pending:
            verdict = _decide((lhs, rhs, above), _lpo3, varsets, memo, MAX_VERDICTS)
            if verdict is False:
                break
            if verdict is not True:
                undecided.append((lhs, rhs))
                need = need or verdict
        else:
            if need is None:
                return True
            f, g = need
            branches += [(undecided, _with(above, g, f)), (undecided, _with(above, f, g))]
    return False


def search_precedence(system: Union[Trs, Csrs]) -> Optional[Precedence]:
    """The lexicographically first precedence orienting every rule
    left-to-right, or None when no precedence does; a system beyond the
    caps ``MAX_SIGNATURE`` and ``MAX_VERDICTS`` raises
    :class:`SearchRefusedError`.

    Precedences are compared as permutations of the signature sorted by name
    then arity.  The answer is built greedily: each position takes the
    smallest remaining symbol that can sit above all the others while the
    rules stay orientable, with the partial-order search as the oracle.  A
    failing search is a single oracle call.  The replacement map of a
    context-sensitive system is not read: its rules are oriented as plain
    rules, which proves termination under any map.
    """
    symbols = sorted(system.signature, key=lambda s: (s.name, s.arity))
    if len(symbols) > MAX_SIGNATURE:
        reason = f"signature has {len(symbols)} symbols (cap {MAX_SIGNATURE})"
        raise SearchRefusedError(f"{reason}; delegate to an external prover")
    pairs = [(r.lhs, r.rhs) for r in system.rules]
    varsets = _varsets(lhs for lhs, _ in pairs)
    memo: Memo = {}  # lives for this search only, so it keeps no term alive after
    above: frozenset[Atom] = frozenset()
    if not _orientable(pairs, above, varsets, memo):
        return None
    order: list[FunSym] = []
    while symbols:
        for c in symbols:
            # Placing c next puts it above every other remaining symbol; the
            # last candidate always fits, as the current order is orientable.
            placed = above | {(c, d) for d in symbols if d != c}
            if c is symbols[-1] or _orientable(pairs, placed, varsets, memo):
                break
        above = placed
        order.append(c)
        symbols.remove(c)
        # A pair true under ``above`` is true in every extension of it.
        verdicts = [_decide((*p, above), _lpo3, varsets, memo, MAX_VERDICTS) for p in pairs]
        pairs = [p for p, verdict in zip(pairs, verdicts) if verdict is not True]
    return Precedence(tuple(order))


def orients(system: Union[Trs, Csrs], prec: Precedence) -> bool:
    """Re-validate a certificate: every rule strictly decreasing."""
    return all(lpo_greater(r.lhs, r.rhs, prec) for r in system.rules)
