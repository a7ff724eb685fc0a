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

The comparisons recurse once per term level, so the search refuses, with a
:class:`SearchRefusedError` naming the cap, a system with more than
``MAX_SIGNATURE`` symbols or a rule side deeper than ``MAX_SIDE_DEPTH``.
"""

from __future__ import annotations

from typing import Optional, Union

from .records import Frozen
from .terms import App, FunSym, Term, Var, subterms, term_size, vars_of
from .unravel import Trs


class UnknownSymbolError(Exception):
    """A compared term uses a symbol outside the precedence."""


class SearchRefusedError(Exception):
    """The system exceeds a cap of the search; use an external prover."""


# Depth 257 admits the unraveling of any rule whose terms are at most 256
# levels deep and keeps the comparisons within the default recursion limit.
MAX_SIGNATURE = 10
MAX_SIDE_DEPTH = 257


class Precedence(Frozen):
    """A strict total order on function symbols, greatest first."""

    __slots__ = ("order",)

    def _check(self) -> None:
        if len(set(self.order)) != len(self.order):
            raise ValueError("precedence lists a symbol twice")

    def __str__(self) -> str:
        return " > ".join(s.name for s in self.order)


def lpo_greater(s: Term, t: Term, prec: Precedence) -> bool:
    """The strict lexicographic path order induced by ``prec``.  Verdicts on
    pairs of applications are memoized for the call, as in :func:`_lpo3`."""
    ranks = {sym: i for i, sym in enumerate(prec.order)}
    memo: dict[tuple[Term, Term], bool] = {}

    def gt(a: Term, b: Term) -> bool:
        if isinstance(a, Var):
            return False
        if a.sym not in ranks:
            raise UnknownSymbolError(f"{a.sym.name}/{a.sym.arity} not in precedence")
        if isinstance(b, Var):
            return b.name in vars_of(a)
        if b.sym not in ranks:
            raise UnknownSymbolError(f"{b.sym.name}/{b.sym.arity} not in precedence")
        key = (a, b)
        verdict = memo.get(key)
        if verdict is not None:
            return verdict
        # Loops, not any() or all(), whose generators add a frame per level.
        verdict = False
        for ai in a.args:
            if ai == b or gt(ai, b):  # (i) some argument of a is >= b
                verdict = True
                break
        else:
            # (ii) greater root, or (iii) equal roots and lexicographically
            # greater arguments; either way a dominates every argument of b
            head = ranks[a.sym] < ranks[b.sym]
            if a.sym == b.sym:
                for ak, bk in zip(a.args, b.args):
                    if ak != bk:
                        head = gt(ak, bk)
                        break
            if head:
                for bj in b.args:
                    if not gt(a, bj):
                        break
                else:
                    verdict = True
        memo[key] = verdict
        return verdict

    return gt(s, t)


# Three-valued evaluation under a partial precedence.  ``above`` is a
# transitively closed set of pairs (f, g), read f > g.  A verdict is True or
# False when every total extension of ``above`` agrees, and otherwise the
# first undecided atom (f, g) the evaluation met.

Atom = tuple[FunSym, FunSym]
Verdict = Union[bool, Atom]
VarSets = dict[Term, frozenset[str]]
Memo = dict[tuple[Term, Term, frozenset[Atom]], Verdict]


def _lpo3(s: Term, t: Term, above: frozenset[Atom], varsets: VarSets, memo: Memo) -> Verdict:
    """``s >lpo t`` under the partial precedence ``above``; ``varsets`` maps
    every subterm of a left-hand side to its variable names.

    The evaluation meets the same pair of subterms exponentially often in
    the depth of the terms; ``memo`` keeps each verdict by ``(s, t,
    above)``, so that each is decided once."""
    if isinstance(s, Var):
        return False
    if isinstance(t, Var):
        return t.name in varsets[s]
    key = (s, t, above)
    known = memo.get(key)
    if known is not None:
        return known

    need: Optional[Atom] = None
    for si in s.args:
        verdict = si == t or _lpo3(si, t, above, varsets, memo)
        if verdict is True:
            memo[key] = True
            return True
        if verdict is not False and need is None:
            need = verdict

    if s.sym == t.sym:
        head: Verdict = False
        for sk, tk in zip(s.args, t.args):
            if sk != tk:
                head = _lpo3(sk, tk, above, varsets, memo)
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
            verdict = _lpo3(s, tj, above, varsets, memo)
            if verdict is False:
                dominates = False
                break
            if dominates is True:
                dominates = verdict
        if dominates is not False:
            both = dominates if head is True else head
            if both is True:
                memo[key] = True
                return True
            if need is None:
                need = both
    memo[key] = verdict = False if need is None else need
    return verdict


def _with(above: frozenset[Atom], f: FunSym, g: FunSym) -> frozenset[Atom]:
    """The transitive closure of ``above`` plus f > g.

    Callers pass an undecided atom, neither (f, g) nor (g, f) in ``above``,
    so the result has no cycle and stays a strict partial order.
    """
    uppers = {f} | {a for a, b in above if b == f}
    lowers = {g} | {b for a, b in above if a == g}
    return above | {(a, b) for a in uppers for b in lowers}


def _orientable(
    pending: list[tuple[Term, Term]], above: frozenset[Atom], varsets: VarSets, memo: Memo
) -> bool:
    """Whether some total extension of ``above`` orients every pending pair.

    Pairs decided True stay True in every extension, so only the undecided
    ones are passed down.  Branching on the first needed atom of the first
    undecided pair, in both directions, covers every total extension.
    """
    undecided = []
    need: Optional[Atom] = None
    for lhs, rhs in pending:
        verdict = _lpo3(lhs, rhs, above, varsets, memo)
        if verdict is False:
            return False
        if verdict is not True:
            undecided.append((lhs, rhs))
            need = need or verdict
    if need is None:
        return True
    f, g = need
    return any(
        _orientable(undecided, _with(above, a, b), varsets, memo) for a, b in ((f, g), (g, f))
    )


def _depth(t: Term) -> int:
    """Nodes on the longest root-to-leaf path of ``t``: one pass per level
    over the distinct subterms at that level."""
    depth, level = 0, {t}
    while level:
        depth += 1
        level = {a for u in level if u.__class__ is App for a in u.args}
    return depth


def search_precedence(system: Trs) -> Optional[Precedence]:
    """The lexicographically first precedence orienting every rule
    left-to-right, or None when no precedence does; a system beyond the
    caps ``MAX_SIGNATURE`` and ``MAX_SIDE_DEPTH`` raises
    :class:`SearchRefusedError`.

    Precedences are compared as permutations of the signature sorted by name
    then arity.  The answer is built greedily: each position takes the
    smallest remaining symbol that can sit above all the others while the
    rules stay orientable, with the partial-order search as the oracle.  A
    failing search is a single oracle call.
    """
    symbols = sorted(system.signature, key=lambda s: (s.name, s.arity))
    if len(symbols) > MAX_SIGNATURE:
        raise SearchRefusedError(
            f"signature has {len(symbols)} symbols (cap {MAX_SIGNATURE}); "
            "delegate to an external prover"
        )
    # Before ``varsets``, which is quadratic in depth; a side of at most
    # MAX_SIDE_DEPTH nodes is no deeper, so only larger ones are walked.
    for rule in system.rules:
        for side in (rule.lhs, rule.rhs):
            depth = _depth(side) if term_size(side) > MAX_SIDE_DEPTH else 0
            if depth > MAX_SIDE_DEPTH:
                raise SearchRefusedError(
                    f"rule {rule.id} is {depth} levels deep (cap {MAX_SIDE_DEPTH}); "
                    "delegate to an external prover"
                )
    pairs = [(r.lhs, r.rhs) for r in system.rules]
    varsets = {u: frozenset(vars_of(u)) for lhs, _ in pairs for u in subterms(lhs)}
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
    return Precedence(tuple(order))


def orients(system: Trs, prec: Precedence) -> bool:
    """Re-validate a certificate: every rule strictly decreasing."""
    return all(lpo_greater(r.lhs, r.rhs, prec) for r in system.rules)
