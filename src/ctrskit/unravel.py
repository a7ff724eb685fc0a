"""Unraveling of conditional systems into unconditional ones.

An n-condition rule is replaced by n+1 unconditional rules that thread the
condition evaluation through fresh symbols: the first rule starts evaluating
the first condition source while saving the left-hand side's variables, each
intermediate rule matches a condition target (binding its extra variables)
and starts the next condition, and the last rule releases the original
right-hand side.

The context-sensitive variant additionally restricts rewriting inside the
fresh symbols to their first argument (where condition evaluation happens),
leaving all argument positions of original symbols active.
"""

from __future__ import annotations

from typing import Sequence

from .ctrs import ConditionalRule, Dctrs
from .records import Frozen
from .terms import (
    App,
    FunSym,
    ReplacementMap,
    Term,
    Var,
    default_u_symbol,
    fun_syms,
    term_to_str,
    vars_of,
)


class Rule(Frozen):
    """An unconditional rewrite rule."""

    __slots__ = ("id", "lhs", "rhs")

    def __init__(self, id: str, lhs: Term, rhs: Term) -> None:
        if isinstance(lhs, Var):
            raise ValueError(f"rule {id}: left-hand side is a variable")
        extra = set(vars_of(rhs)) - set(vars_of(lhs))
        if extra:
            raise ValueError(f"rule {id}: unbound right-hand variables {sorted(extra)}")
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def __str__(self) -> str:
        return f"{term_to_str(self.lhs)} -> {term_to_str(self.rhs)}"


def _signature_of(rules: Sequence[Rule], extra: Sequence[FunSym]) -> tuple[FunSym, ...]:
    symbols: set[FunSym] = set(extra)
    for rule in rules:
        symbols |= fun_syms(rule.lhs) | fun_syms(rule.rhs)
    return tuple(sorted(symbols, key=lambda s: (s.name, s.arity)))


class Trs(Frozen):
    """An unconditional term rewrite system."""

    __slots__ = ("signature", "rules")

    def __init__(self, signature: tuple[FunSym, ...], rules: tuple[Rule, ...]) -> None:
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "rules", rules)

    @classmethod
    def of(cls, rules: Sequence[Rule], extra_symbols: Sequence[FunSym] = ()) -> "Trs":
        return cls(_signature_of(rules, extra_symbols), tuple(rules))


class Csrs(Frozen):
    """A TRS paired with a replacement map restricting rewrite positions."""

    __slots__ = ("signature", "rules", "mu")

    def __init__(
        self, signature: tuple[FunSym, ...], rules: tuple[Rule, ...], mu: ReplacementMap
    ) -> None:
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "mu", mu)


def evar_sequence(rule: ConditionalRule, i: int) -> list[str]:
    """Extra variables of the i-th condition target: variables of ``t_i`` not
    bound by the left-hand side or earlier condition targets, in fixed
    first-occurrence order."""
    if not 1 <= i <= len(rule.conditions):
        raise IndexError(f"rule {rule.id} has {len(rule.conditions)} conditions, asked for {i}")
    bound = set(vars_of(rule.lhs))
    for _, t in rule.conditions[: i - 1]:
        bound |= set(vars_of(t))
    return [v for v in vars_of(rule.conditions[i - 1][1]) if v not in bound]


def unravel_rule(rule: ConditionalRule) -> list[Rule]:
    """The n+1 unconditional rules encoding an n-condition rule (n > 0);
    unconditional rules pass through untouched."""
    n = len(rule.conditions)
    if n == 0:
        return [Rule(rule.id, rule.lhs, rule.rhs)]

    lhs_vars = vars_of(rule.lhs)
    extra_vars = [evar_sequence(rule, i) for i in range(1, n + 1)]

    def carried(i: int) -> list[Var]:
        # Arguments after the first for U_i: Var(lhs) then the extra
        # variables of conditions 1..i-1, in the fixed order.
        names = list(lhs_vars)
        for j in range(i - 1):
            names.extend(extra_vars[j])
        return [Var(v) for v in names]

    u_syms = [default_u_symbol(rule.id, i, 1 + len(carried(i))) for i in range(1, n + 1)]

    out: list[Rule] = []
    s1 = rule.conditions[0][0]
    out.append(
        Rule(f"{rule.id}.1", rule.lhs, App(u_syms[0], (s1, *carried(1))))
    )
    for i in range(1, n):
        t_i = rule.conditions[i - 1][1]
        s_next = rule.conditions[i][0]
        out.append(
            Rule(
                f"{rule.id}.{i + 1}",
                App(u_syms[i - 1], (t_i, *carried(i))),
                App(u_syms[i], (s_next, *carried(i + 1))),
            )
        )
    t_n = rule.conditions[n - 1][1]
    out.append(Rule(f"{rule.id}.{n + 1}", App(u_syms[n - 1], (t_n, *carried(n))), rule.rhs))
    return out


def unravel(system: Dctrs) -> Trs:
    """Replace every conditional rule by its unraveled rules, in place."""
    rules: list[Rule] = []
    for rule in system.rules:
        rules.extend(unravel_rule(rule))
    return Trs.of(rules, extra_symbols=system.signature)


def unravel_cs(system: Dctrs) -> Csrs:
    """The unraveled system with the canonical replacement map: original
    symbols fully active, fresh symbols active only in argument 1."""
    trs = unravel(system)
    mu = ReplacementMap(
        {s: frozenset({1} if s.is_usymbol else range(1, s.arity + 1)) for s in trs.signature}
    )
    return Csrs(trs.signature, trs.rules, mu)
