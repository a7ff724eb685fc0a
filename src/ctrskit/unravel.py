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

from .ctrs import ConditionalRule, Dctrs, ValidationError, Violation, _signature, validate_dctrs
from .records import Frozen
from .terms import App, FunSym, ReplacementMap, Var, default_u_symbol, vars_of


class Trs(Frozen):
    """An unconditional term rewrite system: its rules carry no conditions."""

    __slots__ = ("signature", "rules")

    @classmethod
    def of(cls, rules: Sequence[ConditionalRule], extra_symbols: Sequence[FunSym] = ()) -> "Trs":
        """The system of ``rules``, checked by :func:`validate_dctrs`, and a
        ``conditional-rule`` violation for each rule with conditions.  Any
        violation but an unraveling name, which an unraveled system bears,
        raises :class:`ValidationError` with every violation found."""
        outcome = validate_dctrs(rules, extra_symbols)
        violations = [] if isinstance(outcome, Dctrs) else outcome
        cond = "a TRS or CSRS rule has no conditions"
        violations += [Violation(r.id, "conditional-rule", cond) for r in rules if r.conditions]
        if any(v.code != "unraveling-symbol" for v in violations):
            raise ValidationError(violations)
        if isinstance(outcome, Dctrs):
            return cls(outcome.signature, outcome.rules)
        return cls(_signature(extra_symbols, rules), tuple(rules))


class Csrs(Frozen):
    """A TRS paired with a replacement map restricting rewrite positions."""

    __slots__ = ("signature", "rules", "mu")


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


def unravel_rule(rule: ConditionalRule) -> list[ConditionalRule]:
    """The n+1 unconditional rules encoding an n-condition rule (n > 0);
    an unconditional rule is returned as itself."""
    n = len(rule.conditions)
    if n == 0:
        return [rule]

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

    s1 = rule.conditions[0][0]
    out = [ConditionalRule(f"{rule.id}.1", rule.lhs, App(u_syms[0], (s1, *carried(1))))]
    for i in range(1, n):
        t_i = rule.conditions[i - 1][1]
        s_next = rule.conditions[i][0]
        out.append(
            ConditionalRule(
                f"{rule.id}.{i + 1}",
                App(u_syms[i - 1], (t_i, *carried(i))),
                App(u_syms[i], (s_next, *carried(i + 1))),
            )
        )
    t_n = rule.conditions[n - 1][1]
    last = App(u_syms[n - 1], (t_n, *carried(n)))
    out.append(ConditionalRule(f"{rule.id}.{n + 1}", last, rule.rhs))
    return out


def unravel(system: Dctrs) -> Trs:
    """Replace every conditional rule by its unraveled rules, in place."""
    rules = [new for rule in system.rules for new in unravel_rule(rule)]
    return Trs(_signature(system.signature, rules), tuple(rules))


def unravel_cs(system: Dctrs) -> Csrs:
    """The unraveled system with the canonical replacement map: original
    symbols fully active, fresh symbols active only in argument 1."""
    trs = unravel(system)
    mu = ReplacementMap(
        {s: frozenset({1} if s.is_usymbol else range(1, s.arity + 1)) for s in trs.signature}
    )
    return Csrs(trs.signature, trs.rules, mu)
