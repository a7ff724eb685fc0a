import pytest

from conftest import CORPUS, load_system, term_of

import ctrskit as ck
from ctrskit.ctrs import ConditionalRule
from ctrskit.terms import App, FunSym, Var, is_original, match, positions, subterm_at
from ctrskit.unravel import (
    evar_sequence,
    unravel,
    unravel_cs,
    unravel_rule,
)

F = FunSym("f", 1)
G = FunSym("g", 1)
H = FunSym("h", 1)

TWO_COND = ConditionalRule(
    "r1",
    App(F, (Var("x"),)),
    Var("z"),
    (
        (App(G, (Var("x"),)), Var("y")),
        (App(H, (Var("y"),)), Var("z")),
    ),
)


def test_evar_sequences():
    assert evar_sequence(TWO_COND, 1) == ["y"]
    assert evar_sequence(TWO_COND, 2) == ["z"]
    with pytest.raises(IndexError):
        evar_sequence(TWO_COND, 3)
    with pytest.raises(IndexError):
        evar_sequence(TWO_COND, 0)


def test_evar_sequence_ground_target(bubble):
    swap = bubble.rule("r4")
    assert evar_sequence(swap, 1) == []


def test_unravel_rule_two_conditions():
    rules = unravel_rule(TWO_COND)
    assert len(rules) == 3
    u1 = FunSym("U1_r1", 2)
    u2 = FunSym("U2_r1", 3)
    assert rules[0].lhs == App(F, (Var("x"),))
    assert rules[0].rhs == App(u1, (App(G, (Var("x"),)), Var("x")))
    assert rules[1].lhs == App(u1, (Var("y"), Var("x")))
    assert rules[1].rhs == App(u2, (App(H, (Var("y"),)), Var("x"), Var("y")))
    assert rules[2].lhs == App(u2, (Var("z"), Var("x"), Var("y")))
    assert rules[2].rhs == Var("z")


def test_unravel_rule_unconditional_passthrough(bubble):
    rule = bubble.rule("r1")
    out = unravel_rule(rule)
    assert len(out) == 1
    assert out[0].lhs == rule.lhs and out[0].rhs == rule.rhs and out[0].id == rule.id


def test_unravel_rule_bubble_swap(bubble):
    swap = bubble.rule("r4")
    out = unravel_rule(swap)
    assert len(out) == 2
    u = FunSym("U1_r4", 4)
    lt, cons = FunSym("<", 2), FunSym(":", 2)
    x, y, ys = Var("x"), Var("y"), Var("ys")
    assert out[0].lhs == App(cons, (x, App(cons, (y, ys))))
    assert out[0].rhs == App(u, (App(lt, (x, y)), x, y, ys))
    assert out[1].lhs == App(u, (App(FunSym("true", 0)), x, y, ys))
    assert out[1].rhs == App(cons, (y, App(cons, (x, ys))))


def test_unravel_counts(bubble):
    assert len(unravel(bubble).rules) == 5
    less = load_system("less")
    assert unravel(less).rules == less.rules
    two = ck.validate_dctrs([TWO_COND])
    assert len(unravel(two).rules) == 3
    fresh = [s for s in unravel(two).signature if s.is_usymbol]
    assert len(fresh) == 2


def test_rule_count_formula_on_corpus():
    for path in sorted(CORPUS.glob("*.ctrs")):
        system = ck.parse_ctrs(path.read_text(), str(path))
        expected = len(system.unconditional_rules) + sum(
            len(r.conditions) + 1 for r in system.conditional_rules
        )
        assert len(unravel(system).rules) == expected


def test_unravel_cs_replacement_map(bubble):
    cs = unravel_cs(bubble)
    by_name = {s.name: s for s in cs.signature}
    assert cs.mu.active_indices(by_name["<"]) == frozenset({1, 2})
    assert cs.mu.active_indices(by_name[":"]) == frozenset({1, 2})
    assert cs.mu.active_indices(by_name["s"]) == frozenset({1})
    assert cs.mu.active_indices(by_name["U1_r4"]) == frozenset({1})
    for const in ("0", "true", "false", "nil"):
        assert cs.mu.active_indices(by_name[const]) == frozenset()


def test_unravel_cs_unconditional_is_plain():
    less = load_system("less")
    cs = unravel_cs(less)
    for sym in cs.signature:
        assert cs.mu.active_indices(sym) == frozenset(range(1, sym.arity + 1))


def test_generated_rules_variable_sound():
    for path in sorted(CORPUS.glob("*.ctrs")):
        system = ck.parse_ctrs(path.read_text(), str(path))
        for rule in unravel(system).rules:
            assert set(ck.vars_of(rule.rhs)) <= set(ck.vars_of(rule.lhs))


def test_fresh_symbol_hygiene_and_idempotence(bubble):
    trs = unravel(bubble)
    original_names = {s.name for s in bubble.signature}
    fresh = [s for s in trs.signature if s.is_usymbol]
    assert fresh and not ({s.name for s in fresh} & original_names)
    assert unravel(bubble) == unravel(bubble)
    assert ck.print_csrs(unravel_cs(bubble)) == ck.print_csrs(unravel_cs(bubble))


def test_original_term_preservation(bubble):
    # No unraveled rule with a fresh-symbol root matches anywhere in an
    # original term.
    trs = unravel(bubble)
    u_rules = [r for r in trs.rules if isinstance(r.lhs, App) and r.lhs.sym.is_usymbol]
    assert u_rules
    for text in [":(0,:(s(0),nil))", "s(s(0))", "<(0,nil)", ":(true,:(false,nil))"]:
        t = term_of("bubble_sort", text)
        assert is_original(t)
        for p in positions(t):
            for rule in u_rules:
                assert match(rule.lhs, subterm_at(t, p)) is None


def test_unraveled_rule_ids_reference_source(bubble):
    trs = unravel(bubble)
    assert [r.id for r in trs.rules] == ["r1", "r2", "r3", "r4.1", "r4.2"]
