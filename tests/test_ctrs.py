import pytest

from conftest import load_system, term_of

import ctrskit as ck
from ctrskit.ctrs import (
    ConditionalEngine,
    ConditionalRule,
    Fuel,
    validate_dctrs,
)
from ctrskit.terms import App, FunSym, Var


def test_fuel_bounds_positive():
    with pytest.raises(ValueError):
        Fuel(max_level=0)
    with pytest.raises(ValueError):
        Fuel(max_steps=-1)


def test_validate_bubble(bubble):
    assert len(bubble.rules) == 4
    assert len(bubble.conditional_rules) == 1
    assert len(bubble.unconditional_rules) == 3
    names = {s.name for s in bubble.signature}
    assert names == {"<", "0", "s", "true", "false", ":", "nil"}


def test_validate_variable_lhs_and_free_rhs():
    rule = ConditionalRule("r1", Var("x"), Var("y"))
    outcome = validate_dctrs([rule])
    assert isinstance(outcome, list)
    assert {v.code for v in outcome} == {"variable-lhs", "unbound-rhs-var"}
    assert len(outcome) == 2


def test_validate_determinism_violation():
    f, g = FunSym("f", 1), FunSym("g", 1)
    rule = ConditionalRule(
        "r1",
        App(f, (Var("x"),)),
        Var("x"),
        ((App(g, (Var("y"),)), Var("z")),),
    )
    outcome = validate_dctrs([rule])
    assert isinstance(outcome, list)
    assert len(outcome) == 1
    assert outcome[0].code == "determinism"
    assert outcome[0].condition_index == 1


def test_validate_duplicate_ids():
    a = FunSym("a", 0)
    b = FunSym("b", 0)
    rules = [
        ConditionalRule("r1", App(a), App(b)),
        ConditionalRule("r1", App(b), App(a)),
    ]
    outcome = validate_dctrs(rules)
    assert isinstance(outcome, list)
    assert outcome[0].code == "duplicate-id"


def test_conditional_step_at_swap(bubble):
    t = term_of("bubble_sort", ":(0,:(s(0),nil))")
    swap = bubble.rule("r4")
    step, exhausted = ConditionalEngine(bubble).step_at(t, (), swap)
    assert step is not None
    assert not exhausted
    assert step.level == 2
    assert step.target == term_of("bubble_sort", ":(s(0),:(0,nil))")
    assert step.check(swap.lhs, swap.rhs)


def test_conditional_step_blocked_by_condition(bubble):
    t = term_of("bubble_sort", ":(s(0),:(0,nil))")
    swap = bubble.rule("r4")
    step, exhausted = ConditionalEngine(bubble).step_at(t, (), swap)
    assert step is None
    assert not exhausted  # the condition's reduct set saturates at false


def test_steps_always_have_positive_level(bubble):
    # Level 0 admits no steps; every witnessed step carries level >= 1.
    for text in ["<(0,s(0))", ":(0,:(s(0),nil))", "s(<(0,s(0)))"]:
        steps, _ = ConditionalEngine(bubble).all_steps(term_of("bubble_sort", text))
        assert steps
        assert all(st.level >= 1 for st in steps)


def test_all_steps_single_redex(bubble):
    steps, exhausted = ConditionalEngine(bubble).all_steps(term_of("bubble_sort", "<(0,s(0))"))
    assert not exhausted
    assert len(steps) == 1
    assert steps[0].target == term_of("bubble_sort", "true")
    assert steps[0].level == 1


def test_all_steps_normal_form(bubble):
    steps, exhausted = ConditionalEngine(bubble).all_steps(term_of("bubble_sort", "true"))
    assert steps == ()
    assert not exhausted


def test_all_steps_root_swap_only(bubble):
    t = term_of("bubble_sort", ":(0,:(s(0),nil))")
    steps, exhausted = ConditionalEngine(bubble).all_steps(t)
    assert not exhausted
    assert len(steps) == 1
    assert steps[0].position == ()
    assert steps[0].rule_id == "r4"


def test_reachable(bubble):
    lt01 = term_of("bubble_sort", "<(0,s(0))")
    true = term_of("bubble_sort", "true")
    false = term_of("bubble_sort", "false")
    found, exhausted = ConditionalEngine(bubble).reachable(lt01, true)
    assert found is not None and len(found) == 1
    red, _ = ConditionalEngine(bubble).reachable(true, true)
    assert red is not None and len(red) == 0
    missing, exhausted = ConditionalEngine(bubble).reachable(true, false)
    assert missing is None
    assert not exhausted  # both are normal forms: provably unreachable


GOAL_BEFORE_OVERSIZED = """(VAR x)
(RULES
  a -> b
  a -> f(f(f(f(b))))
)
"""


def test_reachable_ignores_oversized_steps_after_the_goal():
    # The goal step comes first, so the step cut by the size bound after it
    # played no part in the search: the answer is not bound-limited.
    system = ck.parse_ctrs(GOAL_BEFORE_OVERSIZED)
    problem = ck.parse_problem(GOAL_BEFORE_OVERSIZED)
    a, b = ck.parse_term("a", problem), ck.parse_term("b", problem)
    found, exhausted = ConditionalEngine(system, Fuel(4, 200, 3)).reachable(a, b)
    assert found is not None and len(found) == 1
    assert not exhausted


def test_level_monotonicity(bubble):
    t = term_of("bubble_sort", ":(0,:(s(0),nil))")
    swap = bubble.rule("r4")
    for max_level in (2, 3, 5, 8):
        step, _ = ConditionalEngine(bubble, Fuel(max_level=max_level)).step_at(t, (), swap)
        assert step is not None and step.level == 2
    step, _ = ConditionalEngine(bubble, Fuel(max_level=1)).step_at(t, (), swap)
    assert step is None  # needs level 2


def test_fuel_monotonicity(bubble):
    fib = load_system("fib_pairs")
    terms = [
        term_of("fib_pairs", "fib(s(s(0)))"),
        term_of("fib_pairs", "add(s(0),s(0))"),
        term_of("bubble_sort", ":(0,:(s(0),nil))"),
    ]
    systems = [fib, fib, bubble]
    small = Fuel(max_level=3, max_steps=60, max_term_size=40)
    big = Fuel(max_level=8, max_steps=500, max_term_size=200)
    for t, system in zip(terms, systems):
        small_steps, _ = ConditionalEngine(system, small).all_steps(t)
        big_steps, _ = ConditionalEngine(system, big).all_steps(t)
        keys = lambda steps: {(s.target, s.position, s.rule_id) for s in steps}
        assert keys(small_steps) <= keys(big_steps)


def test_unconditional_rules_agree_with_plain_rewriting():
    less = load_system("less")
    from ctrskit.csrewrite import plain_steps
    from ctrskit.unravel import unravel

    trs = unravel(less)  # unconditional: identical rules
    for text in ["<(s(0),s(s(0)))", "<(0,0)", "s(<(0,s(0)))"]:
        t = term_of("less", text)
        cond, exhausted = ConditionalEngine(less).all_steps(t)
        assert not exhausted
        plain = plain_steps(t, trs)
        assert {(s.target, s.position) for s in cond} == {
            (s.target, s.position) for s in plain
        }


def test_step_invariants_rechecked(bubble):
    engine = ConditionalEngine(bubble)
    for text in [":(0,:(s(0),nil))", "<(s(0),s(s(0)))", "s(<(0,s(0)))"]:
        steps, _ = engine.all_steps(term_of("bubble_sort", text))
        for step in steps:
            rule = bubble.rule(step.rule_id)
            assert step.check(rule.lhs, rule.rhs)


def test_levels_of_parity_chain():
    parity = load_system("parity_cond")
    # even(s^k(0)) needs k nested condition discharges: level k+1.
    for k, expected_level in [(0, 1), (1, 2), (2, 3), (3, 4)]:
        text = "even(" + "s(" * k + "0" + ")" * k + ")"
        steps, _ = ConditionalEngine(parity).all_steps(term_of("parity_cond", text))
        root = [s for s in steps if s.position == ()]
        assert len(root) == 1
        assert root[0].level == expected_level


def test_reduction_chaining_validated(bubble):
    t = term_of("bubble_sort", "<(0,s(0))")
    true = term_of("bubble_sort", "true")
    red, _ = ConditionalEngine(bubble).reachable(t, true)
    with pytest.raises(ValueError):
        ck.Reduction(true, red.steps)  # steps do not start at `true`
