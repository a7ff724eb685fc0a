import pickle
import random
from itertools import product

import pytest

from conftest import CORPUS, full_map, load_system, spy_rule_matches, term_of
from test_checker import _random_dctrs

import ctrskit as ck
from ctrskit import ctrs
from ctrskit.csrewrite import enumerate_original_terms
from ctrskit.ctrs import (
    ConditionalEngine,
    ConditionalRule,
    Fuel,
    bfs,
    expansion_budget,
    guarded_rules_by_root,
    rules_by_root,
    validate_dctrs,
)
from ctrskit.terms import App, FunSym, Var, admits, match, term_to_str
from ctrskit.unravel import unravel_cs


def test_fuel_bounds_positive():
    with pytest.raises(ValueError):
        Fuel(max_level=0)
    with pytest.raises(ValueError):
        Fuel(max_steps=-1)


def test_conditional_steps_try_only_rules_with_the_redex_root(bubble, monkeypatch):
    # Trying every rule at every position made 2,080 rule matches here,
    # 1,824 of them against a redex with another root symbol.
    calls = spy_rule_matches(monkeypatch, ctrs, bubble.rules)
    engine = ConditionalEngine(bubble)
    seeds = enumerate_original_terms(bubble.signature, 4)
    assert sum(len(engine.all_steps(t).steps) for t in seeds) == 16
    assert all(isinstance(u, App) and pattern.sym == u.sym for pattern, u in calls)
    assert 0 < len(calls) <= 300


def _terms_up_to(symbols, max_size):
    """Every term over ``symbols`` and the variable x with at most
    ``max_size`` nodes, unraveling symbols included."""
    by_size = [[], [Var("x")] + [App(sym) for sym in symbols if sym.arity == 0]]
    for size in range(2, max_size + 1):
        by_size.append(
            [
                App(sym, args)
                for sym in symbols
                if 0 < sym.arity < size
                for parts in product(range(1, size), repeat=sym.arity)
                if sum(parts) == size - 1
                for args in product(*(by_size[p] for p in parts))
            ]
        )
    return [t for bucket in by_size for t in bucket]


def test_a_rejecting_argument_guard_means_no_match():
    # The guard skips a rule only on a clash of argument root symbols, which
    # match would reject too; rules keep their rules_by_root order.
    rng = random.Random(7)
    systems = [load_system(path.stem) for path in sorted(CORPUS.glob("*.ctrs"))]
    systems += [_random_dctrs(rng) for _ in range(100)]
    rejected = 0
    for system in systems:
        cs = unravel_cs(system)
        for rules, signature in ((system.rules, system.signature), (cs.rules, cs.signature)):
            index = guarded_rules_by_root(rules)
            assert {sym: tuple(r for r, _ in group) for sym, group in index.items()} == (
                rules_by_root(rules)
            )
            for t in _terms_up_to(signature, 4):
                for rule, guard in index.get(getattr(t, "sym", None), ()):
                    if not admits(guard, t.args):
                        rejected += 1
                        assert match(rule.lhs, t) is None, (rule.id, term_to_str(t))
    assert rejected > 5000


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


def root_steps(engine, t, rule_id):
    """The root steps of ``rule_id`` among ``t``'s steps, and whether the
    answer is exhausted."""
    steps, exhausted = engine.all_steps(t)
    return [st for st in steps if st.position == () and st.rule_id == rule_id], exhausted


def test_conditional_step_at_swap(bubble):
    t = term_of("bubble_sort", ":(0,:(s(0),nil))")
    swap = bubble.rule("r4")
    (step,), exhausted = root_steps(ConditionalEngine(bubble), t, "r4")
    assert not exhausted
    assert step.level == 2
    assert step.target == term_of("bubble_sort", ":(s(0),:(0,nil))")
    assert step.check(swap.lhs, swap.rhs)


def test_conditional_step_blocked_by_condition(bubble):
    t = term_of("bubble_sort", ":(s(0),:(0,nil))")
    steps, exhausted = root_steps(ConditionalEngine(bubble), t, "r4")
    assert steps == []
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


def test_bfs_records_the_kept_successors_of_expanded_nodes_only():
    graph = {0: [1, None, 2, 1], 1: [3], 2: [None], 3: []}
    search = bfs([0], graph.__getitem__, expansion_budget(10))
    assert search.reached == {0: None, 1: 0, 2: 0, 3: 1}
    assert search.succ == {0: [1, 2, 1], 1: [3], 2: [], 3: []}
    assert list(search.succ) == [0, 1, 2, 3]  # expansion order
    assert search.path is None and search.exhausted
    # Stopped by its budget after two expansions: 2 and 3 were reached but
    # never expanded, so they have no successor list.
    cut = bfs([0], graph.__getitem__, expansion_budget(2))
    assert cut.reached == {0: None, 1: 0, 2: 0, 3: 1}
    assert cut.succ == {0: [1, 2, 1], 1: [3]}
    assert cut.exhausted


def test_bfs_path_runs_from_a_start_to_the_goal():
    chain = {0: [1], 1: [2], 2: [3], 3: [], 5: [0]}
    assert bfs([0], chain.__getitem__, expansion_budget(10), 3).path == [0, 1, 2, 3]
    assert bfs([5, 1], chain.__getitem__, expansion_budget(10), 3).path == [1, 2, 3]
    # A goal equal to the start needs a nonempty cycle back to it.
    assert bfs([0], chain.__getitem__, expansion_budget(10), 0).path is None
    cycle = {0: [1], 1: [0]}
    assert bfs([0], cycle.__getitem__, expansion_budget(10), 0).path == [0, 1, 0]


def test_bfs_stops_at_the_goal_before_a_later_none():
    search = bfs([0], {0: [1, None]}.__getitem__, expansion_budget(10), 1)
    assert search.path == [0, 1]
    assert not search.exhausted
    search = bfs([0], {0: [None, 1]}.__getitem__, expansion_budget(10), 1)
    assert search.path == [0, 1]
    assert search.exhausted


def test_level_monotonicity(bubble):
    t = term_of("bubble_sort", ":(0,:(s(0),nil))")
    for max_level in (2, 3, 5, 8):
        (step,), _ = root_steps(ConditionalEngine(bubble, Fuel(max_level=max_level)), t, "r4")
        assert step.level == 2
    steps, _ = root_steps(ConditionalEngine(bubble, Fuel(max_level=1)), t, "r4")
    assert steps == []  # needs level 2


def test_saturated_condition_searches_make_complete_steps():
    # The condition's source c is a normal form, so its level-0 closure {c}
    # is complete and the level-1 solution is final: no higher level can add
    # a step, whatever max_level allows.
    text = "(CONDITIONTYPE ORIENTED)(RULES a -> b | c == c)"
    system, problem = ck.parse_ctrs(text), ck.parse_problem(text)
    a, b = ck.parse_term("a", problem), ck.parse_term("b", problem)
    for max_level in (1, 2, 8):
        (step,), exhausted = ConditionalEngine(system, Fuel(max_level=max_level)).all_steps(a)
        assert (step.target, step.level, exhausted) == (b, 1, False)


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


def ask(engine, t, goal):
    return engine.all_steps(t) if goal is None else engine.reachable(t, goal)


def test_complete_answers_do_not_change_with_more_fuel():
    # A complete answer is final: more levels and a larger work budget give
    # the same steps (levels and substitutions included) or the same path,
    # and complete again.  Level 1 makes every condition search a level-0
    # closure; levels 2 and 4 cover nested discharges.  The systems are the
    # first 40 of the stream that test_simulation_completeness_on_random_systems
    # draws from; every engine is warm.
    rng = random.Random(2024)
    checked = 0
    for _ in range(40):
        system = _random_dctrs(rng)
        terms = enumerate_original_terms(system.signature, 3)
        questions = [(t, None) for t in terms] + [(t, goal) for t in terms for goal in terms[:2]]
        ample = ConditionalEngine(system, Fuel(8, 2000, 60))
        for max_level in (1, 2, 4):
            bounded = ConditionalEngine(system, Fuel(max_level, 200, 60))
            for t, goal in questions:
                answer = ask(bounded, t, goal)
                if not answer.exhausted:
                    assert ask(ample, t, goal) == answer, (max_level, term_to_str(t))
                    checked += 1
    assert checked > 4000


def test_complete_fresh_engine_answers_do_not_change_with_more_work():
    # As above, on fresh engines, whose answers no earlier operation helped:
    # a complete answer at a binding work budget equals the answer at
    # max_steps = 20,000 under the same level cap.  The streams of systems
    # differ from the test above.
    rng = random.Random(515)
    checked = 0
    for _ in range(150):
        system = _random_dctrs(rng)
        terms = enumerate_original_terms(system.signature, 3)
        for fuel in (Fuel(1, 20, 30), Fuel(3, 40, 30), Fuel(4, 200, 60)):
            ample = Fuel(fuel.max_level, 20_000, fuel.max_term_size)
            for t in terms:
                answer = ConditionalEngine(system, fuel).all_steps(t)
                if not answer.exhausted:
                    assert ConditionalEngine(system, ample).all_steps(t) == answer, (
                        fuel,
                        term_to_str(t),
                    )
                    checked += 1
    assert checked > 5000


@pytest.mark.parametrize(
    "name, most", [("parity_cond", 137), ("bubble_sort", 80), ("fib_pairs", 173), ("last_cond", 8)]
)
def test_rule_solutions_stop_at_the_saturated_level(monkeypatch, name, most):
    # Re-solving the conditions at every level up to max_level made 894, 512,
    # 596 and 64 calls here; once a level saturated, no higher one can add.
    system = load_system(name)
    seeds = enumerate_original_terms(system.signature, 5)
    unspied = ConditionalEngine(system)
    want = [unspied.all_steps(t) for t in seeds]
    calls = []
    real = ConditionalEngine._solve_conditions

    def counting(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(ConditionalEngine, "_solve_conditions", counting)
    engine = ConditionalEngine(system)
    assert [engine.all_steps(t) for t in seeds] == want
    assert 0 < len(calls) <= most


def test_unconditional_rules_agree_with_plain_rewriting():
    less = load_system("less")
    from ctrskit.csrewrite import MuEngine
    from ctrskit.unravel import unravel

    engine = MuEngine(full_map(unravel(less)))  # unconditional: identical rules
    for text in ["<(s(0),s(s(0)))", "<(0,0)", "s(<(0,s(0)))"]:
        t = term_of("less", text)
        cond, exhausted = ConditionalEngine(less).all_steps(t)
        assert not exhausted
        plain = engine.steps(t)
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


# -- ReductionStep as a record ------------------------------------------------

# The terms are built per call: a module-level term would stay interned for
# the whole session, and equal terms built elsewhere would then share its
# symbol objects.
def _step_terms():
    lt, s, zero = FunSym("<", 2), FunSym("s", 1), App(FunSym("0", 0))
    source = App(lt, (App(s, (zero,)), App(s, (Var("y"),))))
    return source, App(lt, (zero, Var("y"))), zero


def _step(**changes):
    source, target, zero = _step_terms()
    fields = dict(
        source=source,
        target=target,
        position=(),
        rule_id="r3",
        subst={"x": zero, "y": Var("y")},
        kind="mu",
        level=2,
    )
    fields.update(changes)
    return ctrs.ReductionStep(**fields)


def test_a_step_at_a_position_outside_its_source_does_not_re_derive():
    # The source is <(s(0),s(y)): no third argument, 0 has no argument, and
    # y is a variable.  A malformed position is a bug, not a failed check.
    lt, s = FunSym("<", 2), FunSym("s", 1)
    lhs = App(lt, (App(s, (Var("x"),)), App(s, (Var("y"),))))
    rhs = App(lt, (Var("x"), Var("y")))
    assert _step().check(lhs, rhs)
    for position in [(3,), (1, 1, 1), (2, 1, 1)]:
        assert not _step(position=position).check(lhs, rhs)
    with pytest.raises(TypeError):
        _step(position=("1",)).check(lhs, rhs)


@pytest.mark.parametrize(
    "field,value", [("subst", {"x": Var("x")}), ("kind", "conditional"), ("level", 3)]
)
def test_steps_differing_in_one_field_are_unequal(field, value):
    assert _step() == _step()
    assert _step() != _step(**{field: value})


def test_steps_are_immutable_and_unhashable():
    step = _step()
    with pytest.raises(TypeError):
        hash(step)
    with pytest.raises(AttributeError):
        step.level = 3
    with pytest.raises(AttributeError):
        step.note = "x"


def test_step_defaults_and_pickle_round_trip():
    source, _, zero = _step_terms()
    step = ctrs.ReductionStep(source=source, target=zero, position=(2, 1), rule_id="r1", subst={})
    assert step.kind == "conditional" and step.level is None
    assert pickle.loads(pickle.dumps(step)) == step
    assert pickle.loads(pickle.dumps(_step())) == _step()


def test_step_is_a_tuple_of_its_fields():
    step = _step()
    assert step == tuple(step)
    assert list(step) == [step.source, step.target, (), "r3", step.subst, "mu", 2]


def test_step_str_and_repr_are_unchanged():
    # Both strings as printed before steps became tuples.
    assert str(_step()) == "<(s(0),s(y)) -> <(0,y) [r3 @ e]"
    zero_repr = "App(sym=FunSym(name='0', arity=0), args=())"
    source_repr = (
        "App(sym=FunSym(name='<', arity=2), args=(App(sym=FunSym(name='s', arity=1), "
        f"args=({zero_repr},)), App(sym=FunSym(name='s', arity=1), args=(Var(name='y'),))))"
    )
    assert repr(_step()) == (
        f"ReductionStep(source={source_repr}, target=App(sym=FunSym(name='<', arity=2), "
        f"args=({zero_repr}, Var(name='y'))), position=(), rule_id='r3', "
        f"subst={{'x': {zero_repr}, 'y': Var(name='y')}}, kind='mu', level=2)"
    )
    source, _, zero = _step_terms()
    step = ctrs.ReductionStep(source, zero, (2, 1), "r1", {})
    assert str(step) == "<(s(0),s(y)) -> 0 [r1 @ 2.1]"
    assert repr(step) == (
        f"ReductionStep(source={source_repr}, target={zero_repr}, position=(2, 1), rule_id='r1', "
        "subst={}, kind='conditional', level=None)"
    )
