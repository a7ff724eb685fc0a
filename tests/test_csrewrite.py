import pytest

from conftest import load_system, term_of

import ctrskit as ck
from ctrskit.csrewrite import (
    MuEngine,
    MuVerdict,
    enumerate_original_terms,
    explore,
    mu_terminating_on_seeds,
    plain_steps,
)
from ctrskit.ctrs import Fuel
from ctrskit.terms import (
    App,
    FunSym,
    ReplacementMap,
    Var,
    active_positions,
    term_to_str,
)
from ctrskit.unravel import Csrs, Rule, unravel, unravel_cs


def bubble_cs(bubble):
    return unravel_cs(bubble)


def u_term(bubble, *arg_texts):
    cs = unravel_cs(bubble)
    u = next(s for s in cs.signature if s.is_usymbol)
    args = tuple(term_of("bubble_sort", a) for a in arg_texts)
    return App(u, args)


def test_mu_steps_respect_replacement_map(bubble):
    cs = bubble_cs(bubble)
    t = u_term(bubble, "<(0,s(0))", "0", "s(0)", "nil")
    steps = MuEngine(cs).steps(t)
    assert len(steps) == 1
    assert steps[0].position == (1,)
    assert steps[0].target == u_term(bubble, "true", "0", "s(0)", "nil")

    # Redexes below inactive argument positions are never contracted: here
    # argument 2 holds a redex but only the argument-1 copy is rewritten.
    blocked = u_term(bubble, "<(0,s(0))", "<(0,s(0))", "s(0)", "nil")
    assert [s.position for s in MuEngine(cs).steps(blocked)] == [(1,)]


def test_mu_steps_normal_form(bubble):
    assert MuEngine(bubble_cs(bubble)).steps(term_of("bubble_sort", "true")) == ()


def test_mu_steps_root_unraveled_lhs(bubble):
    cs = bubble_cs(bubble)
    steps = MuEngine(cs).steps(term_of("bubble_sort", ":(0,:(s(0),nil))"))
    assert len(steps) == 1
    assert steps[0].position == ()
    assert steps[0].target == u_term(bubble, "<(0,s(0))", "0", "s(0)", "nil")


def test_explore_bubble_run(bubble):
    cs = bubble_cs(bubble)
    graph, verdict = explore(term_of("bubble_sort", ":(0,:(s(0),nil))"), cs)
    assert verdict.outcome == "terminates"
    assert verdict.bound == 5
    assert graph.complete
    assert len(graph.nodes) == 6  # a single chain, globally deduplicated


def test_explore_normal_form(bubble):
    cs = bubble_cs(bubble)
    graph, verdict = explore(term_of("bubble_sort", "true"), cs)
    assert verdict.outcome == "terminates"
    assert verdict.bound == 0


def test_explore_self_loop():
    system = load_system("self_loop")
    cs = unravel_cs(system)
    a = term_of("self_loop", "a")
    graph, verdict = explore(a, cs)
    assert verdict.is_loop
    terms = verdict.witness.terms()
    assert terms == [a, a]


def test_explore_unknown_on_tiny_fuel():
    fib = load_system("fib_pairs")
    cs = unravel_cs(fib)
    t = term_of("fib_pairs", "fib(s(s(s(0))))")
    graph, verdict = explore(t, cs, Fuel(max_level=8, max_steps=2, max_term_size=200))
    assert verdict.outcome == "unknown"
    assert not graph.complete


def test_terminates_verdicts_stable_under_more_fuel(bubble):
    cs = bubble_cs(bubble)
    t = term_of("bubble_sort", ":(0,:(s(0),nil))")
    _, small = explore(t, cs, Fuel(max_level=8, max_steps=50, max_term_size=50))
    _, big = explore(t, cs, Fuel(max_level=8, max_steps=5000, max_term_size=500))
    assert small.outcome == "terminates"
    assert big.outcome == "terminates"
    assert small.bound == big.bound


def test_mu_terminating_on_seeds(bubble):
    cs = bubble_cs(bubble)
    seeds = enumerate_original_terms(bubble.signature, 5)
    verdict = mu_terminating_on_seeds(seeds, cs)
    assert verdict.outcome == "terminates"

    assert mu_terminating_on_seeds([], cs).bound == 0

    with pytest.raises(ValueError):
        mu_terminating_on_seeds([u_term(bubble, "true", "0", "0", "nil")], cs)


def test_loop_verdict_precedence():
    system = load_system("two_step_loop")
    cs = unravel_cs(system)
    seeds = enumerate_original_terms(system.signature, 3)
    verdict = mu_terminating_on_seeds(seeds, cs)
    assert verdict.is_loop
    start = verdict.witness.start
    assert ck.is_original(start)
    terms = verdict.witness.terms()
    assert terms[-1] in terms[:-1]


def test_enumerate_original_terms(bubble):
    size1 = enumerate_original_terms(bubble.signature, 1)
    assert {term_to_str(t) for t in size1} == {"0", "true", "false", "nil"}
    size2 = enumerate_original_terms(bubble.signature, 2)
    assert len(size2) == 8
    extra = {term_to_str(t) for t in size2} - {term_to_str(t) for t in size1}
    assert extra == {"s(0)", "s(true)", "s(false)", "s(nil)"}
    assert enumerate_original_terms([], 3) == []
    with pytest.raises(ValueError):
        enumerate_original_terms(bubble.signature, 0)


def test_enumerate_skips_unraveling_symbols(bubble):
    cs = unravel_cs(bubble)
    terms = enumerate_original_terms(cs.signature, 3)
    assert all(ck.is_original(t) for t in terms)


def test_enumerate_is_deterministic(bubble):
    a = enumerate_original_terms(bubble.signature, 4)
    b = enumerate_original_terms(tuple(bubble.signature), 4)
    assert a == b
    assert len(a) == len(set(a))


def test_mu_steps_subset_of_plain_steps(bubble):
    cs = bubble_cs(bubble)
    trs = unravel(bubble)
    samples = [
        u_term(bubble, "<(0,s(0))", "0", "s(0)", "nil"),
        u_term(bubble, "true", "<(0,0)", "s(0)", "nil"),
        term_of("bubble_sort", ":(0,:(s(0),:(0,nil)))"),
        term_of("bubble_sort", "s(<(0,s(0)))"),
    ]
    for t in samples:
        mu_set = {(s.target, s.position, s.rule_id) for s in MuEngine(cs).steps(t)}
        plain_set = {(s.target, s.position, s.rule_id) for s in plain_steps(t, trs)}
        assert mu_set <= plain_set


def test_full_mu_coincides_with_plain(bubble):
    trs = unravel(bubble)
    full = Csrs(trs.signature, trs.rules, ReplacementMap.full(trs.signature))
    for t in enumerate_original_terms(bubble.signature, 4):
        mu_set = {(s.target, s.position, s.rule_id) for s in MuEngine(full).steps(t)}
        plain_set = {(s.target, s.position, s.rule_id) for s in plain_steps(t, trs)}
        assert mu_set == plain_set


def test_commutation_property_sampled(bubble):
    # Taking an active subterm commutes over rewriting: reconstruct the
    # commuting term for every (s |> t -> u) triple found in a small graph.
    cs = bubble_cs(bubble)
    engine = MuEngine(cs)
    seeds = enumerate_original_terms(bubble.signature, 6)
    checked = 0
    for seed in seeds:
        graph, _ = explore(seed, cs, engine=engine)
        for s in graph.nodes:
            for p in sorted(active_positions(s, cs.mu)):
                if not p:
                    continue
                t = ck.subterm_at(s, p)
                for inner in engine.steps(t):
                    v = ck.check_commutation(s, t, inner.target, cs)
                    assert v is not None
                    checked += 1
        if checked > 200:
            break
    assert checked > 100
