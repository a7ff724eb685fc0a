import random
import re

import pytest

from conftest import CORPUS, full_map, load_system, spy_rule_matches, term_of
from test_checker import _random_dctrs
from test_step_oracle import reference_full_steps

import ctrskit as ck
from ctrskit import csrewrite
from ctrskit.csrewrite import (
    MuEngine,
    MuVerdict,
    enumerate_original_terms,
    explore,
    mu_terminating_on_seeds,
)
from ctrskit.ctrs import Fuel, reduction
from ctrskit.terms import (
    App,
    FunSym,
    Var,
    active_positions,
    term_to_str,
)
from ctrskit.unravel import unravel, unravel_cs


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
    assert str(verdict) == "loop found: a -> a"


def test_explore_unknown_on_tiny_fuel():
    fib = load_system("fib_pairs")
    cs = unravel_cs(fib)
    t = term_of("fib_pairs", "fib(s(s(s(0))))")
    graph, verdict = explore(t, cs, Fuel(max_level=8, max_steps=2, max_term_size=200))
    assert verdict.outcome == "unknown"
    assert not graph.complete
    assert str(verdict) == "unknown (bounds exhausted)"


def test_terminates_verdicts_stable_under_more_fuel(bubble):
    cs = bubble_cs(bubble)
    t = term_of("bubble_sort", ":(0,:(s(0),nil))")
    _, small = explore(t, cs, Fuel(max_level=8, max_steps=50, max_term_size=50))
    _, big = explore(t, cs, Fuel(max_level=8, max_steps=5000, max_term_size=500))
    assert small.outcome == "terminates"
    assert big.outcome == "terminates"
    assert small.bound == big.bound


def test_mu_steps_try_only_rules_with_the_redex_root(bubble, monkeypatch):
    # Trying every rule at every active position made 2,600 rule matches
    # here, 2,344 of them against a redex with another root symbol.
    cs = bubble_cs(bubble)
    calls = spy_rule_matches(monkeypatch, csrewrite, cs.rules)
    verdict = mu_terminating_on_seeds(enumerate_original_terms(cs.signature, 4), cs)
    assert verdict.outcome == "terminates"
    assert all(isinstance(u, App) and pattern.sym == u.sym for pattern, u in calls)
    assert 0 < len(calls) <= 300


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


def explore_each_seed(seeds, cs, fuel):
    """The aggregate of one ``explore`` per seed on a shared engine: the
    reference that ``mu_terminating_on_seeds`` must reproduce exactly."""
    engine = MuEngine(cs)
    max_depth, any_unknown = 0, False
    for seed in seeds:
        _, verdict = explore(seed, cs, fuel, engine=engine)
        if verdict.is_loop:
            return verdict
        if verdict.outcome == "unknown":
            any_unknown = True
        else:
            max_depth = max(max_depth, verdict.bound)
    if any_unknown:
        return MuVerdict.unknown(fuel)
    return MuVerdict.terminates_within(max_depth)


BINDING_FUELS = [
    Fuel(),
    Fuel(max_steps=1),
    Fuel(max_steps=3),
    Fuel(max_steps=10),
    Fuel(max_steps=40, max_term_size=6),
    Fuel(max_term_size=3),
]


def assert_same_verdict(seeds, cs, fuel):
    got, want = mu_terminating_on_seeds(seeds, cs, fuel), explore_each_seed(seeds, cs, fuel)
    # Equal verdicts have equal strings, bounds and witnesses, step by step.
    assert got == want
    return got


@pytest.mark.parametrize("name", sorted(path.stem for path in CORPUS.glob("*.ctrs")))
def test_settled_memo_equals_explore_on_the_corpus(name):
    cs = unravel_cs(load_system(name))
    for size in (3, 5):
        seeds = enumerate_original_terms(cs.signature, size)
        for fuel in BINDING_FUELS:
            assert_same_verdict(seeds, cs, fuel)


def test_settled_memo_equals_explore_on_random_systems():
    rng = random.Random(12)
    outcomes = set()
    for _ in range(60):
        cs = unravel_cs(_random_dctrs(rng))
        seeds = enumerate_original_terms(cs.signature, 3)
        # The last fuel's size bound is below the seeds': a seed settled as
        # a start may be too large to count as another seed's reduct.
        fuels = (
            Fuel(max_steps=3),
            Fuel(max_steps=10),
            Fuel(max_steps=30, max_term_size=8),
            Fuel(max_steps=30, max_term_size=1),
        )
        for fuel in fuels:
            outcomes.add(assert_same_verdict(seeds, cs, fuel).outcome)
    assert outcomes == {"terminates", "loop", "unknown"}


@pytest.mark.parametrize("name", ["even_odd", "minus_le", "less"])
def test_seeds_are_answered_from_settled_reducts(monkeypatch, name):
    # Seeds come smallest first, and on these systems every reduct of a seed
    # is a smaller seed or a normal form, so no seed needs a search.
    calls = []
    real = csrewrite._loop_search
    monkeypatch.setattr(csrewrite, "_loop_search", lambda *a: calls.append(a[0]) or real(*a))
    cs = unravel_cs(load_system(name))
    seeds = enumerate_original_terms(cs.signature, 6)
    verdict = mu_terminating_on_seeds(seeds, cs)
    assert calls == []
    assert verdict.outcome == "terminates" and verdict == explore_each_seed(seeds, cs, Fuel())


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


def plain_samples(bubble):
    return [
        u_term(bubble, "<(0,s(0))", "0", "s(0)", "nil"),
        u_term(bubble, "true", "<(0,0)", "s(0)", "nil"),
        term_of("bubble_sort", ":(0,:(s(0),:(0,nil)))"),
        term_of("bubble_sort", "s(<(0,s(0)))"),
    ]


def test_mu_steps_subset_of_plain_steps(bubble):
    cs = bubble_cs(bubble)
    plain = MuEngine(full_map(unravel(bubble)))
    for t in plain_samples(bubble):
        mu_set = {(s.target, s.position, s.rule_id) for s in MuEngine(cs).steps(t)}
        plain_set = {(s.target, s.position, s.rule_id) for s in plain.steps(t)}
        assert mu_set <= plain_set


def test_full_mu_coincides_with_plain(bubble):
    # Plain rewriting is rewriting under the full replacement map: the engine
    # lists the steps at every position, as the per-position reference does.
    full = full_map(unravel(bubble))
    engine = MuEngine(full)
    for t in plain_samples(bubble) + enumerate_original_terms(bubble.signature, 4):
        assert engine.steps(t) == tuple(reference_full_steps(t, full))


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


def test_step_fills_the_memo_and_rejects_a_non_reduct():
    cs = unravel_cs(load_system("even_odd"))
    t = lambda text: term_of("even_odd", text)
    # A term the engine never stepped gets its step: step fills the memo.
    found = reduction([t("odd(0)"), t("false")], MuEngine(cs).step)
    assert [str(s) for s in found.steps] == ["odd(0) -> false [r3 @ e]"]
    # A term that is not a one-step reduct raises instead of ending the
    # certificate early, also when its head differs but an argument's
    # reduct matches, and when the engine has the source in its memo.
    engine = MuEngine(cs)
    for source, target in [
        ("even(s(s(0)))", "odd(0)"),
        ("even(odd(s(0)))", "odd(even(0))"),
        ("true", "false"),
    ]:
        for _ in range(2):
            message = f"{target} is not a one-step reduct of {source}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                reduction([t(source), t(target)], engine.step)
            engine.targets(t(source))
