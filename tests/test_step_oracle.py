"""The compositional step enumeration of both engines against the
per-position enumeration it replaced, kept here as the reference.

The reference walks every (active) position from the root in sorted order,
takes the subterm there, tries the rules of its root symbol and rebuilds the
whole term around each reduct.  The engines must list the same steps in the
same order, with the same substitutions, levels, kinds and exhausted flags.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, full_map, load_system, spy_rule_matches
from test_checker import _random_dctrs

from ctrskit import csrewrite
from ctrskit.csrewrite import MuEngine, enumerate_original_terms, explore
from ctrskit.ctrs import (
    KIND_CONDITIONAL,
    KIND_MU,
    ConditionalEngine,
    Fuel,
    ReductionStep,
    _term_key,
    rules_by_root,
)
from ctrskit.terms import (
    App,
    Var,
    active_positions,
    apply_subst,
    match,
    positions,
    replace_at,
    subterm_at,
)
from ctrskit.unravel import unravel, unravel_cs

CORPUS_NAMES = sorted(p.stem for p in CORPUS.glob("*.ctrs"))
FUEL = Fuel(max_level=4, max_steps=200, max_term_size=60)
EXPLORE_FUEL = Fuel(max_steps=10, max_term_size=40)


# -- the reference -------------------------------------------------------------


def reference_steps(s, rules_at, places, kind):
    out = []
    for p in places:
        redex = subterm_at(s, p)
        if not isinstance(redex, App):
            continue
        for rule in rules_at.get(redex.sym, ()):
            sigma = match(rule.lhs, redex)
            if sigma is not None:
                target = replace_at(s, p, apply_subst(rule.rhs, sigma))
                out.append(ReductionStep(s, target, p, rule.id, sigma, kind))
    return out


def reference_mu_steps(s, cs):
    return reference_steps(s, rules_by_root(cs.rules), sorted(active_positions(s, cs.mu)), KIND_MU)


def reference_full_steps(s, system):
    """The steps at every position: plain rewriting."""
    return reference_steps(s, rules_by_root(system.rules), sorted(positions(s)), KIND_MU)


def reference_engine(system, fuel):
    """A ConditionalEngine whose step enumeration, in every nested condition
    search too, is the per-position reference."""
    engine = ConditionalEngine(system, fuel)
    rules_at = rules_by_root(system.rules)

    def successors(s, budget):
        out = {}
        exhausted = False
        for p in sorted(positions(s)):
            redex = subterm_at(s, p)
            if isinstance(redex, Var):
                continue
            for rule in rules_at.get(redex.sym, ()):
                solutions, rule_exhausted = engine._rule_solutions(redex, rule, budget)
                exhausted = exhausted or rule_exhausted
                for sigma, level in solutions:
                    target = replace_at(s, p, apply_subst(rule.rhs, sigma))
                    if (target, p, rule.id) not in out:
                        out[target, p, rule.id] = ReductionStep(
                            s, target, p, rule.id, sigma, KIND_CONDITIONAL, level
                        )
        steps = sorted(out.values(), key=lambda st: (st.position, st.rule_id, _term_key(st.target)))
        return tuple(steps), exhausted

    def has_syntactic_redex(t):
        return any(
            match(rule.lhs, redex) is not None
            for redex in (subterm_at(t, p) for p in positions(t))
            if isinstance(redex, App)
            for rule in rules_at.get(redex.sym, ())
        )

    engine._successors = successors
    engine._has_syntactic_redex = has_syntactic_redex
    return engine


def full(steps):
    """Every field of every step, as tuples, so that a mismatch names the field."""
    return [
        (s.source, s.target, s.position, s.rule_id, dict(s.subst), s.kind, s.level)
        for s in steps
    ]


# -- the checks ----------------------------------------------------------------


def explored_terms(seeds, cs):
    """The seeds and the terms their bounded mu-graphs reach, in order."""
    engine = MuEngine(cs)
    out = {}
    for seed in seeds:
        graph, _ = explore(seed, cs, EXPLORE_FUEL, engine=engine)
        out.update(dict.fromkeys(graph.nodes))
    return list(out)


def check_against_reference(system, seeds):
    cs, plain = unravel_cs(system), full_map(unravel(system))
    mu_engine, plain_engine = MuEngine(cs), MuEngine(plain)
    for t in explored_terms(seeds, cs):
        expected = full(reference_mu_steps(t, cs))
        assert full(mu_engine.steps(t)) == expected
        assert full(MuEngine(cs).steps(t)) == expected
        expected = full(reference_full_steps(t, plain))
        assert full(MuEngine(plain).steps(t)) == expected
        assert full(plain_engine.steps(t)) == expected
    # The same operations in the same order spend the same work budget, so
    # two engines that have stepped the same terms must agree exactly.
    engine, reference = ConditionalEngine(system, FUEL), reference_engine(system, FUEL)
    for t in seeds:
        got, want = engine.all_steps(t), reference.all_steps(t)
        assert (full(got.steps), got.exhausted) == (full(want.steps), want.exhausted)


def test_steps_equal_the_reference_on_the_corpus():
    for name in CORPUS_NAMES:
        system = load_system(name)
        check_against_reference(system, enumerate_original_terms(system.signature, 4))


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_steps_equal_the_reference_on_random_systems(seed):
    system = _random_dctrs(random.Random(seed))
    seeds = enumerate_original_terms(system.signature, 3)
    check_against_reference(system, seeds)
    # The searches read only the memoized targets: the steps' targets, once
    # each; a certificate's step to a target is the first step that has it.
    cs = unravel_cs(system)
    engine = MuEngine(cs)
    for t in explored_terms(seeds, cs):
        steps = engine.steps(t)
        assert engine.targets(t) == tuple(dict.fromkeys(s.target for s in steps))
        for u in engine.targets(t):
            assert full([engine.step(t, u)]) == full([next(s for s in steps if s.target == u)])


def test_mu_engine_matches_each_rule_and_subject_once(monkeypatch):
    system = load_system("bubble_sort")
    cs = unravel_cs(system)
    calls = spy_rule_matches(monkeypatch, csrewrite, cs.rules)
    engine = MuEngine(cs)
    for seed in enumerate_original_terms(system.signature, 5):
        graph, _ = explore(seed, cs, engine=engine)
        for t in graph.nodes:
            engine.steps(t)
    counts = Counter((id(pattern), subject) for pattern, subject in calls)
    assert len(counts) > 100
    assert max(counts.values()) == 1


# -- warm engines --------------------------------------------------------------


def found(reach):
    return None if reach.reduction is None else full(reach.reduction.steps)


@pytest.mark.parametrize(
    "fuel", [FUEL, Fuel(max_level=4, max_steps=10, max_term_size=60)], ids=["ample", "tight"]
)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_warm_engine_answers_like_a_fresh_one(fuel, seed):
    # The operation budget is shared by nested searches, and a warm engine
    # spends less of it on subproblems it has already solved.  So where a
    # fresh engine runs out, a warm one may answer more; where the fresh
    # answer is complete, the warm one must be that same answer, and a
    # complete warm answer must contain everything a fresh one finds.  The
    # tight budget makes the warm-up run out part-way, and what it cut
    # short must not be reused.
    system = _random_dctrs(random.Random(seed))
    terms = enumerate_original_terms(system.signature, 3)
    warm = ConditionalEngine(system, fuel)
    for t in terms:
        warm.all_steps(t)
    for t in reversed(terms):
        got, want = warm.all_steps(t), ConditionalEngine(system, fuel).all_steps(t)
        if not want.exhausted:
            assert (full(got.steps), got.exhausted) == (full(want.steps), False)
        if not got.exhausted:
            keys = {(s.target, s.position, s.rule_id) for s in got.steps}
            assert {(s.target, s.position, s.rule_id) for s in want.steps} <= keys
        for goal in terms[:2]:
            got, want = warm.reachable(t, goal), ConditionalEngine(system, fuel).reachable(t, goal)
            if not want.exhausted:
                assert (found(got), got.exhausted) == (found(want), False)
            if not got.exhausted and want.reduction is not None:
                assert got.reduction is not None
