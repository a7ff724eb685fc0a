"""The explicit-stack term kernels against the recursive definitions they
replaced, kept here as the reference, and a check that no kernel recurses
once per term level.

``match``, ``apply_subst``, ``replace_at``, ``mu_proper_subterms``, the
engines' sort key ``_term_key`` and ``ConditionalEngine``'s walks keep
explicit stacks.  The references below are the plain recursive
definitions; the kernels must give the same answers, bind variables in the
same order and raise the same errors, and the conditional engine must
spend its work budget in the same order.
"""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL_SIG, terms_over
from test_checker import _random_dctrs
from test_step_oracle import full

from ctrskit.csrewrite import enumerate_original_terms
from ctrskit.ctrs import ConditionalEngine, Fuel, lift_steps, _term_key
from ctrskit.terms import (
    App,
    FunSym,
    InvalidPositionError,
    ReplacementMap,
    Var,
    active_positions,
    apply_subst,
    format_position,
    match,
    mu_proper_subterms,
    positions,
    replace_at,
    subterm_at,
    term_to_str,
)

# -- the references ------------------------------------------------------------


def reference_match(pattern, subject):
    binding = {}

    def walk(pat, sub):
        if isinstance(pat, Var):
            bound = binding.get(pat.name)
            if bound is None:
                binding[pat.name] = sub
                return True
            return bound == sub
        if isinstance(sub, Var) or pat.sym != sub.sym:
            return False
        return all(walk(p, s) for p, s in zip(pat.args, sub.args))

    return binding if walk(pattern, subject) else None


def reference_apply_subst(t, sigma):
    if isinstance(t, Var):
        return sigma.get(t.name, t)
    return App(t.sym, tuple(reference_apply_subst(a, sigma) for a in t.args))


def reference_replace_at(t, p, u):
    if not p:
        return u
    if isinstance(t, Var) or not 1 <= p[0] <= len(t.args):
        raise InvalidPositionError(f"position {format_position(p)} invalid in {term_to_str(t)}")
    i = p[0]
    return App(t.sym, t.args[: i - 1] + (reference_replace_at(t.args[i - 1], p[1:], u),) + t.args[i:])


def reference_term_key(t):
    if isinstance(t, Var):
        return (0, t.name)
    return (1, t.sym.name, t.sym.arity) + tuple(reference_term_key(a) for a in t.args)


def reference_successors(engine, s, budget):
    """``ConditionalEngine._successors`` as a recursion through the engine."""
    key = (s, budget)
    cached = engine._step_cache.get(key)
    if cached is not None:
        return cached
    if isinstance(s, Var):
        return (), False
    out, exhausted = engine._root_steps(s, budget)
    for i, arg in enumerate(s.args, start=1):
        steps, arg_exhausted = engine._successors(arg, budget)
        exhausted = exhausted or arg_exhausted
        out += lift_steps(s, i, steps)
    result = (tuple(out), exhausted)
    if engine._work <= engine.fuel.max_steps:
        engine._step_cache[key] = result
    return result


def reference_has_syntactic_redex(engine, t):
    cached = engine._redex_cache.get(t)
    if cached is None:
        cached = isinstance(t, App) and (
            any(match(rule.lhs, t) is not None for rule, _ in engine._rules_at.get(t.sym, ()))
            or any(engine._has_syntactic_redex(arg) for arg in t.args)
        )
        engine._redex_cache[t] = cached
    return cached


def recursive_engine(system, fuel):
    engine = ConditionalEngine(system, fuel)
    engine._successors = lambda s, budget: reference_successors(engine, s, budget)
    engine._has_syntactic_redex = lambda t: reference_has_syntactic_redex(engine, t)
    return engine


def _sign(a, b):
    return (a > b) - (a < b)


# -- the checks ----------------------------------------------------------------

# Three variable names over a small signature: patterns are often non-linear.
PATTERNS = terms_over(var_names=("x", "y", "z"), max_leaves=8)
SUBJECTS = terms_over(var_names=("x", "y"), max_leaves=8)
SUBSTS = st.dictionaries(st.sampled_from(("x", "y", "z")), SUBJECTS, max_size=3)


def agree_on_match(pattern, subject):
    got, want = match(pattern, subject), reference_match(pattern, subject)
    assert got == want
    if got is not None:
        # The same bindings, made in the same (left-to-right) order.
        assert list(got.items()) == list(want.items())


@settings(max_examples=300)
@given(PATTERNS, SUBJECTS)
def test_match_equals_the_reference(pattern, subject):
    agree_on_match(pattern, subject)


@settings(max_examples=300)
@given(PATTERNS, SUBSTS)
def test_match_of_an_instance_equals_the_reference(pattern, sigma):
    # Instances match, unless a non-linear variable meets two images; the
    # images may hold variables, so subjects are not ground.
    subject = apply_subst(pattern, sigma)
    agree_on_match(pattern, subject)
    assert match(pattern, subject) is not None


def test_match_binds_subject_variables():
    f, g = FunSym("f", 1), FunSym("g", 2)
    x, y = Var("x"), Var("y")
    assert match(App(f, (x,)), App(f, (x,))) == {"x": Var("x")}
    assert match(x, x) == {"x": x}
    assert match(App(g, (x, x)), App(g, (y, y))) == {"x": y}
    assert match(App(g, (x, x)), App(g, (x, y))) is None
    assert match(App(f, (x,)), x) is None
    sigma = match(App(g, (y, App(f, (x,)))), App(g, (App(f, (x,)), App(f, (y,)))))
    assert list(sigma.items()) == [("y", App(f, (x,))), ("x", y)]


@settings(max_examples=300)
@given(SUBJECTS, SUBSTS)
def test_apply_subst_equals_the_reference(t, sigma):
    assert apply_subst(t, sigma) is reference_apply_subst(t, sigma)


@settings(max_examples=200)
@given(SUBJECTS, SUBJECTS)
def test_replace_at_equals_the_reference(t, u):
    for p in positions(t):
        assert replace_at(t, p, u) is reference_replace_at(t, p, u)
        for bad in (p + (0,), p + (3,), p + (1, 1, 1)):
            if bad not in positions(t):
                with pytest.raises(InvalidPositionError) as want:
                    reference_replace_at(t, bad, u)
                with pytest.raises(InvalidPositionError) as got:
                    replace_at(t, bad, u)
                assert str(got.value) == str(want.value)


PARTIAL_MAP = ReplacementMap(
    {sym: frozenset({sym.arity}) if sym.name in ("g", "f") else frozenset() for sym in SMALL_SIG}
)


@settings(max_examples=200)
@given(SUBJECTS)
def test_mu_proper_subterms_equal_the_subterms_at_active_positions(t):
    want = {subterm_at(t, p) for p in active_positions(t, PARTIAL_MAP) if p}
    assert mu_proper_subterms(t, PARTIAL_MAP) == want


@settings(max_examples=300)
@given(terms_over(SMALL_SIG + (FunSym("a", 0), FunSym("k", 3))), SUBJECTS)
def test_term_key_orders_like_the_reference(s, t):
    # The flat key orders terms as the nested reference key does, and is
    # equal exactly for equal terms.
    assert _sign(_term_key(s), _term_key(t)) == _sign(reference_term_key(s), reference_term_key(t))
    assert (_term_key(s) == _term_key(t)) == (s == t)


@settings(max_examples=100)
@given(st.lists(SUBJECTS, max_size=8))
def test_term_key_sorts_like_the_reference(ts):
    assert sorted(ts, key=_term_key) == sorted(ts, key=reference_term_key)


@pytest.mark.parametrize("max_steps", [5, 30])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_conditional_engine_spends_its_budget_like_the_recursion(max_steps, seed):
    # Condition searches charge the operation's shared budget, so when it
    # binds, the answer depends on the order in which subterms are entered
    # and cached.  Warm engines make that order matter across operations too.
    system = _random_dctrs(random.Random(seed))
    fuel = Fuel(max_level=3, max_steps=max_steps, max_term_size=40)
    terms = enumerate_original_terms(system.signature, 3)
    engine, reference = ConditionalEngine(system, fuel), recursive_engine(system, fuel)
    for t in terms:
        got, want = engine.all_steps(t), reference.all_steps(t)
        assert (full(got.steps), got.exhausted) == (full(want.steps), want.exhausted)
        for goal in terms[:2]:
            got, want = engine.reachable(t, goal), reference.reachable(t, goal)
            assert got.exhausted == want.exhausted
            assert (got.reduction is None) == (want.reduction is None)
            if got.reduction is not None:
                assert full(got.reduction.steps) == full(want.reduction.steps)
    assert engine._step_cache.keys() == reference._step_cache.keys()
    assert engine._redex_cache == reference._redex_cache


# -- depth -----------------------------------------------------------------------

_DEEP_CHILD = """
import sys
from pathlib import Path
import ctrskit as ck
from ctrskit.ctrs import ConditionalEngine, _term_key
from ctrskit.csrewrite import MuEngine
from ctrskit.terms import App, Var, apply_subst, match, mu_proper_subterms, replace_at

depth = int(sys.argv[1])
problem = ck.parse_problem((Path(ck.corpus_dir()) / "bubble_sort.ctrs").read_text(), "bubble_sort")
term = lambda text: ck.parse_term(text, problem)
s = term("s(0)").sym

def under_s(t):
    for _ in range(depth):
        t = App(s, (t,))
    return t

# A conditional redex at the bottom: the swap needs <(0,s(0)) ->* true.
redex, swapped = term(":(0,:(s(0),nil))"), term(":(s(0),:(0,nil))")
deep, bottom = under_s(redex), (1,) * depth
pattern = under_s(Var("x"))
sys.setrecursionlimit(int(sys.argv[2]))

assert match(pattern, deep) == {"x": redex}
assert apply_subst(pattern, {"x": redex}) is deep
assert replace_at(deep, bottom, swapped) is under_s(swapped)
assert _term_key(deep)[: 3 * depth] == (1, "s", 1) * depth
cs = ck.unravel_cs(problem.system)
assert len(mu_proper_subterms(deep, cs.mu)) == depth + 4
(step,) = MuEngine(cs).steps(deep)
assert step.position == bottom and step.rule_id == "r4.1"
steps, exhausted = ConditionalEngine(problem.system).all_steps(deep)
assert not exhausted and [(st.position, st.rule_id) for st in steps] == [(bottom, "r4")]
assert steps[0].target is under_s(swapped)
print("ok")
"""


def test_kernels_do_not_recurse_per_level():
    # The recursion limit is far below the term's depth: a kernel that
    # recursed once per level would raise RecursionError.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run(
        [sys.executable, "-c", _DEEP_CHILD, "10000", "120"],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert out.stderr.decode() == ""
    assert out.stdout.decode() == "ok\n"
