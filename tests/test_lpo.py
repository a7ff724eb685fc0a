import ast
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, SMALL_SIG, load_system, random_ground_term, terms_over

import ctrskit as ck
from ctrskit import lpo
from ctrskit.lpo import (
    Precedence,
    SearchRefusedError,
    UnknownSymbolError,
    lpo_greater,
    orients,
    search_precedence,
)
from ctrskit.terms import (
    App,
    FunSym,
    Term,
    Var,
    apply_subst,
    positions,
    replace_at,
    subterm_at,
    subterms,
    vars_of,
)
from ctrskit.unravel import Rule, Trs, unravel

LT = FunSym("<", 2)
S = FunSym("s", 1)
ZERO = FunSym("0", 0)
TRUE = FunSym("true", 0)
FALSE = FunSym("false", 0)


def lt(a, b):
    return App(LT, (a, b))


def s(a):
    return App(S, (a,))


def test_decreasing_rule_under_any_precedence():
    lhs = lt(s(Var("x")), s(Var("y")))
    rhs = lt(Var("x"), Var("y"))
    for order in [(LT, S, ZERO), (S, ZERO, LT), (ZERO, LT, S)]:
        assert lpo_greater(lhs, rhs, Precedence(order))


def test_irreflexive_examples():
    prec = Precedence((LT, S, ZERO, TRUE, FALSE))
    for t in [App(ZERO), s(App(ZERO)), lt(Var("x"), s(App(ZERO)))]:
        assert not lpo_greater(t, t, prec)


def test_variables_are_minimal():
    prec = Precedence((LT, S, ZERO))
    assert not lpo_greater(Var("x"), App(ZERO), prec)
    assert not lpo_greater(Var("x"), Var("y"), prec)
    assert lpo_greater(s(Var("x")), Var("x"), prec)
    assert not lpo_greater(s(Var("x")), Var("y"), prec)


def test_unknown_symbol_error():
    prec = Precedence((S, ZERO))
    with pytest.raises(UnknownSymbolError):
        lpo_greater(lt(App(ZERO), App(ZERO)), App(ZERO), prec)


def test_search_orients_less_system():
    less = load_system("less")
    trs = unravel(less)
    prec = search_precedence(trs)
    assert prec is not None
    assert orients(trs, prec)
    assert search_precedence(trs) == prec  # deterministic first solution


def test_search_fails_on_bubble_unraveling(bubble):
    trs = unravel(bubble)
    assert search_precedence(trs) is None
    # The conflict: orienting the conditional entry rule needs the list
    # constructor above the fresh symbol, while the release rule pushes it
    # below: no total precedence satisfies both.
    by_id = {r.id: r for r in trs.rules}
    cons_first = [s for s in trs.signature if s.name == ":"]
    u_sym = [s for s in trs.signature if s.is_usymbol]
    rest = [s for s in trs.signature if s not in cons_first + u_sym]
    cons_above = Precedence(tuple(cons_first + u_sym + rest))
    u_above = Precedence(tuple(u_sym + cons_first + rest))
    assert not lpo_greater(by_id["r4.2"].lhs, by_id["r4.2"].rhs, cons_above)
    assert not lpo_greater(by_id["r4.1"].lhs, by_id["r4.1"].rhs, u_above)


def test_search_empty_system():
    prec = search_precedence(Trs((), ()))
    assert prec == Precedence(())


def test_search_unorientable_self_loop():
    system = load_system("self_loop")
    assert search_precedence(unravel(system)) is None


def test_signature_cap():
    syms = tuple(FunSym(f"f{i}", 0) for i in range(lpo.MAX_SIGNATURE + 1))
    with pytest.raises(SearchRefusedError, match=r"^signature has 11 symbols \(cap 10\);"):
        search_precedence(Trs(syms, ()))
    assert search_precedence(Trs(syms[1:], ())) is not None


@settings(max_examples=150)
@given(terms_over(max_leaves=5))
def test_irreflexivity_property(t):
    prec = Precedence(tuple(sorted(SMALL_SIG, key=lambda s: (s.name, s.arity))))
    assert not lpo_greater(t, t, prec)


@settings(max_examples=150)
@given(terms_over(max_leaves=5), terms_over(max_leaves=4))
def test_subterm_property(outer, inner):
    # Any term strictly containing `inner` is greater under any precedence.
    prec = Precedence(tuple(sorted(SMALL_SIG, key=lambda s: (s.name, s.arity))))
    f2 = next(sym for sym in SMALL_SIG if sym.arity == 2)
    wrapped = App(f2, (outer, inner))
    assert lpo_greater(wrapped, inner, prec)


def _random_precedence(rng):
    order = sorted(SMALL_SIG, key=lambda s: (s.name, s.arity))
    rng.shuffle(order)
    return Precedence(tuple(order))


def test_transitivity_and_stability_sampled():
    rng = random.Random(91)
    fired_trans = 0
    fired_subst = 0
    for _ in range(800):
        prec = _random_precedence(rng)
        a = random_ground_term(rng, SMALL_SIG, 7)
        b_pool = list(positions(a))
        b = subterm_at(a, rng.choice(b_pool)) if rng.random() < 0.6 else random_ground_term(rng, SMALL_SIG, 5)
        c = random_ground_term(rng, SMALL_SIG, 4)
        if lpo_greater(a, b, prec) and lpo_greater(b, c, prec):
            fired_trans += 1
            assert lpo_greater(a, c, prec)
        # Substitution stability on open variants.
        x = Var("x")
        open_a = replace_at(a, rng.choice(list(positions(a))), x)
        open_b = b
        if lpo_greater(open_a, open_b, prec):
            sigma = {"x": random_ground_term(rng, SMALL_SIG, 4)}
            fired_subst += 1
            assert lpo_greater(apply_subst(open_a, sigma), apply_subst(open_b, sigma), prec)
    assert fired_trans > 20
    assert fired_subst > 50


def test_monotonicity_sampled():
    rng = random.Random(92)
    fired = 0
    f2 = next(sym for sym in SMALL_SIG if sym.arity == 2)
    g1 = next(sym for sym in SMALL_SIG if sym.arity == 1)
    for _ in range(400):
        prec = _random_precedence(rng)
        a = random_ground_term(rng, SMALL_SIG, 6)
        b = subterm_at(a, rng.choice(list(positions(a))))
        if a != b and lpo_greater(a, b, prec):
            fired += 1
            other = random_ground_term(rng, SMALL_SIG, 3)
            assert lpo_greater(App(g1, (a,)), App(g1, (b,)), prec)
            assert lpo_greater(App(f2, (a, other)), App(f2, (b, other)), prec)
            assert lpo_greater(App(f2, (other, a)), App(f2, (other, b)), prec)
    assert fired > 50


# -- reference oracle: the permutation search that preceded the partial-order one

def _and3(a, b):
    if a is False or b is False:
        return False
    if a is True and b is True:
        return True
    return None


def _or3(a, b):
    if a is True or b is True:
        return True
    if a is False and b is False:
        return False
    return None


def _perm_lpo3(s: Term, t: Term, ranks: dict) -> Optional[bool]:
    if isinstance(s, Var):
        return False
    if isinstance(t, Var):
        return t.name in vars_of(s)
    result: Optional[bool] = False
    for si in s.args:
        result = _or3(result, True if si == t else _perm_lpo3(si, t, ranks))
        if result is True:
            return True
    dominates: Optional[bool] = True
    for tj in t.args:
        dominates = _and3(dominates, _perm_lpo3(s, tj, ranks))
        if dominates is False:
            break
    if s.sym == t.sym:
        lex: Optional[bool] = False
        for sk, tk in zip(s.args, t.args):
            if sk == tk:
                continue
            lex = _perm_lpo3(sk, tk, ranks)
            break
        result = _or3(result, _and3(lex, dominates))
    else:
        rs, rt = ranks.get(s.sym), ranks.get(t.sym)
        root_greater = rs < rt if rs is not None and rt is not None else None
        result = _or3(result, _and3(root_greater, dominates))
    return result


def permutation_search(system: Trs) -> Optional[Precedence]:
    """The precedence search as it was before the partial-order search.

    It walks permutations of the signature (sorted by name then arity) as a
    prefix tree in lexicographic order and prunes a prefix once some rule is
    unorientable under every completion, so it returns the lexicographically
    first orienting permutation.  Kept only as a test oracle.
    """
    symbols = sorted(system.signature, key=lambda s: (s.name, s.arity))
    pairs = [(r.lhs, r.rhs) for r in system.rules]

    def extend(prefix, remaining, pending):
        ranks = {sym: i for i, sym in enumerate(prefix)}
        undecided = []
        for lhs, rhs in pending:
            verdict = _perm_lpo3(lhs, rhs, ranks)
            if verdict is False:
                return None
            if verdict is not True:
                undecided.append((lhs, rhs))
        if not undecided:
            return Precedence(tuple(prefix + remaining))
        if not remaining:
            return None
        for i, sym in enumerate(remaining):
            found = extend(prefix + [sym], remaining[:i] + remaining[i + 1 :], undecided)
            if found is not None:
                return found
        return None

    return extend([], symbols, pairs)


A0, B0 = FunSym("a", 0), FunSym("b", 0)
F1, G1 = FunSym("f", 1), FunSym("g", 1)
H2, K2 = FunSym("h", 2), FunSym("k", 2)


def _terms(depth: int):
    leaves = st.sampled_from([App(A0), App(B0), Var("x"), Var("y")])
    if depth == 0:
        return leaves
    sub = _terms(depth - 1)
    return st.one_of(
        leaves,
        *[
            st.builds(lambda *args, sym=sym: App(sym, args), *([sub] * sym.arity))
            for sym in (F1, G1, H2, K2)
        ],
    )


def _rule(i: int, lhs: Term, rhs: Term) -> Rule:
    # Unbound right-hand variables become the constant a.
    unbound = set(vars_of(rhs)) - set(vars_of(lhs))
    return Rule(f"r{i}", lhs, apply_subst(rhs, {v: App(A0) for v in unbound}))


small_trs = st.lists(
    st.tuples(_terms(3).filter(lambda t: isinstance(t, App)), _terms(3)),
    min_size=1,
    max_size=4,
).map(lambda sides: Trs.of([_rule(i, l, r) for i, (l, r) in enumerate(sides)]))


@settings(max_examples=100, deadline=None)
@given(small_trs)
def test_search_matches_permutation_oracle(trs):
    found = search_precedence(trs)
    assert found == permutation_search(trs)
    if found is not None:
        assert orients(trs, found)


def test_search_matches_permutation_oracle_on_corpus():
    for path in sorted(CORPUS.glob("*.ctrs")):
        trs = unravel(load_system(path.stem))
        assert search_precedence(trs) == permutation_search(trs), path.stem


def _count_evaluations(monkeypatch) -> list:
    calls = [0]
    real = lpo._lpo3

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(lpo, "_lpo3", counting)
    return calls


def test_failing_bubble_search_stays_small(bubble, monkeypatch):
    # The permutation search made about 913k three-valued comparisons here.
    calls = _count_evaluations(monkeypatch)
    assert search_precedence(unravel(bubble)) is None
    assert 0 < calls[0] < 20_000


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(terms_over(), terms_over()), min_size=1, max_size=8),
    st.randoms(use_true_random=False),
)
def test_a_shared_memo_gives_the_verdicts_of_fresh_ones(pairs, rng):
    # One memo serves a whole search, across partial orders and pairs.
    above = frozenset()
    for _ in range(3):
        f, g = rng.sample(SMALL_SIG, 2)
        if (f, g) not in above and (g, f) not in above:
            above = lpo._with(above, f, g)
    varsets = {u: frozenset(vars_of(u)) for lhs, _ in pairs for u in subterms(lhs)}
    shared: dict = {}
    for order in (frozenset(), above, frozenset(), above):
        for lhs, rhs in pairs:
            pair = (lhs, rhs, order)
            fresh = lpo._decide(pair, lpo._lpo3, varsets, {})
            assert lpo._decide(pair, lpo._lpo3, varsets, shared) == fresh


def _tower(depth: int) -> str:
    return "s(" * depth + "x" + ")" * depth


@pytest.mark.parametrize(
    "head, verdict, code", [("g", "MAYBE", 2), ("f", "YES", 0)], ids=["unorientable", "orientable"]
)
def test_deep_rules_are_decided_within_two_seconds(tmp_path, head, verdict, code):
    # Without the memo, the comparisons of s-towers meet the same pairs of
    # subterms exponentially often: at depth 20 the search took seconds.
    path = tmp_path / "deep.trs"
    path.write_text(f"(VAR x)\n(RULES\n  {head}({_tower(200)}) -> g({_tower(200)})\n)\n")
    child = subprocess.run(
        [sys.executable, "-m", "ctrskit", "prove", str(path)],
        capture_output=True,
        text=True,
        timeout=2,
        env={**os.environ, "PYTHONPATH": str(Path(ck.__file__).parent.parent)},
    )
    assert (child.returncode, child.stdout.splitlines()[0]) == (code, f"verdict: {verdict}")


def _chain(symbol: str, count: int, leaf: str = "x") -> str:
    return f"{symbol}(" * count + leaf + ")" * count


@pytest.mark.parametrize("spare", [0, -1], ids=["within-the-budget", "one-verdict-over"])
def test_search_refuses_a_system_beyond_the_verdict_budget(monkeypatch, spare):
    # The condition source f(...f(x)...) sits under an unraveling symbol, so
    # orienting the rule compares the 30-level sides all the way down.  Each
    # evaluation memoizes one verdict, so their count is what the search needs.
    text = (
        "(CONDITIONTYPE ORIENTED)\n(VAR x y)\n(SIG (0 0))\n(RULES\n"
        f"  h({_chain('s', 28)}) -> x | {_chain('f', 29)} == y\n)\n"
    )
    system = ck.parse_ctrs(text)
    calls = _count_evaluations(monkeypatch)
    assert ck.prove_quasi_decreasing(system, seed_size=2).verdict == "YES"
    needed, calls[0] = calls[0], 0
    budget = needed + spare
    monkeypatch.setattr(lpo, "MAX_VERDICTS", budget)
    outcome = ck.prove_quasi_decreasing(system, seed_size=2)
    if spare == 0:
        assert (outcome.verdict, calls[0]) == ("YES", needed)
        assert "lpo-note" not in outcome.methods
        return
    refusal = f"search needs more than {budget} verdicts (cap {budget}); delegate to an external prover"
    assert (outcome.verdict, outcome.methods["lpo-note"]) == ("MAYBE", refusal)
    # A refused search did not finish, so it claims nothing about orientability.
    assert not any("exhaustive" in line for line in outcome.diagnostics)


def test_the_budget_admits_rule_sides_257_levels_deep(monkeypatch):
    # The unraveled condition source is 257 levels deep and is compared with
    # the 256-level left-hand side all the way down: 458,745 verdicts.
    text = (
        "(CONDITIONTYPE ORIENTED)\n(VAR x y)\n(SIG (0 0))\n(RULES\n"
        f"  h({_chain('s', 254)}) -> x | {_chain('f', 255)} == y\n)\n"
    )
    calls = _count_evaluations(monkeypatch)
    trs = unravel(ck.parse_ctrs(text))
    prec = search_precedence(trs)
    assert prec is not None and orients(trs, prec)
    assert calls[0] < lpo.MAX_VERDICTS // 2


# The shape of rule that CI runs at 100,000 levels, in a child whose recursion
# limit is far below the rule's depth.
DEEP_PROVE_SCRIPT = """
import sys
from ctrskit.cli import cli_main

levels, path = int(sys.argv[1]), sys.argv[2]
lhs = "f(" + "s(" * (levels - 2) + "x" + ")" * (levels - 1)
with open(path, "w") as f:
    f.write(
        "(CONDITIONTYPE ORIENTED)\\n(VAR x y)\\n(SIG (0 0))\\n(RULES\\n"
        f"  {lhs} -> g(y) | h(x) == y\\n  h(x) -> x\\n)\\n"
    )
sys.setrecursionlimit(120)
sys.exit(cli_main(["prove", path, "--seeds-size", "3"]))
"""


def test_prove_orients_a_rule_5000_levels_deep_without_recursion(tmp_path):
    child = subprocess.run(
        [sys.executable, "-c", DEEP_PROVE_SCRIPT, "5000", str(tmp_path / "deep.ctrs")],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(ck.__file__).parent.parent)},
    )
    # YES includes the certificate's re-check by lpo_greater.
    assert (child.returncode, child.stdout.splitlines()[0], child.stderr) == (0, "verdict: YES", "")
    assert "note: search" not in child.stdout


def test_no_path_order_function_calls_itself():
    tree = ast.parse(Path(lpo.__file__).read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert {"_decide", "_lpo3", "_orientable", "lpo_greater", "gt"} <= {f.name for f in functions}
    for function in functions:
        called = {
            node.func.id
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert function.name not in called


def test_path_order_memo_decides_each_pair_once(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    g = FunSym("g", 1)
    tower = Var("x")
    for _ in range(40):
        tower = s(tower)
    lhs = App(g, (tower,))
    assert search_precedence(Trs.of([_rule(1, lhs, lhs)])) is None
    # At most one evaluation per pair of the 42 subterms under each of the
    # three partial orders the search tries; without the memo, over 2**40.
    assert calls[0] <= 3 * 42 * 42
    prec = Precedence((S, g))
    assert not lpo_greater(lhs, lhs, prec)
    assert lpo_greater(s(lhs), lhs, prec)
