import copy
import os
import pickle
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL_SIG, load_problem, term_of, terms_over

import ctrskit as ck
from ctrskit.terms import (
    App,
    FunSym,
    InvalidPositionError,
    MissingReplacementError,
    ReplacementMap,
    Var,
    active_positions,
    apply_subst,
    fun_syms,
    is_original,
    match,
    mu_proper_subterms,
    positions,
    replace_at,
    subterm_at,
    subterms,
    term_size,
    term_to_str,
    vars_of,
)

LT = FunSym("<", 2)
S = FunSym("s", 1)
ZERO = FunSym("0", 0)
TRUE = FunSym("true", 0)
CONS = FunSym(":", 2)
NIL = FunSym("nil", 0)
U4 = FunSym("U", 4, origin=("r4", 1))

zero = App(ZERO)
true = App(TRUE)
nil = App(NIL)


def lt(a, b):
    return App(LT, (a, b))


def s(a):
    return App(S, (a,))


def cons(a, b):
    return App(CONS, (a, b))


def test_arity_checked_on_construction():
    with pytest.raises(ValueError):
        App(S, ())
    with pytest.raises(ValueError):
        App(ZERO, (zero,))


def test_positions():
    assert positions(Var("x")) == {()}
    assert positions(lt(zero, s(zero))) == {(), (1,), (2,), (2, 1)}
    assert positions(lt(s(Var("x")), s(Var("y")))) == {(), (1,), (1, 1), (2,), (2, 1)}


def test_subterm_at():
    t = lt(zero, s(zero))
    assert subterm_at(t, ()) == t
    assert subterm_at(t, (2, 1)) == zero
    with pytest.raises(InvalidPositionError):
        subterm_at(Var("x"), (1,))
    with pytest.raises(InvalidPositionError):
        subterm_at(t, (3,))


def test_replace_at():
    assert replace_at(s(lt(zero, zero)), (1,), true) == s(true)
    t = lt(zero, s(zero))
    assert replace_at(t, (), true) == true
    assert replace_at(t, (2,), zero) == lt(zero, zero)


def test_vars_of_first_occurrence_order():
    assert vars_of([lt(Var("x"), Var("y"))]) == ["x", "y"]
    f = FunSym("f", 2)
    g = FunSym("g", 1)
    assert vars_of([App(f, (Var("y"), Var("x"))), App(g, (Var("y"),))]) == ["y", "x"]
    assert vars_of([zero]) == []
    assert vars_of(lt(Var("x"), Var("y"))) == ["x", "y"]


def test_match():
    assert match(lt(Var("x"), Var("y")), lt(zero, s(zero))) == {"x": zero, "y": s(zero)}
    assert match(lt(s(Var("x")), s(Var("y"))), lt(zero, s(zero))) is None
    f = FunSym("f", 2)
    nonlinear = App(f, (Var("x"), Var("x")))
    assert match(nonlinear, App(f, (zero, true))) is None
    assert match(nonlinear, App(f, (zero, zero))) == {"x": zero}


def test_apply_subst():
    sigma = {"x": zero, "y": s(zero)}
    assert apply_subst(lt(Var("x"), Var("y")), sigma) == lt(zero, s(zero))
    t = lt(Var("x"), Var("y"))
    assert apply_subst(t, {}) == t
    f = FunSym("f", 2)
    g = FunSym("g", 1)
    shared = App(f, (Var("x"), Var("x")))
    image = App(g, (Var("y"),))
    assert apply_subst(shared, {"x": image}) == App(f, (image, image))


def _mu_bubble():
    return ReplacementMap(
        {
            LT: frozenset({1, 2}),
            S: frozenset({1}),
            ZERO: frozenset(),
            TRUE: frozenset(),
            NIL: frozenset(),
            CONS: frozenset({1, 2}),
            U4: frozenset({1}),
        }
    )


def test_active_positions():
    mu = _mu_bubble()
    u_term = App(U4, (true, Var("x"), Var("y"), Var("ys")))
    assert active_positions(u_term, mu) == {(), (1,)}
    assert active_positions(Var("x"), mu) == {()}
    t = cons(Var("x"), cons(Var("y"), Var("ys")))
    assert active_positions(t, mu) == {(), (1,), (2,), (2, 1), (2, 2)}


def test_active_positions_missing_entry():
    mu = ReplacementMap({})
    with pytest.raises(MissingReplacementError):
        active_positions(s(zero), mu)


def test_mu_proper_subterms():
    mu = _mu_bubble()
    u_term = App(U4, (lt(zero, s(zero)), zero, s(zero), nil))
    assert mu_proper_subterms(u_term, mu) == {lt(zero, s(zero)), zero, s(zero)}
    assert mu_proper_subterms(Var("x"), mu) == set()
    blocked = ReplacementMap({S: frozenset(), ZERO: frozenset()})
    assert mu_proper_subterms(s(s(zero)), blocked) == set()


def test_is_original():
    assert is_original(lt(zero, s(zero)))
    assert not is_original(App(U4, (true, Var("x"), Var("y"), Var("ys"))))
    assert not is_original(s(App(FunSym("U", 2, origin=("r1", 1)), (Var("x"), Var("y")))))


def test_replacement_map_validates_indices():
    with pytest.raises(ValueError):
        ReplacementMap({S: frozenset({2})})
    full = ReplacementMap.full([LT, S, ZERO])
    assert full.active_indices(LT) == frozenset({1, 2})
    assert full.active_indices(ZERO) == frozenset()


def test_fun_syms():
    assert fun_syms(lt(zero, s(zero))) == {LT, ZERO, S}
    assert fun_syms(Var("x")) == set()


def test_term_rendering():
    t = lt(zero, s(Var("x")))
    assert term_to_str(t) == "<(0,s(x))"
    assert ck.pretty(t) == "(0 < s(x))"
    assert ck.format_position(()) == "e"
    assert ck.format_position((1, 2)) == "1.2"


# -- properties ---------------------------------------------------------------


@settings(max_examples=200)
@given(terms_over())
def test_replace_subterm_roundtrip(t):
    for p in positions(t):
        assert replace_at(t, p, subterm_at(t, p)) == t


@settings(max_examples=200)
@given(terms_over(var_names=("x", "y")), terms_over(var_names=()))
def test_match_then_apply_is_identity(pattern, subject):
    sigma = match(pattern, subject)
    if sigma is not None:
        assert apply_subst(pattern, sigma) == subject


@settings(max_examples=200)
@given(terms_over())
def test_active_positions_subset_and_full_mu(t):
    full = ReplacementMap.full(SMALL_SIG)
    assert active_positions(t, full) == positions(t)
    empty_args = ReplacementMap({sym: frozenset() for sym in SMALL_SIG})
    assert active_positions(t, empty_args) == {()}
    assert active_positions(t, empty_args) <= positions(t)


@settings(max_examples=200)
@given(terms_over(var_names=()))
def test_full_mu_subterms_are_plain_subterms(t):
    full = ReplacementMap.full(SMALL_SIG)
    expected = {subterm_at(t, p) for p in positions(t) if p}
    assert mu_proper_subterms(t, full) == expected


@settings(max_examples=100)
@given(st.lists(terms_over(), max_size=4))
def test_vars_of_deterministic(ts):
    assert vars_of(ts) == vars_of(list(ts))


@settings(max_examples=200)
@given(terms_over())
def test_positions_count_equals_size(t):
    assert len(positions(t)) == term_size(t)


# -- cached attributes ---------------------------------------------------------

MIXED_SIG = SMALL_SIG + (FunSym("U", 2, origin=("r1", 1)),)


def _reference_size(t):
    return 1 if isinstance(t, Var) else 1 + sum(_reference_size(a) for a in t.args)


def _reference_original(t):
    if isinstance(t, Var):
        return True
    return not t.sym.is_usymbol and all(_reference_original(a) for a in t.args)


def _reference_key(t):
    if isinstance(t, Var):
        return ("var", t.name)
    return ("app", t.sym.name, t.sym.arity, t.sym.origin, tuple(map(_reference_key, t.args)))


def _rebuilt(t):
    """An equal term that shares no node or symbol object with ``t``."""
    if isinstance(t, Var):
        return Var(str(t.name))
    sym = FunSym(t.sym.name, t.sym.arity, t.sym.origin)
    return App(sym, tuple(_rebuilt(a) for a in t.args))


@settings(max_examples=200)
@given(terms_over(MIXED_SIG))
def test_cached_size_and_original_flag(t):
    assert term_size(t) == _reference_size(t)
    assert is_original(t) == _reference_original(t)


@settings(max_examples=200)
@given(terms_over(MIXED_SIG))
def test_terms_built_apart_are_equal_with_equal_hashes(t):
    twin = _rebuilt(t)
    assert twin == t and t == twin and not twin != t
    assert hash(twin) == hash(t)
    assert {t: 1}[twin] == 1


@settings(max_examples=200)
@given(terms_over(MIXED_SIG), terms_over(MIXED_SIG))
def test_equality_is_structural(s, t):
    assert (s == t) == (_reference_key(s) == _reference_key(t))
    assert (s != t) == (_reference_key(s) != _reference_key(t))
    fresh = App(FunSym("e", 0))
    for p in positions(t):
        assert replace_at(t, p, fresh) != t


@settings(max_examples=100)
@given(terms_over(MIXED_SIG))
def test_pickle_and_deepcopy_round_trips(t):
    for twin in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
        assert twin == t
        assert hash(twin) == hash(t)
        assert term_size(twin) == term_size(t)
        assert is_original(twin) == is_original(t)


# -- interning ----------------------------------------------------------------


@settings(max_examples=200)
@given(terms_over(MIXED_SIG).filter(lambda t: isinstance(t, App)))
def test_terms_built_apart_are_the_same_object(t):
    assert _rebuilt(t) is t
    for p in positions(t):
        assert replace_at(t, p, subterm_at(t, p)) is t


def test_applications_are_immutable():
    t = s(zero)
    with pytest.raises(AttributeError):
        t.sym = ZERO
    with pytest.raises(AttributeError):
        t.args = ()
    with pytest.raises(AttributeError):
        del t.args
    assert t.sym is S and t.args == (zero,)


def test_threads_building_equal_terms_get_one_object():
    # Symbols no other test uses, so that every node is new to the table and
    # the threads race on its first construction.
    a, g, h = FunSym("race_a", 0), FunSym("race_g", 1), FunSym("race_h", 1)
    f = FunSym("race_f", 2)
    slots, threads = 3000, 4
    barrier = threading.Barrier(threads)
    results = [None] * threads

    def slot_term(i):
        t = App(a)
        for bit in format(i, "b"):
            t = App(g if bit == "1" else h, (t,))
        return App(f, (t, t))

    def build(k):
        barrier.wait(timeout=60)
        results[k] = [slot_term(i) for i in range(slots)]

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build, args=(k,)) for k in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(w.is_alive() for w in workers)
    assert all(r is not None and len(r) == slots for r in results)
    for i in range(slots):
        assert all(r[i] is results[0][i] for r in results[1:])


def test_unpickled_term_hashes_with_its_own_process_seed():
    t = App(CONS, (App(S, (zero,)), App(U4, (true, Var("x"), zero, nil))))
    child = (
        "import pickle, sys\n"
        "t = pickle.loads(sys.stdin.buffer.read())\n"
        "from ctrskit.terms import App, FunSym, Var\n"
        "print(hash(t) == hash(eval(sys.argv[1])))\n"
    )
    built = repr(t)
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    out = subprocess.run(
        [sys.executable, "-c", child, built],
        input=pickle.dumps(t),
        capture_output=True,
        env=env,
        check=True,
        timeout=60,
    )
    assert out.stdout.decode().strip() == "True"


@settings(max_examples=200)
@given(terms_over(MIXED_SIG, var_names=("x", "y")), terms_over(MIXED_SIG, var_names=()))
def test_symbols_built_apart_compare_and_match_by_value(pattern, ground):
    # Separately parsed systems hold distinct but equal symbol objects, so
    # identity may only ever be a shortcut for value equality.
    subject = apply_subst(pattern, {"x": ground, "y": _rebuilt(ground)})
    sigma = match(pattern, subject)
    assert sigma is not None
    assert match(_rebuilt(pattern), subject) == sigma
    assert match(pattern, _rebuilt(subject)) == sigma
    for sym in fun_syms(subject):
        twin = FunSym(sym.name, sym.arity, sym.origin)
        assert twin is not sym and twin == sym and not twin != sym
        assert hash(twin) == hash(sym)
        assert FunSym(sym.name, sym.arity + 1, sym.origin) != sym
        assert FunSym(sym.name + "'", sym.arity, sym.origin) != sym
        assert FunSym(sym.name, sym.arity, ("r9", 9)) != sym


def _reference_str(t, infix):
    if isinstance(t, Var):
        return t.name
    args = [_reference_str(a, infix) for a in t.args]
    if infix and len(args) == 2 and not t.sym.name[0].isalnum() and not t.sym.is_usymbol:
        return f"({args[0]} {t.sym.name} {args[1]})"
    return t.sym.name + (f"({','.join(args)})" if args else "")


INFIX_SIG = MIXED_SIG + (LT, CONS, NIL, FunSym("k", 3))


@settings(max_examples=200)
@given(terms_over(INFIX_SIG))
def test_rendering_equals_the_recursive_definition(t):
    assert term_to_str(t) == _reference_str(t, infix=False)
    assert ck.pretty(t) == _reference_str(t, infix=True)


def test_deep_terms_render():
    t = zero
    for _ in range(20_000):
        t = cons(s(t), nil)
    assert term_to_str(t) == ":(s(" * 20_000 + "0" + "),nil)" * 20_000
    assert ck.pretty(t) == "(s(" * 20_000 + "0" + ") : nil)" * 20_000


def test_walks_of_a_deep_term_do_not_recurse():
    depth = 100_000
    pair, leaf = FunSym("pair", 2), FunSym("leaf", 0)
    t = Var("x")
    for _ in range(depth):
        t = App(pair, (t, App(leaf)))
    walked = list(subterms(t))
    assert len(walked) == 2 * depth + 1
    assert walked[0] is t and walked[depth] == Var("x")
    assert all(u.sym is pair for u in walked[:depth])
    assert walked[depth + 1 :] == [App(leaf)] * depth
    assert vars_of(t) == ["x"]
    assert fun_syms(t) == {pair, leaf}
