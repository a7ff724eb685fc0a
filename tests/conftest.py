"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

import ctrskit as ck
from ctrskit.terms import App, FunSym, Var

CORPUS = Path(ck.corpus_dir())


def corpus_text(name: str) -> str:
    return (CORPUS / f"{name}.ctrs").read_text()


def load_system(name: str) -> ck.Dctrs:
    return ck.parse_ctrs(corpus_text(name), name)


def load_problem(name: str) -> ck.ProblemFile:
    return ck.parse_problem(corpus_text(name), name)


def unreadable_entries(directory: Path) -> None:
    """A copy of ``less.ctrs`` next to a directory and a non-UTF-8 file,
    both named ``*.ctrs``."""
    (directory / "less.ctrs").write_text(corpus_text("less"))
    (directory / "sub.ctrs").mkdir()
    (directory / "bad.ctrs").write_bytes(b"(VAR x)\n(RULES f(x) -> \xff)\n")


def term_of(name: str, text: str):
    return ck.parse_term(text, load_problem(name))


def full_map(trs) -> ck.Csrs:
    """``trs`` under the full replacement map: plain rewriting."""
    return ck.Csrs(trs.signature, trs.rules, ck.ReplacementMap.full(trs.signature))


@pytest.fixture(scope="session")
def bubble() -> ck.Dctrs:
    return load_system("bubble_sort")


@pytest.fixture(scope="session")
def bubble_problem() -> ck.ProblemFile:
    return load_problem("bubble_sort")


# -- term generators ---------------------------------------------------------

SMALL_SIG = (
    FunSym("c", 0),
    FunSym("d", 0),
    FunSym("g", 1),
    FunSym("h", 1),
    FunSym("f", 2),
)


def terms_over(signature=SMALL_SIG, var_names=("x", "y"), max_leaves=6):
    leaves = [App(s) for s in signature if s.arity == 0]
    leaves += [Var(v) for v in var_names]
    base = st.sampled_from(leaves)
    bigger = [s for s in signature if s.arity > 0]
    if not bigger:
        return base

    def extend(children):
        return st.one_of(
            [
                st.builds(lambda *args, sym=sym: App(sym, args), *([children] * sym.arity))
                for sym in bigger
            ]
        )

    return st.recursive(base, extend, max_leaves=max_leaves)


def random_ground_term(rng: random.Random, signature, max_size: int):
    """Seeded generator used where bulk sampling beats hypothesis."""
    consts = [s for s in signature if s.arity == 0]
    bigger = [s for s in signature if s.arity > 0]
    if max_size <= 1 or not bigger or rng.random() < 0.3:
        return App(rng.choice(consts))
    sym = rng.choice(bigger)
    budget = max_size - 1
    args = []
    for i in range(sym.arity):
        remaining_slots = sym.arity - i - 1
        share = max(1, (budget - remaining_slots) // (remaining_slots + 1) or 1)
        size = rng.randint(1, max(1, share))
        args.append(random_ground_term(rng, signature, size))
        budget -= ck.term_size(args[-1])
    return App(sym, tuple(args))


def spy_rule_matches(monkeypatch, module, rules):
    """Record ``(pattern, subject)`` for every call of ``module.match`` whose
    pattern is the left-hand side of one of ``rules``."""
    lhs_ids = {id(rule.lhs) for rule in rules}
    calls = []
    real = module.match

    def recording(pattern, subject):
        if id(pattern) in lhs_ids:
            calls.append((pattern, subject))
        return real(pattern, subject)

    monkeypatch.setattr(module, "match", recording)
    return calls
