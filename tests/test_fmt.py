import pytest

from conftest import CORPUS, corpus_text, load_problem, load_system

import ctrskit as ck
from ctrskit.fmt import (
    Diagnostic,
    ParseError,
    ValidationError,
    parse_ctrs,
    parse_problem,
    parse_term,
    print_csrs,
    print_ctrs,
    print_trs,
    tokenize,
)
from ctrskit.terms import App, FunSym, Var
from ctrskit.unravel import Csrs, Trs, unravel, unravel_cs


def test_tokenizer_positions_and_splitting():
    tokens = tokenize("f(x) -> y\n<(a,b) == c")
    texts = [t.text for t in tokens]
    assert texts == ["f", "(", "x", ")", "->", "y", "<", "(", "a", ",", "b", ")", "==", "c"]
    assert (tokens[0].line, tokens[0].col) == (1, 1)
    assert (tokens[6].line, tokens[6].col) == (2, 1)
    glued = tokenize("a->b")
    assert [t.text for t in glued] == ["a", "->", "b"]
    assert [(t.line, t.col) for t in glued] == [(1, 1), (1, 2), (1, 4)]
    edge_cases = {
        "a-->b": [("a-", 1, 1), ("->", 1, 3), ("b", 1, 5)],
        "==>": [("==", 1, 1), (">", 1, 3)],
        "=-=": [("=-=", 1, 1)],
        "f(x)\t-> y": [("f", 1, 1), ("(", 1, 2), ("x", 1, 3), (")", 1, 4), ("->", 1, 6), ("y", 1, 9)],
        "a\r\nb": [("a", 1, 1), ("b", 2, 1)],
        "a\x0bb ->c": [("a", 1, 1), ("b", 1, 3), ("->", 1, 5), ("c", 1, 7)],
        "café(über)": [("café", 1, 1), ("(", 1, 5), ("über", 1, 6), (")", 1, 10)],
    }
    for text, expected in edge_cases.items():
        assert [(t.text, t.line, t.col) for t in tokenize(text)] == expected, text


def test_parse_bubble(bubble):
    assert len(bubble.rules) == 4
    swap = bubble.rule("r4")
    assert swap.is_conditional
    assert len(swap.conditions) == 1
    assert ck.term_to_str(swap.lhs) == ":(x,:(y,ys))"


def test_unsupported_condition_type():
    text = "(CONDITIONTYPE JOIN)\n(VAR x)\n(RULES f(x) -> x)"
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    diag = err.value.diagnostics[0]
    assert "JOIN" in diag.message
    assert (diag.line, diag.col) == (1, 16)


@pytest.mark.parametrize(
    "strategy", ["", "(STRATEGY CONTEXTSENSITIVE (a))"], ids=["ctrs", "csrs"]
)
def test_unsupported_condition_type_in_every_format(strategy):
    with pytest.raises(ParseError) as err:
        parse_problem("(CONDITIONTYPE JOIN)(RULES a -> b)" + strategy)
    assert [str(d) for d in err.value.diagnostics] == [
        "1:16: unsupported condition type JOIN: only ORIENTED "
        "(reachability) conditions are handled"
    ]


@pytest.mark.parametrize(
    "text, at",
    [
        ("(VAR x)(RULES f(x) -> x | x == b)(STRATEGY CONTEXTSENSITIVE (f 1))", (1, 35)),
        ("(VAR x)\n(STRATEGY CONTEXTSENSITIVE (f))\n(RULES f(x) -> x | x == b)", (2, 2)),
        ("(CONDITIONTYPE ORIENTED)(RULES a -> b | c == c)(STRATEGY CONTEXTSENSITIVE)", (1, 49)),
    ],
    ids=["after-rules", "before-rules", "oriented"],
)
def test_conditional_rules_with_a_strategy_are_rejected(text, at):
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    (diag,) = err.value.diagnostics
    assert diag.message == "conditional rules cannot take a STRATEGY section"
    assert (diag.line, diag.col) == at


def test_unconditional_oriented_file_with_a_strategy_is_a_csrs():
    problem = parse_problem("(CONDITIONTYPE ORIENTED)(RULES a -> b)(STRATEGY CONTEXTSENSITIVE)")
    assert problem.kind == "csrs"


def test_semi_equational_rejected():
    with pytest.raises(ParseError) as err:
        parse_problem("(CONDITIONTYPE SEMI-EQUATIONAL)\n(RULES a -> b)")
    assert "SEMI-EQUATIONAL" in err.value.diagnostics[0].message


def test_undeclared_identifier_is_constant():
    problem = parse_problem("(VAR x)\n(RULES f(x) -> y)")
    rule = problem.system.rules[0]
    assert rule.rhs == App(FunSym("y", 0))


def test_declared_rhs_variable_flagged():
    with pytest.raises(ParseError) as err:
        parse_problem("(VAR x y)\n(RULES f(x) -> y)")
    assert "unbound right-hand variables" in err.value.diagnostics[0].message

    with pytest.raises(ValidationError) as verr:
        parse_problem("(CONDITIONTYPE ORIENTED)\n(VAR x y)\n(RULES f(x) -> y)")
    assert verr.value.violations[0].code == "unbound-rhs-var"


def test_arity_conflicts_are_positioned():
    with pytest.raises(ParseError) as err:
        parse_problem("(VAR x y)\n(RULES f(x) -> x\n  f(x,y) -> x)")
    diag = err.value.diagnostics[0]
    assert "arity" in diag.message
    assert diag.line == 3


def test_variable_cannot_be_applied():
    with pytest.raises(ParseError) as err:
        parse_problem("(VAR x)\n(RULES x(a) -> a)")
    assert "cannot take arguments" in err.value.diagnostics[0].message


def test_sig_conflicts_with_use():
    with pytest.raises(ParseError):
        parse_problem("(SIG (f 2))\n(RULES f(a) -> a)")


def test_unknown_section():
    with pytest.raises(ParseError) as err:
        parse_problem("(FROBNICATE yes)")
    assert "unknown section" in err.value.diagnostics[0].message


def test_comment_sections_skipped():
    problem = parse_problem("(COMMENT anything (nested (deep)) goes)\n(RULES a -> b)")
    assert len(problem.system.rules) == 1


def test_roundtrip_corpus():
    for path in sorted(CORPUS.glob("*.ctrs")):
        system = parse_ctrs(path.read_text(), str(path))
        assert parse_ctrs(print_ctrs(system)) == system


def _same_system(a, b) -> bool:
    # Rule ids are re-assigned on parse; compare the mathematical content.
    return (
        a.signature == b.signature
        and [(r.lhs, r.rhs) for r in a.rules] == [(r.lhs, r.rhs) for r in b.rules]
    )


def test_roundtrip_trs_and_csrs(bubble):
    trs = unravel(bubble)
    reparsed = parse_problem(print_trs(trs))
    assert reparsed.kind == "trs"
    assert _same_system(reparsed.system, trs)

    cs = unravel_cs(bubble)
    reparsed_cs = parse_problem(print_csrs(cs))
    assert reparsed_cs.kind == "csrs"
    assert _same_system(reparsed_cs.system, cs)
    assert reparsed_cs.system.mu == cs.mu


def test_unraveled_exports_reparse_to_the_same_symbols():
    for path in sorted(CORPUS.glob("*.ctrs")):
        system = parse_ctrs(path.read_text(), str(path))
        for exported, text in [
            (unravel(system), print_trs(unravel(system))),
            (unravel_cs(system), print_csrs(unravel_cs(system))),
        ]:
            signature = parse_problem(text).signature
            names = [s.name for s in signature]
            assert len(set(names)) == len(names), path.name
            assert [(s.name, s.arity, s.is_usymbol) for s in signature] == [
                (s.name, s.arity, s.is_usymbol) for s in exported.signature
            ], path.name


def test_reparsed_u_symbols_recover_origin(bubble):
    # The name is the one record of a fresh symbol, so a re-parse recovers it.
    reparsed = parse_problem(print_csrs(unravel_cs(bubble)))
    u = [s for s in reparsed.system.signature if s.is_usymbol]
    assert [(s.name, s.arity) for s in u] == [("U1_r4", 4)]


def test_csrs_strategy_defaults_to_full():
    text = "(VAR x)\n(RULES f(f(x)) -> f(x))\n(STRATEGY CONTEXTSENSITIVE (f 1))"
    problem = parse_problem(text)
    assert problem.kind == "csrs"
    f = next(s for s in problem.system.signature if s.name == "f")
    assert problem.system.mu.active_indices(f) == frozenset({1})


def test_strategy_errors():
    with pytest.raises(ParseError) as err:
        parse_problem("(RULES a -> b)\n(STRATEGY CONTEXTSENSITIVE (zzz 1))")
    assert "unknown symbol" in err.value.diagnostics[0].message
    with pytest.raises(ParseError):
        parse_problem("(VAR x)\n(RULES f(x) -> x)\n(STRATEGY CONTEXTSENSITIVE (f 2))")
    with pytest.raises(ParseError):
        parse_problem("(RULES a -> b)\n(STRATEGY INNERMOST)")


def test_duplicate_strategy_entry():
    text = "(VAR x)\n(RULES f(g(x)) -> x)\n(STRATEGY CONTEXTSENSITIVE (f) (f 1))"
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert err.value.diagnostics == [Diagnostic(3, 33, "duplicate strategy entry for 'f'")]


def test_duplicate_strategy_section():
    # A second section would silently replace the first one's map.
    text = (
        "(VAR x)\n(RULES f(g(x)) -> x)\n"
        "(STRATEGY CONTEXTSENSITIVE (f))\n(STRATEGY CONTEXTSENSITIVE (f 1))"
    )
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert err.value.diagnostics == [Diagnostic(4, 2, "duplicate STRATEGY section")]


def test_empty_system_skeleton():
    empty = Trs((), ())
    text = print_trs(empty)
    assert text.splitlines()[0] == "(VAR)"
    assert parse_problem(text).system == empty


def test_parse_term_against_problem(bubble_problem):
    t = parse_term(":(x,:(0,nil))", bubble_problem)
    assert isinstance(t.args[0], Var)
    with pytest.raises(ParseError):
        parse_term("zzz(0)", bubble_problem)  # unknown symbol arity conflict
    with pytest.raises(ParseError):
        parse_term("<(0,0) extra", bubble_problem)
    with pytest.raises(ParseError):
        parse_term("<(0)", bubble_problem)


def test_parse_term_csrs_signature(bubble):
    cs = unravel_cs(bubble)
    problem = parse_problem(print_csrs(cs))
    u_name = next(s.name for s in cs.signature if s.is_usymbol)
    t = parse_term(f"{u_name}(true,0,0,nil)", problem)
    assert not ck.is_original(t)


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_problem("(RULES a -> b) junk")


def test_ctrs_kind_detection():
    assert parse_problem("(RULES a -> b)").kind == "trs"
    assert parse_problem("(CONDITIONTYPE ORIENTED)\n(RULES a -> b)").kind == "ctrs"
    assert parse_problem("(VAR x)\n(RULES f(x) -> x | a == b)").kind == "ctrs"


def test_parse_ctrs_rejects_csrs_files(bubble):
    with pytest.raises(ParseError):
        parse_ctrs(print_csrs(unravel_cs(bubble)))
