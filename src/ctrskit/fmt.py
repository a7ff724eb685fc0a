"""Parsers and printers for the classic rewrite-tool file formats.

Input grammar (one s-expression-like section per feature):

    (CONDITIONTYPE ORIENTED)          optional; other tags are rejected
    (VAR x y ys)                      declares variable names
    (SIG (f 2) (nil 0))               optional; declares extra symbols
    (RULES
      f(x,y) -> g(y) | s1 == t1, s2 == t2
    )
    (STRATEGY CONTEXTSENSITIVE (f 1 2) (g))   replacement map, TRS/CSRS only

Identifiers are any delimiter-free words, so operator names like ``<``
or ``:`` are written in prefix application form.  Function arities are
inferred from first use and checked consistent thereafter; identifiers
declared in VAR are variables everywhere.  ``U<i>_<rule>`` names denote
unraveling symbols in every format, so a conditional system may not use
them.  Terms may be nested to any depth: the parser keeps the applications
it has opened on an explicit stack.  All printers emit deterministic,
re-parseable text.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Sequence, Union

from .ctrs import ConditionalRule, Dctrs, ValidationError, validate_dctrs
from .records import Record
from .terms import App, FunSym, ReplacementMap, Term, Var, vars_of
from .unravel import Csrs, Trs


class Diagnostic(NamedTuple):
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class Token(NamedTuple):
    text: str
    line: int
    col: int


_DELIMS = "(),|"
_RESERVED = ("->", "==")
# A reserved word, a delimiter, or a run of other non-space characters that
# stops where a reserved word starts.
_TOKEN = re.compile(r"->|==|[(),|]|(?:(?!->|==)[^\s(),|])+")


def tokenize(text: str) -> list[Token]:
    """Tokens with 1-based line and column; only ``\\n`` ends a line."""
    return [
        Token(m.group(), line, m.start() + 1)
        for line, row in enumerate(text.split("\n"), start=1)
        for m in _TOKEN.finditer(row)
    ]


class ProblemFile(Record):
    """A parsed input file plus the metadata needed to interpret terms."""

    __slots__ = ("path", "declared_vars", "system")

    @property
    def kind(self) -> str:
        """``ctrs``, ``trs`` or ``csrs``, after the type of the system."""
        return {Dctrs: "ctrs", Trs: "trs", Csrs: "csrs"}[type(self.system)]

    @property
    def signature(self) -> tuple[FunSym, ...]:
        return self.system.signature


class _Parser:
    def __init__(self, tokens: list[Token], path: str, known_only: bool = False):
        self.tokens = tokens
        self.path = path
        self.pos = 0
        self.arity: dict[str, int] = {}
        self.variables: set[str] = set()
        self.known_only = known_only

    # -- token plumbing ---------------------------------------------------

    def fail(self, message: str, token: Optional[Token] = None) -> "ParseError":
        if token is None:
            token = self.tokens[-1] if self.tokens else Token("", 1, 1)
        return ParseError([Diagnostic(token.line, token.col, message)])

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise self.fail("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.take()
        if tok.text != text:
            raise self.fail(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def word(self, what: str) -> Token:
        tok = self.take()
        if tok.text in _DELIMS or tok.text in _RESERVED:
            raise self.fail(f"expected {what}, found {tok.text!r}", tok)
        return tok

    # -- terms -------------------------------------------------------------

    def symbol(self, name: str, arity: int, token: Token) -> FunSym:
        known = self.arity.get(name)
        if known is None:
            if self.known_only:
                raise self.fail(f"unknown symbol {name!r}", token)
            self.arity[name] = arity
        elif known != arity:
            raise self.fail(
                f"{name!r} used with {arity} arguments but has arity {known}", token
            )
        return FunSym(name, self.arity[name])

    def term(self) -> Term:
        """One term, read on an explicit stack of open applications; each
        symbol's arity is registered as its application closes."""
        open_apps: list[tuple[Token, list[Term]]] = []
        while True:
            head = self.word("a term")
            nxt = self.peek()
            if nxt is not None and nxt.text == "(":
                if head.text in self.variables:
                    raise self.fail(f"variable {head.text!r} cannot take arguments", head)
                self.take()
                closing = self.peek()
                if closing is None or closing.text != ")":
                    open_apps.append((head, []))
                    continue
                self.take()  # ``f()`` is the constant ``f``
            if head.text in self.variables:
                done: Term = Var(head.text)
            else:
                done = App(self.symbol(head.text, 0, head))
            while open_apps:
                head, args = open_apps[-1]
                args.append(done)
                tok = self.take()
                if tok.text == ",":
                    break
                if tok.text != ")":
                    raise self.fail(f"expected ',' or ')', found {tok.text!r}", tok)
                open_apps.pop()
                done = App(self.symbol(head.text, len(args), head), tuple(args))
            if not open_apps:
                return done

    # -- sections ----------------------------------------------------------

    def skip_balanced(self) -> None:
        depth = 1
        while depth:
            tok = self.take()
            if tok.text == "(":
                depth += 1
            elif tok.text == ")":
                depth -= 1

    def parse(self) -> dict:
        sections: dict = {
            "oriented": False,
            "vars": [],
            "sig": [],
            "rules": [],
            "strategy": None,
        }
        while self.peek() is not None:
            self.expect("(")
            keyword = self.take()
            name = keyword.text.upper()
            if name == "COMMENT":
                self.skip_balanced()
            elif name == "CONDITIONTYPE":
                tag = self.word("a condition type")
                if tag.text.upper() != "ORIENTED":
                    raise self.fail(
                        f"unsupported condition type {tag.text.upper()}: only ORIENTED "
                        "(reachability) conditions are handled",
                        tag,
                    )
                sections["oriented"] = True
                self.expect(")")
            elif name == "VAR":
                while True:
                    tok = self.take()
                    if tok.text == ")":
                        break
                    if tok.text in _DELIMS or tok.text in _RESERVED:
                        raise self.fail(f"bad variable name {tok.text!r}", tok)
                    sections["vars"].append(tok.text)
                    self.variables.add(tok.text)
            elif name == "SIG":
                while True:
                    tok = self.take()
                    if tok.text == ")":
                        break
                    if tok.text != "(":
                        raise self.fail(f"expected '(' in SIG, found {tok.text!r}", tok)
                    sym_tok = self.word("a symbol name")
                    arity_tok = self.word("an arity")
                    if not (arity_tok.text.isascii() and arity_tok.text.isdigit()):
                        raise self.fail(f"arity must be a number, found {arity_tok.text!r}", arity_tok)
                    if sym_tok.text in self.variables:
                        raise self.fail(f"{sym_tok.text!r} is declared as a variable", sym_tok)
                    sections["sig"].append(self.symbol(sym_tok.text, int(arity_tok.text), sym_tok))
                    self.expect(")")
            elif name == "RULES":
                while True:
                    nxt = self.peek()
                    if nxt is None:
                        raise self.fail("unclosed RULES section", keyword)
                    if nxt.text == ")":
                        self.take()
                        break
                    sections["rules"].append(self.rule())
            elif name == "STRATEGY":
                if sections["strategy"] is not None:
                    raise self.fail("duplicate STRATEGY section", keyword)
                tag = self.word("a strategy tag")
                if tag.text.upper() != "CONTEXTSENSITIVE":
                    raise self.fail(f"unsupported strategy {tag.text!r}", tag)
                entries: list[tuple[Token, list[int]]] = []
                while True:
                    tok = self.take()
                    if tok.text == ")":
                        break
                    if tok.text != "(":
                        raise self.fail(f"expected '(' in STRATEGY, found {tok.text!r}", tok)
                    sym_tok = self.word("a symbol name")
                    if any(seen.text == sym_tok.text for seen, _ in entries):
                        raise self.fail(f"duplicate strategy entry for {sym_tok.text!r}", sym_tok)
                    indices: list[int] = []
                    while True:
                        inner = self.take()
                        if inner.text == ")":
                            break
                        if not (inner.text.isascii() and inner.text.isdigit()):
                            raise self.fail(f"expected an index, found {inner.text!r}", inner)
                        indices.append(int(inner.text))
                    entries.append((sym_tok, indices))
                sections["strategy"] = (keyword, entries)
            else:
                raise self.fail(f"unknown section {keyword.text!r}", keyword)
        return sections

    def rule(self) -> tuple:
        lhs = self.term()
        self.expect("->")
        rhs = self.term()
        conditions: list[tuple[Term, Term]] = []
        nxt = self.peek()
        if nxt is not None and nxt.text == "|":
            self.take()
            while True:
                cs = self.term()
                self.expect("==")
                ct = self.term()
                conditions.append((cs, ct))
                nxt = self.peek()
                if nxt is not None and nxt.text == ",":
                    self.take()
                    continue
                break
        return (lhs, rhs, tuple(conditions))


def parse_problem(text: str, path: str = "<string>") -> ProblemFile:
    """Parse any of the three supported formats, inferring the kind.  A
    conditional system's rules are checked by :func:`validate_dctrs`, a TRS
    or CSRS file's by :meth:`Trs.of`, which allows the unraveling names."""
    parser = _Parser(tokenize(text), path)
    sections = parser.parse()

    rules = [ConditionalRule(f"r{i}", *rule) for i, rule in enumerate(sections["rules"], start=1)]
    has_conditions = any(rule.conditions for rule in rules)
    strategy = sections["strategy"]
    if strategy is not None and has_conditions:
        raise parser.fail("conditional rules cannot take a STRATEGY section", strategy[0])
    if strategy is None and (sections["oriented"] or has_conditions):
        outcome = validate_dctrs(rules, extra_symbols=sections["sig"])
        if isinstance(outcome, list):
            raise ValidationError(outcome)
        return ProblemFile(path, sections["vars"], outcome)

    trs = Trs.of(rules, extra_symbols=sections["sig"])
    if strategy is None:
        return ProblemFile(path, sections["vars"], trs)

    entries: dict[FunSym, frozenset[int]] = {
        sym: frozenset(range(1, sym.arity + 1)) for sym in trs.signature
    }
    by_name = {sym.name: sym for sym in trs.signature}
    for sym_tok, indices in strategy[1]:
        sym = by_name.get(sym_tok.text)
        if sym is None:
            raise parser.fail(f"strategy entry for unknown symbol {sym_tok.text!r}", sym_tok)
        if any(not 1 <= i <= sym.arity for i in indices):
            raise parser.fail(f"strategy indices out of range for {sym.name}/{sym.arity}", sym_tok)
        entries[sym] = frozenset(indices)
    csrs = Csrs(trs.signature, trs.rules, ReplacementMap(entries))
    return ProblemFile(path, sections["vars"], csrs)


def parse_ctrs(text: str, path: str = "<string>") -> Dctrs:
    """Parse and validate a conditional system, as :func:`as_dctrs` reads it."""
    return as_dctrs(parse_problem(text, path))


def as_dctrs(problem: ProblemFile) -> Dctrs:
    """The conditional system of a parsed file; a TRS, whose rules
    :meth:`Trs.of` has checked, is the degenerate case unless it bears an
    unraveling name, and a file with a STRATEGY section is rejected."""
    system = problem.system
    if isinstance(system, Dctrs):
        return system
    if isinstance(system, Csrs):
        raise ParseError(
            [Diagnostic(1, 1, "file carries a STRATEGY section; expected a conditional system")]
        )
    if any(s.is_usymbol for s in system.signature):
        raise ValidationError(validate_dctrs(system.rules, extra_symbols=system.signature))
    return Dctrs(system.signature, system.rules)


def parse_term(text: str, problem: ProblemFile) -> Term:
    """Parse one term against a loaded file's variables and signature;
    unknown symbols are rejected (arities could not be checked)."""
    parser = _Parser(tokenize(text), problem.path, known_only=True)
    parser.variables = set(problem.declared_vars)
    parser.arity = {s.name: s.arity for s in problem.signature}
    term = parser.term()
    trailing = parser.peek()
    if trailing is not None:
        raise parser.fail(f"trailing input {trailing.text!r}", trailing)
    return term


# ---------------------------------------------------------------------------
# Printers


def _sections(signature: Sequence[FunSym], rules: Sequence[ConditionalRule]) -> list[str]:
    """The VAR, SIG and RULES sections every printer emits."""
    terms: list[Term] = []
    for rule in rules:
        terms += [rule.lhs, rule.rhs]
        for s, t in rule.conditions:
            terms += [s, t]
    return [
        " ".join(["(VAR", *vars_of(terms)]) + ")",
        " ".join(["(SIG", *(f"({s.name} {s.arity})" for s in signature)]) + ")",
        "(RULES",
        *(f"  {rule}" for rule in rules),
        ")",
    ]


def print_ctrs(system: Union[Dctrs, Trs]) -> str:
    """A conditional system, or a TRS: its rules carry no conditions, so it
    is printed without the CONDITIONTYPE header."""
    head = ["(CONDITIONTYPE ORIENTED)"] if any(r.is_conditional for r in system.rules) else []
    return "\n".join(head + _sections(system.signature, system.rules)) + "\n"


def print_csrs(system: Csrs) -> str:
    entries = []
    for sym in system.signature:
        indices = " ".join(str(i) for i in sorted(system.mu.active_indices(sym)))
        entries.append(f"({sym.name} {indices})" if indices else f"({sym.name})")
    strategy = f"(STRATEGY CONTEXTSENSITIVE {' '.join(entries)})"
    return "\n".join(_sections(system.signature, system.rules) + [strategy]) + "\n"
