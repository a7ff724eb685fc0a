"""Parsers and printers for the classic rewrite-tool file formats.

Input grammar (one s-expression-like section per feature):

    (CONDITIONTYPE ORIENTED)          optional; other tags are rejected
    (VAR x y ys)                      declares variable names
    (SIG (f 2) (nil 0))               optional; declares extra symbols
    (RULES
      f(x,y) -> g(y) | s1 == t1, s2 == t2
    )
    (STRATEGY CONTEXTSENSITIVE (f 1 2) (g))   replacement map, TRS/CSRS only

Identifiers are any delimiter-free words, so infix-looking names like ``<``
or ``:`` are written in prefix application form.  Function arities are
inferred from first use and checked consistent thereafter; identifiers
declared in VAR are variables everywhere.  All printers emit deterministic,
re-parseable text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .ctrs import ConditionalRule, Dctrs, Violation, validate_dctrs
from .terms import App, FunSym, ReplacementMap, Term, Var, term_to_str, vars_of
from .unravel import Csrs, Rule, Trs


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class ValidationError(Exception):
    def __init__(self, violations: Sequence[Violation]):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


@dataclass(frozen=True)
class Token:
    text: str
    line: int
    col: int


_DELIMS = "(),|"
_RESERVED = ("->", "==")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _DELIMS:
            tokens.append(Token(ch, line, col))
            col += 1
            i += 1
            continue
        start, start_col = i, col
        while i < n and not text[i].isspace() and text[i] not in _DELIMS:
            i += 1
            col += 1
        word = text[start:i]
        for part, offset in _split_reserved(word):
            tokens.append(Token(part, line, start_col + offset))
    return tokens


def _split_reserved(word: str) -> list[tuple[str, int]]:
    parts: list[tuple[str, int]] = []
    buf_start = 0
    j = 0
    while j < len(word):
        hit = next((r for r in _RESERVED if word.startswith(r, j)), None)
        if hit is not None:
            if buf_start < j:
                parts.append((word[buf_start:j], buf_start))
            parts.append((hit, j))
            j += len(hit)
            buf_start = j
        else:
            j += 1
    if buf_start < len(word):
        parts.append((word[buf_start:], buf_start))
    return parts


_RAW_RULE = tuple  # (lhs, rhs, conditions) over raw Terms


@dataclass
class ProblemFile:
    """A parsed input file plus the metadata needed to interpret terms."""

    path: str
    kind: str  # "ctrs" | "trs" | "csrs"
    condition_type: str  # "ORIENTED" or the unsupported tag
    declared_vars: list[str]
    system: Union[Dctrs, Trs, Csrs]

    @property
    def signature(self) -> tuple[FunSym, ...]:
        return self.system.signature


_U_NAME = re.compile(r"^U(\d+)_(.+)$")


class _Parser:
    def __init__(self, tokens: list[Token], path: str, known_only: bool = False):
        self.tokens = tokens
        self.path = path
        self.pos = 0
        self.arity: dict[str, int] = {}
        self.variables: set[str] = set()
        self.symbols: dict[tuple[str, int], FunSym] = {}
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
            last = self.tokens[-1] if self.tokens else Token("", 1, 1)
            raise ParseError([Diagnostic(last.line, last.col, "unexpected end of input")])
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
        key = (name, self.arity[name])
        sym = self.symbols.get(key)
        if sym is None:
            sym = FunSym(name, key[1])
            self.symbols[key] = sym
        return sym

    def term(self) -> Term:
        head = self.word("a term")
        nxt = self.peek()
        if nxt is not None and nxt.text == "(":
            if head.text in self.variables:
                raise self.fail(f"variable {head.text!r} cannot take arguments", head)
            self.take()
            args: list[Term] = []
            closing = self.peek()
            if closing is not None and closing.text == ")":
                self.take()
            else:
                args.append(self.term())
                while True:
                    tok = self.take()
                    if tok.text == ")":
                        break
                    if tok.text != ",":
                        raise self.fail(f"expected ',' or ')', found {tok.text!r}", tok)
                    args.append(self.term())
            return App(self.symbol(head.text, len(args), head), tuple(args))
        if head.text in self.variables:
            return Var(head.text)
        return App(self.symbol(head.text, 0, head))

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
            "condition_type": None,
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
                sections["condition_type"] = (tag.text.upper(), tag)
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
                    if not arity_tok.text.isdigit():
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
                    indices: list[int] = []
                    while True:
                        inner = self.take()
                        if inner.text == ")":
                            break
                        if not inner.text.isdigit():
                            raise self.fail(f"expected an index, found {inner.text!r}", inner)
                        indices.append(int(inner.text))
                    entries.append((sym_tok, indices))
                sections["strategy"] = entries
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


def _retag(t: Term, table: dict[FunSym, FunSym]) -> Term:
    if isinstance(t, Var):
        return t
    sym = table.get(t.sym, t.sym)
    return App(sym, tuple(_retag(a, table) for a in t.args))


def _u_retag_table(symbols: Sequence[FunSym]) -> dict[FunSym, FunSym]:
    """Re-attach unraveling origins to symbols named by the documented
    ``U<i>_<rule>`` scheme (only used for TRS/CSRS inputs)."""
    table: dict[FunSym, FunSym] = {}
    for sym in symbols:
        m = _U_NAME.match(sym.name)
        if m and sym.origin is None:
            table[sym] = FunSym(sym.name, sym.arity, origin=(m.group(2), int(m.group(1))))
    return table


def parse_problem(text: str, path: str = "<string>") -> ProblemFile:
    """Parse any of the three supported formats, inferring the kind."""
    parser = _Parser(tokenize(text), path)
    sections = parser.parse()

    condition_type = "ORIENTED"
    if sections["condition_type"] is not None:
        tag, token = sections["condition_type"]
        condition_type = tag
    has_conditions = any(conds for (_, _, conds) in sections["rules"])
    if sections["strategy"] is not None:
        kind = "csrs"
    elif sections["condition_type"] is not None or has_conditions:
        kind = "ctrs"
    else:
        kind = "trs"

    if kind == "ctrs":
        if condition_type != "ORIENTED":
            tag, token = sections["condition_type"]
            raise ParseError(
                [
                    Diagnostic(
                        token.line,
                        token.col,
                        f"unsupported condition type {tag}: only ORIENTED "
                        "(reachability) conditions are handled",
                    )
                ]
            )
        rules = [
            ConditionalRule(f"r{i}", lhs, rhs, conds)
            for i, (lhs, rhs, conds) in enumerate(sections["rules"], start=1)
        ]
        outcome = validate_dctrs(rules, extra_symbols=sections["sig"])
        if isinstance(outcome, list):
            raise ValidationError(outcome)
        return ProblemFile(path, "ctrs", condition_type, sections["vars"], outcome)

    # Unconditional: re-attach unraveling origins by naming convention.
    table = _u_retag_table(list(parser.symbols.values()) + sections["sig"])
    raw_rules = [
        (_retag(lhs, table), _retag(rhs, table)) for (lhs, rhs, _) in sections["rules"]
    ]
    sig_extra = [table.get(s, s) for s in sections["sig"]]
    try:
        rules = [Rule(f"r{i}", lhs, rhs) for i, (lhs, rhs) in enumerate(raw_rules, start=1)]
        trs = Trs.of(rules, extra_symbols=sig_extra)
    except ValueError as err:
        raise ParseError([Diagnostic(1, 1, str(err))]) from None

    if kind == "trs":
        return ProblemFile(path, "trs", condition_type, sections["vars"], trs)

    entries: dict[FunSym, frozenset[int]] = {
        sym: frozenset(range(1, sym.arity + 1)) for sym in trs.signature
    }
    by_name = {sym.name: sym for sym in trs.signature}
    for sym_tok, indices in sections["strategy"]:
        sym = by_name.get(sym_tok.text)
        if sym is None:
            raise ParseError(
                [Diagnostic(sym_tok.line, sym_tok.col, f"strategy entry for unknown symbol {sym_tok.text!r}")]
            )
        if any(not 1 <= i <= sym.arity for i in indices):
            raise ParseError(
                [Diagnostic(sym_tok.line, sym_tok.col, f"strategy indices out of range for {sym.name}/{sym.arity}")]
            )
        entries[sym] = frozenset(indices)
    csrs = Csrs(trs.signature, trs.rules, ReplacementMap(entries))
    return ProblemFile(path, "csrs", condition_type, sections["vars"], csrs)


def parse_ctrs(text: str, path: str = "<string>") -> Dctrs:
    """Parse and validate a conditional system; unconditional files are
    accepted as the degenerate case."""
    return as_dctrs(parse_problem(text, path))


def as_dctrs(problem: ProblemFile) -> Dctrs:
    """The conditional system of a parsed file, validating an unconditional
    one as the degenerate case; a file with a STRATEGY section is rejected."""
    if isinstance(problem.system, Dctrs):
        return problem.system
    if isinstance(problem.system, Csrs):
        raise ParseError(
            [Diagnostic(1, 1, "file carries a STRATEGY section; expected a conditional system")]
        )
    trs = problem.system
    rules = [ConditionalRule(r.id, r.lhs, r.rhs) for r in trs.rules]
    outcome = validate_dctrs(rules, extra_symbols=trs.signature)
    if isinstance(outcome, list):
        raise ValidationError(outcome)
    return outcome


def parse_term(text: str, problem: ProblemFile) -> Term:
    """Parse one term against a loaded file's variables and signature;
    unknown symbols are rejected (arities could not be checked)."""
    parser = _Parser(tokenize(text), problem.path, known_only=True)
    parser.variables = set(problem.declared_vars)
    known = {(s.name, s.arity): s for s in problem.signature}
    parser.arity = {s.name: s.arity for s in problem.signature}
    parser.symbols = dict(known)
    term = parser.term()
    trailing = parser.peek()
    if trailing is not None:
        raise parser.fail(f"trailing input {trailing.text!r}", trailing)
    return term


# ---------------------------------------------------------------------------
# Printers


def _format_rule(lhs: Term, rhs: Term, conditions: Sequence[tuple[Term, Term]] = ()) -> str:
    head = f"{term_to_str(lhs)} -> {term_to_str(rhs)}"
    if not conditions:
        return head
    conds = ", ".join(f"{term_to_str(s)} == {term_to_str(t)}" for s, t in conditions)
    return f"{head} | {conds}"


def _var_block(rules_vars: list[str]) -> str:
    return f"(VAR {' '.join(rules_vars)})" if rules_vars else "(VAR)"


def _sig_block(signature: Sequence[FunSym]) -> str:
    entries = " ".join(f"({s.name} {s.arity})" for s in signature)
    return f"(SIG {entries})" if entries else "(SIG)"


def print_ctrs(system: Dctrs) -> str:
    seen: dict[str, None] = {}
    for rule in system.rules:
        objects = [rule.lhs, rule.rhs]
        for s, t in rule.conditions:
            objects += [s, t]
        for v in vars_of(objects):
            seen.setdefault(v, None)
    lines = []
    if any(r.is_conditional for r in system.rules):
        lines.append("(CONDITIONTYPE ORIENTED)")
    lines.append(_var_block(list(seen)))
    lines.append(_sig_block(system.signature))
    lines.append("(RULES")
    for rule in system.rules:
        lines.append(f"  {_format_rule(rule.lhs, rule.rhs, rule.conditions)}")
    lines.append(")")
    return "\n".join(lines) + "\n"


def _print_unconditional(signature: Sequence[FunSym], rules: Sequence[Rule]) -> list[str]:
    seen: dict[str, None] = {}
    for rule in rules:
        for v in vars_of([rule.lhs, rule.rhs]):
            seen.setdefault(v, None)
    lines = [_var_block(list(seen)), _sig_block(signature), "(RULES"]
    for rule in rules:
        lines.append(f"  {_format_rule(rule.lhs, rule.rhs)}")
    lines.append(")")
    return lines


def print_trs(system: Trs) -> str:
    return "\n".join(_print_unconditional(system.signature, system.rules)) + "\n"


def print_csrs(system: Csrs) -> str:
    lines = _print_unconditional(system.signature, system.rules)
    entries = []
    for sym in system.signature:
        indices = " ".join(str(i) for i in sorted(system.mu.active_indices(sym)))
        entries.append(f"({sym.name} {indices})" if indices else f"({sym.name})")
    lines.append(f"(STRATEGY CONTEXTSENSITIVE {' '.join(entries)})")
    return "\n".join(lines) + "\n"
