"""First-order terms over a signature, plus the traversal primitives the
rest of the toolkit is built on: positions, substitutions, matching, and
replacement-map-aware (active-position) traversal.

Applications are hash-consed: a weak table maps each symbol and argument
tuple to the one live application built from them, so equal terms are the
same object.  Equality and hashing are by identity, which makes dict and set
lookups (loop detection, the engines' caches) cost no walk of the term; the
table holds its entries weakly, so terms nobody references are freed.  An
application computes its size and whether it is original (free of
unraveling symbols) once, at construction, from the same attributes of its
arguments.  Variables and function symbols compare by value; symbols cache
their hash, and since a parsed system shares its symbol objects, every
symbol comparison tests identity first.
Positions are 1-indexed integer tuples; the empty tuple is the root.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

Position = tuple[int, ...]

ROOT: Position = ()


class TermError(Exception):
    """Base class for term-level errors."""


class InvalidPositionError(TermError):
    """Raised when a position does not exist in the given term."""


class MissingReplacementError(TermError):
    """Raised when a replacement map has no entry for a function symbol."""


@dataclass(frozen=True)
class FunSym:
    """A function symbol with a fixed arity.

    ``origin`` is ``None`` for symbols of the original signature and
    ``(rule_id, condition_index)`` for the fresh symbols introduced when a
    conditional rule is unraveled.
    """

    name: str
    arity: int
    origin: Optional[tuple[str, int]] = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("function symbol name must be non-empty")
        if self.arity < 0:
            raise ValueError(f"negative arity for {self.name!r}")
        if self.origin is not None and self.origin[1] < 1:
            raise ValueError(f"condition index must be >= 1, got {self.origin}")
        object.__setattr__(self, "_hash", hash((self.name, self.arity, self.origin)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # As for App: the cached hash is only valid under this process's seed.
        return FunSym, (self.name, self.arity, self.origin)

    @property
    def is_usymbol(self) -> bool:
        return self.origin is not None

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Var:
    """A variable leaf."""

    name: str

    def __reduce__(self):
        # Rebuild from the field, as App does: Python 3.10 cannot unpickle
        # a frozen slotted dataclass by assigning its slots.
        return Var, (self.name,)

    def __str__(self) -> str:
        return self.name


class App:
    """An application ``sym(args...)``; arity is checked on construction.

    Applications are interned: constructing one that equals a live
    application returns that object, so equality and hashing are by
    identity.  The node count and the original flag are computed once, from
    the arguments' cached values.  Nodes are immutable.
    """

    __slots__ = ("sym", "args", "_size", "_original", "__weakref__")
    sym: FunSym
    args: tuple["Term", ...]

    def __new__(cls, sym: FunSym, args: tuple["Term", ...] = ()) -> "App":
        key = (sym, args)
        node = _interned.get(key)
        if node is not None:
            return node
        # Lookup, build and register must be one step: two equal but distinct
        # nodes would break non-linear matching and loop detection.
        with _intern_lock:
            node = _interned.get(key)
            if node is not None:
                return node
            if len(args) != sym.arity:
                raise ValueError(
                    f"{sym.name} has arity {sym.arity}, got {len(args)} arguments"
                )
            size, original = 1, sym.origin is None
            for arg in args:
                if arg.__class__ is App:
                    size += arg._size
                    original = original and arg._original
                else:
                    size += 1
            node = object.__new__(cls)
            object.__setattr__(node, "sym", sym)
            object.__setattr__(node, "args", args)
            object.__setattr__(node, "_size", size)
            object.__setattr__(node, "_original", original)
            _interned[key] = node
            return node

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"App is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"App is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # Rebuild through the constructor, so that unpickled and copied terms
        # are interned in the receiving process.
        return App, (self.sym, self.args)

    def __repr__(self) -> str:
        return f"App(sym={self.sym!r}, args={self.args!r})"

    def __str__(self) -> str:
        return term_to_str(self)


# The intern table: (symbol, arguments) -> the live application built from
# them.  Entries vanish with their application.
_interned: "weakref.WeakValueDictionary[tuple, App]" = weakref.WeakValueDictionary()
_intern_lock = threading.Lock()

Term = Union[Var, App]

# A substitution is a finite map from variable names to terms; application
# is simultaneous and capture-free (first-order terms have no binders).
Subst = Mapping[str, Term]


def term_size(t: Term) -> int:
    """Number of nodes in ``t``."""
    return t._size if t.__class__ is App else 1


def term_to_str(t: Term) -> str:
    """Prefix rendering: ``f(a,b)``, constants and variables bare."""
    return _render(t, infix=False)


def pretty(t: Term) -> str:
    """Human-oriented rendering: binary symbols with non-word names go infix."""
    return _render(t, infix=True)


def _render(t: Term, infix: bool) -> str:
    """The renderers' shared walk, with an explicit stack so that terms of any
    depth print."""
    out: list[str] = []
    todo: list = [t]  # terms still to render and literal text still to emit
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Var):
            out.append(node.name)
        elif not node.args:
            out.append(node.sym.name)
        else:
            name, args = node.sym.name, node.args
            if infix and len(args) == 2 and not name[0].isalnum() and not node.sym.is_usymbol:
                out.append("(")
                todo += [")", args[1], f" {name} ", args[0]]
                continue
            out.append(name + "(")
            todo.append(")")
            for arg in reversed(args[1:]):
                todo += [arg, ","]
            todo.append(args[0])
    return "".join(out)


def format_position(p: Position) -> str:
    """Dot-separated rendering; the root prints as ``e``."""
    return "e" if not p else ".".join(str(i) for i in p)


def positions(t: Term) -> set[Position]:
    """All valid positions of ``t``, including the root."""
    out: set[Position] = set()

    def walk(node: Term, here: Position) -> None:
        out.add(here)
        if isinstance(node, App):
            for i, arg in enumerate(node.args, start=1):
                walk(arg, here + (i,))

    walk(t, ROOT)
    return out


def subterm_at(t: Term, p: Position) -> Term:
    """The subterm of ``t`` rooted at ``p``; the root position is ``t`` itself."""
    node = t
    for depth, i in enumerate(p):
        if isinstance(node, Var) or not 1 <= i <= len(node.args):
            raise InvalidPositionError(
                f"position {format_position(p)} invalid at step {depth + 1} in {term_to_str(t)}"
            )
        node = node.args[i - 1]
    return node


def replace_at(t: Term, p: Position, u: Term) -> Term:
    """``t`` with the subterm at ``p`` replaced by ``u``."""
    if not p:
        return u
    if isinstance(t, Var) or not 1 <= p[0] <= len(t.args):
        raise InvalidPositionError(
            f"position {format_position(p)} invalid in {term_to_str(t)}"
        )
    i = p[0]
    new_args = t.args[: i - 1] + (replace_at(t.args[i - 1], p[1:], u),) + t.args[i:]
    return App(t.sym, new_args)


def vars_of(objects: Union[Term, Iterable[Term]]) -> list[str]:
    """Variable names in first-occurrence order of a left-to-right,
    depth-first traversal, duplicates suppressed.

    This is the toolkit's one fixed variable order; unraveling and the
    printers rely on it being deterministic.
    """
    if isinstance(objects, (Var, App)):
        objects = [objects]
    seen: dict[str, None] = {}

    def walk(node: Term) -> None:
        if isinstance(node, Var):
            seen.setdefault(node.name, None)
        else:
            for arg in node.args:
                walk(arg)

    for obj in objects:
        walk(obj)
    return list(seen)


def match(pattern: Term, subject: Term) -> Optional[dict[str, Term]]:
    """First-order matching: a substitution with ``pattern . sigma == subject``,
    or ``None``.  Non-linear patterns require equal bindings.
    """
    binding: dict[str, Term] = {}

    def walk(pat: Term, sub: Term) -> bool:
        if isinstance(pat, Var):
            bound = binding.get(pat.name)
            if bound is None:
                binding[pat.name] = sub
                return True
            return bound == sub
        if isinstance(sub, Var) or (pat.sym is not sub.sym and pat.sym != sub.sym):
            return False
        return all(walk(p, s) for p, s in zip(pat.args, sub.args))

    return binding if walk(pattern, subject) else None


def apply_subst(t: Term, sigma: Subst) -> Term:
    """Simultaneous replacement of variables by their images under ``sigma``;
    variables outside the domain stay put."""
    if isinstance(t, Var):
        return sigma.get(t.name, t)
    if not t.args:
        return t
    return App(t.sym, tuple(apply_subst(a, sigma) for a in t.args))


@dataclass(frozen=True)
class ReplacementMap:
    """Maps each function symbol to the argument indices open to rewriting."""

    entries: Mapping[FunSym, frozenset[int]]

    def __post_init__(self) -> None:
        for sym, indices in self.entries.items():
            if not indices <= frozenset(range(1, sym.arity + 1)):
                raise ValueError(
                    f"replacement entry {sorted(indices)} out of range for {sym.name}/{sym.arity}"
                )

    def active_indices(self, sym: FunSym) -> frozenset[int]:
        try:
            return self.entries[sym]
        except KeyError:
            raise MissingReplacementError(
                f"no replacement entry for {sym.name}/{sym.arity}"
            ) from None

    @classmethod
    def full(cls, symbols: Iterable[FunSym]) -> "ReplacementMap":
        """All argument positions active: plain rewriting."""
        return cls({s: frozenset(range(1, s.arity + 1)) for s in symbols})


def active_positions(t: Term, mu: ReplacementMap) -> set[Position]:
    """The positions reachable by descending only through active argument
    indices; the root is always active."""
    out: set[Position] = set()

    def walk(node: Term, here: Position) -> None:
        out.add(here)
        if isinstance(node, App) and node.args:
            for i in mu.active_indices(node.sym):
                walk(node.args[i - 1], here + (i,))

    walk(t, ROOT)
    return out


def mu_proper_subterms(t: Term, mu: ReplacementMap) -> set[Term]:
    """Subterms of ``t`` at active non-root positions."""
    return {subterm_at(t, p) for p in active_positions(t, mu) if p}


def is_original(t: Term) -> bool:
    """True iff no unraveling-introduced symbol occurs in ``t``."""
    return t._original if t.__class__ is App else True


def fun_syms(t: Term) -> set[FunSym]:
    """The function symbols occurring in ``t``."""
    out: set[FunSym] = set()

    def walk(node: Term) -> None:
        if isinstance(node, App):
            out.add(node.sym)
            for arg in node.args:
                walk(arg)

    walk(t)
    return out
