"""First-order terms over a signature, plus the traversal primitives the
rest of the toolkit is built on: positions, substitutions, matching, and
replacement-map-aware (active-position) traversal.

Applications are hash-consed: a weak table maps each symbol and argument
tuple to the one live application built from them, so equal terms are the
same object.  Equality and hashing are by identity, which makes dict and set
lookups (loop detection, the engines' caches) cost no walk of the term.  The
table is a plain dict from ``(sym, args)`` to a weak reference to the node
that also holds its key (weak hash-consing: Filliâtre & Conchon, ML Workshop
2006), so terms nobody references are freed.  When a node dies, the
reference's callback deletes its entry with ``_weakref._remove_dead_weakref``,
which does so atomically and only while the entry is still dead; it takes no
lock, since a collection inside the intern lock's section can run it.  An
application computes its size and whether it is original (free of
unraveling symbols) once, at construction, from the same attributes of its
arguments.  Function symbols are interned too, in a weak table keyed by
name and arity, so two symbols are equal exactly when they are the same
object and both symbols and applications hash by identity.  Variables
compare by value.
Positions are 1-indexed integer tuples; the empty tuple is the root.

No function here recurses once per term level.  Matching, substitution,
replacement, printing and every subterm or position walk keep an explicit
stack (the technique of flatterms, Christian, JAR 10, 1993), so terms of any
depth can be walked whatever the interpreter's recursion limit.
"""

from __future__ import annotations

import re
import threading
import weakref
from _weakref import _remove_dead_weakref
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from .records import Frozen

Position = tuple[int, ...]

ROOT: Position = ()


class TermError(Exception):
    """Base class for term-level errors."""


class InvalidPositionError(TermError):
    """Raised when a position does not exist in the given term."""


class MissingReplacementError(TermError):
    """Raised when a replacement map has no entry for a function symbol."""


# The names of the fresh symbols an unraveling introduces: ``U<i>_<rule id>``.
_U_NAME = re.compile(r"U\d+_.+")


class FunSym:
    """A function symbol with a fixed arity.

    Symbols are interned: ``FunSym(name, arity)`` returns the one live
    symbol with that name and arity, so equality and hashing are the
    identity defaults.  A weak table, filled under the intern lock, maps
    each (name, arity) to its symbol.  Symbols are immutable, and copying
    or unpickling one returns the interned symbol.

    ``is_usymbol`` is set from the name, the only record of that fact: true
    exactly for the ``U<i>_<rule>`` names that :func:`default_u_symbol` gives
    the fresh symbols of an unraveling, so those names are reserved.
    """

    __slots__ = ("name", "arity", "is_usymbol", "__weakref__")
    name: str
    arity: int
    is_usymbol: bool

    def __new__(cls, name: str, arity: int) -> "FunSym":
        key = (name, arity)
        sym = _symbols.get(key)
        if sym is not None:
            return sym
        if not name:
            raise ValueError("function symbol name must be non-empty")
        if arity < 0:
            raise ValueError(f"negative arity for {name!r}")
        with _intern_lock:
            sym = _symbols.get(key)
            if sym is None:
                sym = object.__new__(cls)
                object.__setattr__(sym, "name", name)
                object.__setattr__(sym, "arity", arity)
                object.__setattr__(sym, "is_usymbol", _U_NAME.fullmatch(name) is not None)
                _symbols[key] = sym
            return sym

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"FunSym is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"FunSym is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return FunSym, (self.name, self.arity)

    def __repr__(self) -> str:
        return f"FunSym(name={self.name!r}, arity={self.arity!r})"

    def __str__(self) -> str:
        return self.name


def default_u_symbol(rule_id: str, index: int, arity: int) -> FunSym:
    """The documented naming scheme for fresh symbols: ``U<i>_<rule id>``."""
    return FunSym(f"U{index}_{rule_id}", arity)


class Var(Frozen):
    """A variable leaf; variables compare and hash by name."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)

    def __eq__(self, other: object):
        if other.__class__ is Var:
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.name)

    def __str__(self) -> str:
        return self.name


class App:
    """An application ``sym(args...)``; arity is checked on construction.

    Applications are interned: constructing one that equals a live
    application returns that object, so equality and hashing are by
    identity.  A hit is a ``dict.get`` and a call of the stored weak
    reference, without the lock; a miss takes the lock, checks again and
    registers the node.  When the node dies, ``_forget`` drops its entry
    with an atomic C helper instead of under the lock, since a collection
    inside the locked section can run it.  The node count and the original
    flag are computed once, from the arguments' cached values.  Nodes are
    immutable.
    """

    __slots__ = ("sym", "args", "_size", "_original", "__weakref__")
    sym: FunSym
    args: tuple["Term", ...]

    def __new__(cls, sym: FunSym, args: tuple["Term", ...] = ()) -> "App":
        key = (sym, args)
        ref = _interned.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        # Lookup, build and register must be one step: two equal but distinct
        # nodes would break non-linear matching and loop detection.  A dead
        # reference whose callback has not run yet is overwritten.
        with _intern_lock:
            ref = _interned.get(key)
            if ref is not None:
                node = ref()
                if node is not None:
                    return node
            if len(args) != sym.arity:
                raise ValueError(
                    f"{sym.name} has arity {sym.arity}, got {len(args)} arguments"
                )
            size, original = 1, not sym.is_usymbol
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
            ref = _Entry(node, _forget)
            ref.key = key
            _interned[key] = ref
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


class _Entry(weakref.ref):
    """A weak reference to an interned application that records its key."""

    __slots__ = ("key",)


def _forget(ref: _Entry) -> None:
    """Drop the table entry of a dead application.

    A collection triggered inside ``App.__new__``'s locked section can run
    this, so it must not take the lock, which is not reentrant.  Nor may it
    look the entry up and then delete it: in between, another thread may
    register a live node under the key.  ``_remove_dead_weakref`` deletes
    in C, atomically, and only if the entry is still a dead reference.
    """
    _remove_dead_weakref(_interned, ref.key)


# The intern table: (symbol, arguments) -> a weak reference to the live
# application built from them.  Entries vanish with their application.
_interned: dict[tuple, _Entry] = {}
_intern_lock = threading.Lock()
# The symbol table: (name, arity) -> the live symbol with them.
_symbols: "weakref.WeakValueDictionary[tuple[str, int], FunSym]" = weakref.WeakValueDictionary()

Term = Union[Var, App]

# A substitution is a finite map from variable names to terms; application
# is simultaneous and capture-free (first-order terms have no binders).
Subst = Mapping[str, Term]


def term_size(t: Term) -> int:
    """Number of nodes in ``t``."""
    return t._size if t.__class__ is App else 1


def term_to_str(t: Term) -> str:
    """Prefix rendering: ``f(a,b)``, constants and variables bare."""
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
            out.append(node.sym.name + "(")
            todo.append(")")
            for arg in reversed(node.args[1:]):
                todo += [arg, ","]
            todo.append(node.args[0])
    return "".join(out)


def format_position(p: Position) -> str:
    """Dot-separated rendering; the root prints as ``e``."""
    return "e" if not p else ".".join(str(i) for i in p)


def _positions(t: Term, indices: Callable[[FunSym], Iterable[int]]) -> set[Position]:
    """The positions reached from the root by descending through the
    argument indices ``indices(sym)`` names at each application."""
    out: set[Position] = set()
    todo = [(t, ROOT)]
    while todo:
        node, here = todo.pop()
        out.add(here)
        if node.__class__ is App and node.args:  # constants need no entry
            todo += [(node.args[i - 1], here + (i,)) for i in indices(node.sym)]
    return out


def positions(t: Term) -> set[Position]:
    """All valid positions of ``t``, including the root."""
    return _positions(t, lambda sym: range(1, sym.arity + 1))


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
    """``t`` with the subterm at ``p`` replaced by ``u``: one walk down the
    position, then one rebuild of the nodes on it, bottom-up."""
    spine: list[App] = []
    node = t
    for depth, i in enumerate(p):
        if node.__class__ is Var or not 1 <= i <= len(node.args):
            raise InvalidPositionError(
                f"position {format_position(p[depth:])} invalid in {term_to_str(node)}"
            )
        spine.append(node)
        node = node.args[i - 1]
    for node, i in zip(reversed(spine), reversed(p)):
        u = App(node.sym, node.args[: i - 1] + (u,) + node.args[i:])
    return u


def subterms(t: Term) -> Iterator[Term]:
    """Every subterm of ``t`` in left-to-right preorder, ``t`` first; a
    subterm that occurs at several positions is yielded at each."""
    todo = [t]
    while todo:
        node = todo.pop()
        yield node
        if node.__class__ is App:
            todo += reversed(node.args)


def vars_of(objects: Union[Term, Iterable[Term]]) -> list[str]:
    """Variable names in first-occurrence order of a left-to-right,
    depth-first traversal, duplicates suppressed.

    This is the toolkit's one fixed variable order; unraveling and the
    printers rely on it being deterministic.
    """
    if isinstance(objects, (Var, App)):
        objects = [objects]
    return list(
        dict.fromkeys(
            node.name for obj in objects for node in subterms(obj) if node.__class__ is Var
        )
    )


def match(pattern: Term, subject: Term) -> Optional[dict[str, Term]]:
    """First-order matching: a substitution with ``pattern . sigma == subject``,
    or ``None``.  Non-linear patterns require equal bindings.

    Pattern and subject are walked together on one stack; argument pairs are
    pushed in reverse, so variables are bound in left-to-right order.
    """
    binding: dict[str, Term] = {}
    todo = [(pattern, subject)]
    while todo:
        pat, sub = todo.pop()
        if pat.__class__ is Var:
            bound = binding.get(pat.name)
            if bound is None:
                binding[pat.name] = sub
            elif bound != sub:
                return None
        elif sub.__class__ is Var or pat.sym is not sub.sym:
            return None
        elif pat.args:
            todo += zip(reversed(pat.args), reversed(sub.args))
    return binding


Guard = tuple[tuple[int, FunSym], ...]


def arg_guard(pattern: App) -> Guard:
    """The (0-based index, root symbol) of each argument of ``pattern`` that
    is not a variable: the depth-1 level of a discrimination tree."""
    return tuple((i, arg.sym) for i, arg in enumerate(pattern.args) if arg.__class__ is App)


def admits(guard: Guard, args: tuple[Term, ...]) -> bool:
    """False when an argument's root clashes with ``guard``, so that no
    pattern with that guard matches an application with these arguments."""
    for i, sym in guard:
        arg = args[i]
        if arg.__class__ is not App or arg.sym is not sym:
            return False
    return True


def apply_subst(t: Term, sigma: Subst) -> Term:
    """Simultaneous replacement of variables by their images under ``sigma``;
    variables outside the domain stay put.  Images are built bottom-up on a
    stack: an application is visited once to push its arguments and once,
    marked by ``None``, to build its image from theirs."""
    if t.__class__ is Var:
        return sigma.get(t.name, t)
    done: list[Term] = []  # images of the finished subterms, in order
    todo: list = [t]
    while todo:
        node = todo.pop()
        if node is None:
            node = todo.pop()
            n = len(node.args)
            done[-n:] = [App(node.sym, tuple(done[-n:]))]
        elif node.__class__ is Var:
            done.append(sigma.get(node.name, node))
        elif node.args:
            todo += (node, None)
            todo += reversed(node.args)
        else:
            done.append(node)
    return done[0]


class ReplacementMap(Frozen):
    """Maps each function symbol to the argument indices open to rewriting."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[FunSym, frozenset[int]]) -> None:
        object.__setattr__(self, "entries", entries)
        for sym, indices in entries.items():
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
    return _positions(t, mu.active_indices)


def mu_proper_subterms(t: Term, mu: ReplacementMap) -> set[Term]:
    """Subterms of ``t`` at active non-root positions, found in one walk down
    the active indices; a subterm met again is not walked again."""
    out: set[Term] = set()
    todo = [t]
    while todo:
        node = todo.pop()
        if node.__class__ is App and node.args:  # constants need no entry
            for i in mu.active_indices(node.sym):
                arg = node.args[i - 1]
                if arg not in out:
                    out.add(arg)
                    todo.append(arg)
    return out


def is_original(t: Term) -> bool:
    """True iff no unraveling-introduced symbol occurs in ``t``."""
    return t._original if t.__class__ is App else True


def fun_syms(t: Term) -> set[FunSym]:
    """The function symbols occurring in ``t``."""
    return {node.sym for node in subterms(t) if node.__class__ is App}
