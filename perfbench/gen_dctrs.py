"""Seeded random deterministic conditional systems, written as .ctrs text.

The shape follows the random systems of the test suite: a fixed 5-symbol
signature (c0, c1, g/1, h/1, f/2), 2-4 rules with a variable-argument
left-hand side, and 0-2 oriented conditions per rule whose targets are either
a fresh variable or a small term over bound variables.  The generator draws
from ``random.Random`` in the same order as the test-suite generator, so a
given seed yields the same systems in both.

Only text leaves this module: ctrskit receives the systems by parsing it.
"""

from __future__ import annotations

import random

SIGNATURE = "(SIG (c0 0) (c1 0) (g 1) (h 1) (f 2))"
_ARITY = {"g": 1, "h": 1, "f": 2}


def _term(rng: random.Random, pool: list[str], size: int) -> str:
    if size <= 1 or rng.random() < 0.35:
        return rng.choice(["c0", "c1"] + pool)
    sym = rng.choice(["g", "h", "f"])
    arity = _ARITY[sym]
    args = [_term(rng, pool, size // arity) for _ in range(arity)]
    return f"{sym}({','.join(args)})"


def random_dctrs(rng: random.Random) -> str:
    """One system as .ctrs text; every rule is deterministic by construction."""
    variables: list[str] = []
    rules: list[str] = []
    for i in range(rng.randint(2, 4)):
        root = rng.choice(["g", "h", "f"])
        lhs_vars = [f"x{j}" for j in range(_ARITY[root])]
        lhs = f"{root}({','.join(lhs_vars)})"
        bound = list(lhs_vars)
        conditions = []
        for j in range(rng.choice([0, 0, 0, 1, 1, 2])):
            source = _term(rng, bound, rng.randint(1, 3))
            if source in bound and rng.random() < 0.5:
                source = f"g({source})"
            if rng.random() < 0.5:
                target = f"e{i}_{j}"
            else:
                target = _term(rng, bound, 2)
            conditions.append(f"{source} == {target}")
            if target == f"e{i}_{j}" or target in bound:
                # A variable target joins the pool even when already bound;
                # the duplicate weights later draws like the test generator.
                bound.append(target)
        rhs = _term(rng, bound, rng.randint(1, 4))
        for name in bound:
            if name not in variables:
                variables.append(name)
        guard = f" | {', '.join(conditions)}" if conditions else ""
        rules.append(f"  {lhs} -> {rhs}{guard}")
    return "\n".join(
        [
            "(CONDITIONTYPE ORIENTED)",
            f"(VAR {' '.join(variables)})",
            SIGNATURE,
            "(RULES",
            *rules,
            ")",
            "",
        ]
    )


def random_systems(seed: int, count: int) -> list[str]:
    """``count`` systems drawn from one generator seeded with ``seed``."""
    rng = random.Random(seed)
    return [random_dctrs(rng) for _ in range(count)]
