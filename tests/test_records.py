"""Behaviour of every record class: construction checks, immutability,
equality and hashing, repr, dict form, pickle and copy."""

from __future__ import annotations

import copy
import pickle

import pytest

import ctrskit as ck
from ctrskit.experiment import ExperimentConfig, ExperimentReport, ExternalTool, SystemRow
from ctrskit.fmt import Token
from ctrskit.records import Record

S = ck.FunSym("s", 1)
ZERO = ck.FunSym("0", 0)
X = ck.Var("x")
zero = ck.App(ZERO)
one = ck.App(S, (zero,))
s_x = ck.App(S, (X,))


def _step() -> ck.ReductionStep:
    return ck.ReductionStep(one, one, (), "r1", {"x": zero}, "mu")


def _reduction() -> ck.Reduction:
    return ck.Reduction(one, (_step(),))


def _trs() -> ck.Trs:
    return ck.Trs((ZERO, S), (ck.ConditionalRule("r1", s_x, X),))


def _obligation() -> ck.ObligationResult:
    return ck.ObligationResult(2, "closed under proper subterms", False, 3, ["a > b"])


def _row() -> SystemRow:
    return SystemRow(
        "less", "less.ctrs", "ok", 2, 1, 3, "YES", {"unravel+lpo": "YES"},
        {"type": "precedence"}, {"tool": "YES"}, None, 0.5,
    )


# Each record class with a builder of one instance; two calls build equal
# records apart.
FROZEN = {
    "Var": lambda: ck.Var("x"),
    "ReplacementMap": lambda: ck.ReplacementMap({S: frozenset({1}), ZERO: frozenset()}),
    "Dctrs": lambda: ck.Dctrs((ZERO, S), (ck.ConditionalRule("r1", s_x, X),)),
    "Fuel": lambda: ck.Fuel(2, 30, 40),
    "Reduction": _reduction,
    "Trs": _trs,
    "Csrs": lambda: ck.Csrs(_trs().signature, _trs().rules, ck.ReplacementMap.full((ZERO, S))),
    "Precedence": lambda: ck.Precedence((S, ZERO)),
}
TUPLES = {
    "ConditionalRule": lambda: ck.ConditionalRule("r1", s_x, X, ((X, zero),)),
    "Violation": lambda: ck.Violation("r1", "determinism", "loose", 2),
    "Diagnostic": lambda: ck.Diagnostic(3, 4, "unexpected end of input"),
    "Token": lambda: Token("f", 1, 2),
    "MuVerdict": lambda: ck.MuVerdict.loop_found(_reduction()),
    "ExternalTool": lambda: ExternalTool("t", "cat {file}", "u", 5.0),
    "PrecedenceCert": lambda: ck.PrecedenceCert(ck.Precedence((S, ZERO))),
    "LoopCert": lambda: ck.LoopCert(_reduction()),
    "BoundsExhausted": lambda: ck.BoundsExhausted(ck.Fuel()),
}
MUTABLE = {
    "ProblemFile": lambda: ck.ProblemFile("p.trs", ["x"], _trs()),
    "ReductionGraph": lambda: ck.ReductionGraph(one, [one], [_step()], {one: 0}, False),
    "ProofOutcome": lambda: ck.ProofOutcome(
        "MAYBE", ck.BoundsExhausted(ck.Fuel()), "bounds", ["note"], {"loop-search": "MAYBE"}
    ),
    "ObligationResult": _obligation,
    "WitnessOrderReport": lambda: ck.WitnessOrderReport(
        [(one, zero)], [_obligation()], True, ["capped"], [{"rule": "r1"}]
    ),
    "ExperimentConfig": lambda: ExperimentConfig(
        ck.Fuel(2, 30, 40), 5, 1, [ExternalTool("t", "cat {file}")]
    ),
    "SystemRow": _row,
    "ExperimentReport": lambda: ExperimentReport([_row()], {"YES": 1}, "note", ck.Fuel(), 1.5),
}
ALL = {**FROZEN, **TUPLES, **MUTABLE}


def test_every_record_class_is_listed():
    assert len(ALL) == 25
    assert all(type(make()).__name__ == name for name, make in ALL.items())


@pytest.mark.parametrize("name", ALL)
def test_equal_when_built_apart(name):
    a, b = ALL[name](), ALL[name]()
    assert a is not b
    assert a == b and not a != b


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_hash_by_fields_and_reject_assignment(name):
    a, b = FROZEN[name](), FROZEN[name]()
    if name in ("ReplacementMap", "Csrs", "Reduction"):
        with pytest.raises(TypeError):  # a dict inside, as a map or a step's substitution
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
    field = type(a).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.note = "x"
    assert a == b


@pytest.mark.parametrize("name", TUPLES)
def test_tuple_records_are_immutable_tuples_of_their_fields(name):
    a = TUPLES[name]()
    assert a == tuple(a) and list(a._asdict()) == list(type(a)._fields)
    with pytest.raises(AttributeError):
        setattr(a, type(a)._fields[0], None)


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_records_are_unhashable_and_assignable(name):
    a, b = MUTABLE[name](), MUTABLE[name]()
    with pytest.raises(TypeError):
        hash(a)
    field = type(a).__slots__[-1]
    setattr(a, field, None)
    assert getattr(a, field) is None
    assert a != b


@pytest.mark.parametrize("name", [*FROZEN, *MUTABLE])
def test_equality_is_type_aware(name):
    a = ALL[name]()
    assert a != a._values()
    assert a != object()


def test_systems_with_the_same_fields_differ_by_type():
    trs = _trs()
    assert ck.Dctrs(trs.signature, trs.rules) != trs
    assert ck.Fuel() != (8, 500, 200)


@pytest.mark.parametrize("name", ALL)
def test_pickle_copy_and_deepcopy_round_trip(name):
    a = ALL[name]()
    for twin in (
        pickle.loads(pickle.dumps(a)),
        copy.copy(a),
        copy.deepcopy(a),
    ):
        assert type(twin) is type(a)
        assert twin == a


def test_copies_keep_interned_terms():
    graph = copy.deepcopy(MUTABLE["ReductionGraph"]())
    assert graph.root is one and graph.nodes[0] is one
    assert pickle.loads(pickle.dumps(X)) == X


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ck.Fuel(max_steps=0), "all fuel bounds must be strictly positive"),
        (lambda: ck.Fuel(0, 1, 1), "all fuel bounds must be strictly positive"),
        (lambda: ck.Precedence((S, ZERO, S)), "precedence lists a symbol twice"),
        # These two ids name the messages of the deleted `Rule` check; `Trs.of`
        # now refuses the same rules with `validate`'s messages.
        pytest.param(
            lambda: ck.Trs.of([ck.ConditionalRule("r1", s_x, ck.Var("y"))]),
            "[unbound-rhs-var] r1: right-hand side uses unbound variables ['y']",
            id="<lambda>-rule r1: unbound right-hand variables ['y']",
        ),
        pytest.param(
            lambda: ck.Trs.of([ck.ConditionalRule("r2", X, zero)]),
            "[variable-lhs] r2: left-hand side is a variable",
            id="<lambda>-rule r2: left-hand side is a variable",
        ),
        (lambda: ck.Reduction(zero, (_step(),)), "reduction steps do not chain"),
        (
            lambda: ck.ProofOutcome("YES", ck.BoundsExhausted(ck.Fuel()), ""),
            "YES verdict with BoundsExhausted",
        ),
        (
            lambda: ck.ReplacementMap({S: frozenset({2})}),
            "replacement entry [2] out of range for s/1",
        ),
        (
            lambda: ck.MuVerdict.loop_found(ck.Reduction(one)),
            "loop witness must end in a repeated term",
        ),
        # The files are processed one after another; no other value is kept.
        (lambda: ExperimentConfig(workers=2), "workers must be 1: 2"),
        (lambda: ck.FunSym("", 0), "function symbol name must be non-empty"),
        (lambda: ck.FunSym("f", -1), "negative arity for 'f'"),
    ],
)
def test_construction_checks_are_unchanged(build, message):
    with pytest.raises((ValueError, ck.ValidationError)) as err:
        build()
    assert str(err.value) == message


def test_trs_of_checks_its_rules_as_validate_does():
    # Only the unraveling names, which an unraveled system bears, are allowed.
    for code, rules in [
        ("unbound-rhs-var", [ck.ConditionalRule("r1", s_x, ck.Var("y"))]),
        ("variable-lhs", [ck.ConditionalRule("r1", X, zero)]),
        ("duplicate-id", [ck.ConditionalRule("r1", s_x, X), ck.ConditionalRule("r1", one, zero)]),
        ("conditional-rule", [ck.ConditionalRule("r1", s_x, X, ((X, zero),))]),
    ]:
        with pytest.raises(ck.ValidationError) as err:
            ck.Trs.of(rules)
        assert [v.code for v in err.value.violations] == [code]
    assert ck.ValidationError is ck.fmt.ValidationError is ck.ctrs.ValidationError
    u_rule = ck.ConditionalRule("r1", s_x, ck.App(ck.FunSym("U1_r1", 1), (X,)))
    trs = ck.Trs.of([u_rule])
    assert (trs.signature, trs.rules) == ((ck.FunSym("U1_r1", 1), S), (u_rule,))


def test_keyword_construction_and_defaults():
    assert ck.Fuel(max_level=3) == ck.Fuel(3, 500, 200)
    assert ck.Fuel() == ck.DEFAULT_FUEL
    config = ExperimentConfig(seed_size=6, workers=1)
    assert (config.fuel, config.seed_size, config.workers, config.external_tools) == (
        ck.DEFAULT_FUEL, 6, 1, []
    )
    assert ExperimentConfig().external_tools is not ExperimentConfig().external_tools
    assert ck.Precedence((S, ZERO)).order == (S, ZERO)
    assert ck.Reduction(one).steps == () and len(ck.Reduction(one)) == 0
    assert ck.ConditionalRule("r1", s_x, X).conditions == ()
    assert ExternalTool(name="t", command="c") == ("t", "c", "ucs", 60.0)
    assert ck.Violation("r1", "c", "m").condition_index is None
    row = SystemRow(system="s", file="s.ctrs", status="ok")
    assert (row.rule_count, row.verdict, row.methods, row.external, row.wall_time) == (
        0, None, {}, {}, 0.0
    )
    outcome = ck.ProofOutcome("MAYBE", ck.BoundsExhausted(ck.Fuel()), "p")
    assert (outcome.diagnostics, outcome.methods) == ([], {})
    graph = ck.ReductionGraph(one)
    assert (graph.nodes, graph.edges, graph.depth, graph.complete) == ([], [], {}, True)
    # A default given as a type is called afresh for each record.
    fresh = [
        (lambda: SystemRow("s", "s.ctrs", "ok"), ("methods", "external")),
        (
            lambda: ck.ProofOutcome("MAYBE", ck.BoundsExhausted(ck.Fuel()), "p"),
            ("diagnostics", "methods"),
        ),
        (lambda: ck.ObligationResult(1, "n", True, 0), ("failures",)),
        (lambda: ck.WitnessOrderReport([], [], False), ("notes", "chain_instances")),
        (lambda: ck.ReductionGraph(one), ("nodes", "edges", "depth")),
    ]
    for build, fields in fresh:
        a, b = build(), build()
        for field in fields:
            assert getattr(a, field) == getattr(b, field)
            assert getattr(a, field) is not getattr(b, field)


def test_repr_names_the_fields_in_order():
    assert repr(ck.Var("x")) == "Var(name='x')"
    assert repr(ck.Fuel()) == "Fuel(max_level=8, max_steps=500, max_term_size=200)"
    assert repr(_obligation()) == (
        "ObligationResult(number=2, name='closed under proper subterms', passed=False, "
        "checked=3, failures=['a > b'])"
    )
    assert repr(ck.Diagnostic(1, 2, "m")) == "Diagnostic(line=1, col=2, message='m')"


def test_dict_forms_keep_the_field_order():
    assert ck.Fuel(2, 30, 40)._asdict() == {"max_level": 2, "max_steps": 30, "max_term_size": 40}
    assert list(_obligation()._asdict()) == ["number", "name", "passed", "checked", "failures"]
    assert list(_row()._asdict()) == [
        "system", "file", "status", "rule_count", "conditional_count", "unraveled_count",
        "verdict", "methods", "certificate", "external", "error", "wall_time",
    ]


def _subclasses(cls: type) -> list[type]:
    return [sub for direct in cls.__subclasses__() for sub in (direct, *_subclasses(direct))]


def test_records_share_the_one_constructor():
    records = _subclasses(Record)
    assert {cls.__name__ for cls in records} >= {*FROZEN, *MUTABLE, "Frozen"}
    assert [cls.__name__ for cls in records if "__init__" in vars(cls)] == []


@pytest.mark.parametrize("name", [*FROZEN, *MUTABLE])
def test_bad_arguments_raise_type_error_naming_the_class(name):
    record = ALL[name]()
    cls, values, names = type(record), record._values(), type(record).__slots__
    fields = dict(zip(names, values))
    required = [field for field in names if field not in cls._defaults]
    assert required or name in ("Fuel", "ExperimentConfig")
    for build in (
        lambda: cls(*values, None),
        lambda: cls(*values, unknown_field=1),
        lambda: cls(*values, **{names[0]: values[0]}),
        *(
            lambda field=field: cls(**{n: v for n, v in fields.items() if n != field})
            for field in required
        ),
    ):
        with pytest.raises(TypeError, match=rf"^{name}\(\) "):
            build()
