import random

import pytest

from conftest import load_system, term_of

import ctrskit as ck
from ctrskit import checker, lpo
from ctrskit.checker import (
    BoundsExhausted,
    CommutationError,
    LoopCert,
    PrecedenceCert,
    ProofOutcome,
    SimulationAlarm,
    check_commutation,
    check_simulation,
    prove_quasi_decreasing,
    validate_witness_order,
)
from ctrskit.ctrs import ConditionalEngine, ConditionalRule, Fuel, dfs, validate_dctrs
from ctrskit.csrewrite import MuEngine, enumerate_original_terms
from ctrskit.fmt import parse_ctrs
from ctrskit.lpo import orients
from ctrskit.terms import App, FunSym, Var, term_to_str
from ctrskit.unravel import unravel, unravel_cs


def test_simulation_of_conditional_step(bubble):
    t = term_of("bubble_sort", ":(0,:(s(0),nil))")
    engine = ConditionalEngine(bubble)
    steps, _ = engine.all_steps(t)
    assert len(steps) == 1
    result = check_simulation(steps[0], unravel_cs(bubble))
    assert result.found and len(result.reduction) == 3
    assert result.reduction.start == t
    assert result.reduction.end == steps[0].target


def test_simulation_of_unconditional_step_is_itself(bubble):
    t = term_of("bubble_sort", "<(0,s(0))")
    engine = ConditionalEngine(bubble)
    steps, _ = engine.all_steps(t)
    result = check_simulation(steps[0], unravel_cs(bubble))
    assert result.found and len(result.reduction) == 1
    only = result.reduction.steps[0]
    assert only.position == steps[0].position
    assert only.target == steps[0].target


def test_simulation_under_active_context(bubble):
    t = term_of("bubble_sort", "s(<(0,s(0)))")
    engine = ConditionalEngine(bubble)
    steps, _ = engine.all_steps(t)
    assert len(steps) == 1 and steps[0].position == (1,)
    result = check_simulation(steps[0], unravel_cs(bubble))
    assert result.found and len(result.reduction) == 1


def test_simulation_alarm_on_bogus_step(bubble):
    # A fabricated "step" between unrelated normal forms must trip the alarm.
    from ctrskit.ctrs import ReductionStep

    bogus = ReductionStep(
        source=term_of("bubble_sort", "true"),
        target=term_of("bubble_sort", "false"),
        position=(),
        rule_id="r1",
        subst={},
    )
    with pytest.raises(SimulationAlarm):
        check_simulation(bogus, unravel_cs(bubble))


def test_simulation_ignores_oversized_steps_after_the_goal():
    text = "(VAR x)\n(RULES\n  a -> b\n  a -> f(f(f(f(b))))\n)\n"
    cs = unravel_cs(ck.parse_ctrs(text))
    first, second = MuEngine(cs).steps(ck.parse_term("a", ck.parse_problem(text)))
    result = check_simulation(first, cs, Fuel(4, 200, 3))
    assert result.found and not result.exhausted
    result = check_simulation(second, cs, Fuel(4, 200, 3))
    assert not result.found and result.exhausted  # its target is over the bound


def test_commutation_examples(bubble):
    cs = unravel_cs(bubble)
    s_ctx = term_of("bubble_sort", "s(<(0,s(0)))")
    t = term_of("bubble_sort", "<(0,s(0))")
    u = term_of("bubble_sort", "true")
    assert check_commutation(s_ctx, t, u, cs) == term_of("bubble_sort", "s(true)")

    u_outer = App(
        next(s for s in cs.signature if s.is_usymbol),
        (t, term_of("bubble_sort", "0"), term_of("bubble_sort", "s(0)"), term_of("bubble_sort", "nil")),
    )
    v = check_commutation(u_outer, t, u, cs)
    assert v.args[0] == u

    with pytest.raises(CommutationError):
        check_commutation(s_ctx, t, term_of("bubble_sort", "false"), cs)
    with pytest.raises(CommutationError):
        check_commutation(s_ctx, term_of("bubble_sort", "nil"), u, cs)


def test_prove_yes_with_revalidating_certificate():
    less = load_system("less")
    outcome = prove_quasi_decreasing(less)
    assert outcome.verdict == "YES"
    assert isinstance(outcome.certificate, PrecedenceCert)
    assert orients(unravel(less), outcome.certificate.precedence)
    assert "quasi-decreasing" in outcome.provenance


def test_prove_no_with_revalidating_loop():
    system = load_system("self_loop")
    outcome = prove_quasi_decreasing(system)
    assert outcome.verdict == "NO"
    assert isinstance(outcome.certificate, LoopCert)
    loop = outcome.certificate.loop
    assert ck.is_original(loop.start)
    terms = loop.terms()
    assert terms[-1] in terms[:-1]
    cs = unravel_cs(system)
    rules = {r.id: r for r in cs.rules}
    for step in loop.steps:
        rule = rules[step.rule_id]
        assert step.check(rule.lhs, rule.rhs)


def test_prove_maybe_on_bubble(bubble):
    outcome = prove_quasi_decreasing(bubble)
    assert outcome.verdict == "MAYBE"
    assert isinstance(outcome.certificate, BoundsExhausted)
    assert any("precedence" in d for d in outcome.diagnostics)


@pytest.mark.parametrize(
    "text, budget, refusal",
    [
        (
            "(CONDITIONTYPE ORIENTED)\n(VAR x y)\n(RULES\n  h("
            + "s(" * 99 + "x" + ")" * 100 + " -> x | " + "f(" * 99 + "x" + ")" * 99 + " == y\n)\n",
            100,
            "search needs more than 100 verdicts (cap 100)",
        ),
        (
            "(VAR x)\n(SIG " + " ".join(f"(c{i} 0)" for i in range(10)) + ")\n(RULES f(x) -> x)\n",
            lpo.MAX_VERDICTS,
            "signature has 11 symbols (cap 10)",
        ),
    ],
    ids=["verdicts", "signature"],
)
def test_a_refused_precedence_search_claims_nothing(monkeypatch, text, budget, refusal):
    # The refusal is recorded as the lpo-note; since the search did not
    # finish, no note says that it cannot orient the system.
    monkeypatch.setattr(lpo, "MAX_VERDICTS", budget)
    outcome = prove_quasi_decreasing(parse_ctrs(text), seed_size=1)
    note = f"{refusal}; delegate to an external prover"
    assert outcome.methods == {"lpo-note": note, "unravel+lpo": "MAYBE", "loop-search": "MAYBE"}
    assert outcome.diagnostics[0] == note
    assert not any("precedence" in line for line in outcome.diagnostics)


def test_verdicts_monotone_across_fuel(bubble):
    smaller = prove_quasi_decreasing(bubble, Fuel(max_level=3, max_steps=60, max_term_size=60), seed_size=3)
    larger = prove_quasi_decreasing(bubble, seed_size=4)
    assert {smaller.verdict, larger.verdict} <= {"MAYBE", "YES", "NO"}
    assert not (smaller.verdict == "YES" and larger.verdict == "NO")
    assert not (smaller.verdict == "NO" and larger.verdict == "YES")
    less = load_system("less")
    assert prove_quasi_decreasing(less, Fuel(2, 50, 50)).verdict == "YES"
    assert prove_quasi_decreasing(less).verdict == "YES"


def test_outcome_certificate_pairing_enforced():
    with pytest.raises(ValueError):
        ProofOutcome("YES", BoundsExhausted(Fuel()), "")


def test_witness_order_bubble_small(bubble):
    seeds = enumerate_original_terms(bubble.signature, 6)
    report = validate_witness_order(bubble, seeds)
    assert report.ok
    assert not report.incomplete
    assert [ob.passed for ob in report.obligations] == [True] * 4
    assert report.obligation(4).checked > 0
    assert report.chain_instances
    assert len(report.sampled_pairs) > 100


def test_combined_graph_looks_up_each_symbols_active_indices_once(bubble, monkeypatch):
    cs = unravel_cs(bubble)
    seeds = enumerate_original_terms(bubble.signature, 5)
    expected = checker._combined_graph(seeds, Fuel(), MuEngine(cs))
    # The reference: each node's active arguments in ascending index order.
    for t, succ in expected[1].items():
        if isinstance(t, App) and t.args:
            active = [t.args[i - 1] for i in sorted(cs.mu.active_indices(t.sym))]
            assert succ[len(succ) - len(active):] == active
    calls = []
    real = ck.ReplacementMap.active_indices
    monkeypatch.setattr(
        ck.ReplacementMap, "active_indices", lambda mu, sym: calls.append(sym) or real(mu, sym)
    )
    assert checker._combined_graph(seeds, Fuel(), MuEngine(cs)) == expected
    assert len(expected[0]) > 900
    assert len(calls) == len(set(calls)) <= len(cs.signature)


def test_witness_order_detects_cycle():
    system = load_system("self_loop")
    seeds = enumerate_original_terms(system.signature, 3)
    report = validate_witness_order(system, seeds)
    assert not report.ok
    ob1 = report.obligation(1)
    assert not ob1.passed
    assert ob1.failures and "a" in ob1.failures[0]


def test_witness_order_passes_over_cycles_of_unraveled_terms_only():
    # f(c) -> U1_r2(g(c),c), whose active argument g(c) rewrites to itself:
    # the depth-first search meets U1_r2(g(c),c) > U1_r2(g(c),c) first, a
    # cycle with no original term, which obligation 1 must pass over.
    system = ck.parse_ctrs("(VAR x) (RULES g(x) -> g(x)  f(x) -> x | g(c) == d)")
    seeds = enumerate_original_terms(system.signature, 2)
    cs = unravel_cs(system)
    nodes, succ, _ = checker._combined_graph(seeds, Fuel(), MuEngine(cs))
    first = dfs(nodes, succ, target=checker._itself).cycle
    assert [term_to_str(t) for t in first] == ["U1_r2(g(c),c)", "U1_r2(g(c),c)"]
    report = validate_witness_order(system, seeds)
    assert report.obligation(1).failures == ["g(c) > g(c)"]
    assert [ob.passed for ob in report.obligations] == [False, True, True, True]


def test_witness_order_vacuous_condition_obligation():
    less = load_system("less")
    seeds = enumerate_original_terms(less.signature, 4)
    report = validate_witness_order(less, seeds)
    assert report.ok
    assert report.obligation(4).checked == 0


def test_witness_order_rejects_non_original_seed(bubble):
    cs = unravel_cs(bubble)
    u = next(s for s in cs.signature if s.is_usymbol)
    bad = App(u, tuple(term_of("bubble_sort", x) for x in ("true", "0", "0", "nil")))
    with pytest.raises(ValueError):
        validate_witness_order(bubble, [bad])


def test_witness_order_multicondition_instances():
    fib = load_system("fib_pairs")
    seeds = enumerate_original_terms(fib.signature, 4)
    report = validate_witness_order(fib, seeds)
    assert report.ok
    indices = {inst["condition_index"] for inst in report.chain_instances}
    assert 1 in indices and 2 in indices


# -- randomized simulation-completeness oracle --------------------------------


def _random_dctrs(rng: random.Random):
    """A small well-formed conditional system over a fixed signature."""
    c0, c1 = FunSym("c0", 0), FunSym("c1", 0)
    g, h = FunSym("g", 1), FunSym("h", 1)
    f = FunSym("f", 2)
    sig = [c0, c1, g, h, f]

    def rnd_term(vars_pool, size):
        if size <= 1 or rng.random() < 0.35:
            choices = [App(c0), App(c1)] + [Var(v) for v in vars_pool]
            return rng.choice(choices)
        sym = rng.choice([g, h, f])
        return App(sym, tuple(rnd_term(vars_pool, size // sym.arity) for _ in range(sym.arity)))

    rules = []
    for i in range(rng.randint(2, 4)):
        root = rng.choice([g, h, f])
        lhs_vars = [f"x{j}" for j in range(root.arity)]
        lhs = App(root, tuple(Var(v) for v in lhs_vars))
        bound = list(lhs_vars)
        conditions = []
        for j in range(rng.choice([0, 0, 0, 1, 1, 2])):
            source = rnd_term(bound, rng.randint(1, 3))
            if isinstance(source, Var) and rng.random() < 0.5:
                source = App(g, (source,))
            fresh = f"e{i}_{j}"
            target = Var(fresh) if rng.random() < 0.5 else rnd_term(bound, 2)
            conditions.append((source, target))
            if isinstance(target, Var):
                bound.append(target.name)
        rhs = rnd_term(bound, rng.randint(1, 4))
        rules.append(ConditionalRule(f"r{i + 1}", lhs, rhs, tuple(conditions)))
    outcome = validate_dctrs(rules, extra_symbols=sig)
    assert not isinstance(outcome, list), outcome
    return outcome


def test_simulation_completeness_on_random_systems():
    rng = random.Random(2024)
    fuel = Fuel(max_level=4, max_steps=200, max_term_size=60)
    total_steps = 0
    for _ in range(12):
        system = _random_dctrs(rng)
        engine = ConditionalEngine(system, fuel)
        cs = unravel_cs(system)
        mu_engine = MuEngine(cs)
        for seed in enumerate_original_terms(system.signature, 3):
            steps, _ = engine.all_steps(seed)
            for step in steps[:6]:
                total_steps += 1
                result = check_simulation(step, cs, fuel, engine=mu_engine)
                # Fuel may run out; a saturated search without a simulation
                # would have raised SimulationAlarm.
                assert result.found or result.exhausted
    assert total_steps > 100
