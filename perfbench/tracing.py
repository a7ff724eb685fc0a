"""Spans and counts around ctrskit's public functions, from outside ``src/``.

:class:`Tracer` replaces each function below by a wrapper in every ctrskit
module that holds it (the name is patched where it is looked up, e.g. both
``checker.search_precedence`` and ``experiment.search_precedence``), and
methods on their classes.  A wrapper records a span: name, start, end and
the index of the enclosing span.  Spans stay in memory in flat arrays and
are written out once, at the end of the run.

The hot primitives of ``terms`` and the private ``lpo._lpo3`` get count-only
wrappers: a span per call would cost more than the call.  Their time is in
the self time of the layer that calls them.  A private name that no longer
exists makes its metric missing; it never fails the run.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict

# Layer (module of src/ctrskit) -> public functions and methods given spans.
SPANNED = {
    "fmt": ["parse_ctrs", "parse_problem", "parse_term"],
    "unravel": ["unravel", "unravel_cs", "unravel_rule"],
    "ctrs": [
        "validate_dctrs",
        "ConditionalEngine.all_steps",
        "ConditionalEngine.reachable",
        "ConditionalEngine.condition_solutions",
        "ConditionalEngine.step_at",
    ],
    "csrewrite": [
        "MuEngine.steps",
        "explore",
        "mu_terminating_on_seeds",
        "enumerate_original_terms",
        "find_cycle_path",
    ],
    "lpo": ["search_precedence", "orients", "lpo_greater"],
    "checker": ["validate_witness_order", "check_simulation", "prove_quasi_decreasing"],
    "experiment": ["run_experiment", "ExperimentReport.to_dict"],
    "report": ["to_json", "certificate_dict", "witness_report_dict"],
}
LAYERS = tuple(SPANNED)

# Count-only wrappers: (module, name) -> metric.
COUNTED = {
    ("terms", "match"): "terms.match_calls",
    ("terms", "replace_at"): "terms.replace_at_calls",
    ("terms", "apply_subst"): "terms.apply_subst_calls",
    ("lpo", "_lpo3"): "lpo.lpo3_calls",
}

# Inclusive time of one spanned function (outermost calls only).
INCLUSIVE = {
    "lpo.search_s": "lpo.search_precedence",
    "lpo.orients_s": "lpo.orients",
    "csrewrite.enumerate_s": "csrewrite.enumerate_original_terms",
    "csrewrite.loop_search_s": "csrewrite.mu_terminating_on_seeds",
    "csrewrite.steps_s": "csrewrite.MuEngine.steps",
    "ctrs.all_steps_s": "ctrs.ConditionalEngine.all_steps",
    "ctrs.reachable_s": "ctrs.ConditionalEngine.reachable",
    "ctrs.condition_solutions_s": "ctrs.ConditionalEngine.condition_solutions",
    "checker.check_simulation_s": "checker.check_simulation",
    "fmt.parse_s": "fmt.parse_ctrs",
    "report.to_json_s": "report.to_json",
}
CALLS = {
    "lpo.search_calls": "lpo.search_precedence",
    "csrewrite.explore_calls": "csrewrite.explore",
    "csrewrite.steps_calls": "csrewrite.MuEngine.steps",
    "ctrs.all_steps_calls": "ctrs.ConditionalEngine.all_steps",
}
# Self time of one spanned function: its duration minus its children's.
SELF_OF = {"checker.witness_self_s": "checker.validate_witness_order"}


def _ctrskit_modules():
    return [m for n, m in sys.modules.items() if n == "ctrskit" or n.startswith("ctrskit.")]


class Tracer:
    def __init__(self, ck):
        self.ck = ck
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_ids: array = array("i")
        self.parents: array = array("i")
        self.starts: array = array("q")
        self.ends: array = array("q")
        self.stack = [-1]
        self.counts: dict = defaultdict(int)
        self.missing: dict[str, str] = {}
        self._patches: list = []  # (holder, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = _ctrskit_modules()
        for layer, names in SPANNED.items():
            module = sys.modules[f"ctrskit.{layer}"]
            for name in names:
                owner, attr = _resolve(module, name)
                if owner is None:
                    self.missing[f"{layer}.{name}"] = "not found"
                    continue
                original = owner.__dict__[attr]
                wrapper = self._span_wrapper(f"{layer}.{name}", layer, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                else:
                    self._patch_everywhere(modules, original, wrapper)
        for (layer, name), metric in COUNTED.items():
            original = getattr(sys.modules[f"ctrskit.{layer}"], name, None)
            if original is None:
                self.missing[metric] = f"{layer}.{name} not found"
                continue
            self._patch_everywhere(modules, original, self._count_wrapper(metric, original))
        self._observe_results()

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _patch(self, holder, attr, original, wrapper) -> None:
        self._patches.append((holder, attr, original))
        setattr(holder, attr, wrapper)

    def _patch_everywhere(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, original, wrapper)

    def _span_wrapper(self, name: str, layer: str, fn):
        if name not in self.names:
            self.names.append(name)
            self.layer_of.append(layer)
        name_id = self.names.index(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self.stack
        clock = time.perf_counter_ns

        def wrapped(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        wrapped.__wrapped__ = fn
        return wrapped

    def _count_wrapper(self, metric: str, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    def _observe_results(self) -> None:
        """Counts read off results: wrap the span wrappers once more."""
        ck, counts = self.ck, self.counts

        def observe(holder, attr, hook):
            inner = getattr(holder, attr)

            def wrapped(*args, **kwargs):
                result = inner(*args, **kwargs)
                hook(args, result)
                return result

            self._patch(holder, attr, inner, wrapped)

        def all_steps(args, result):
            counts["ctrs.exhausted"] += bool(result.exhausted)

        def check_simulation(args, result):
            counts["checker.sim_found"] += result.found

        def enumerate_terms(args, result):
            counts["csrewrite.seeds"] += len(result)

        def explore(args, result):
            counts["csrewrite.unknown"] += result[1].outcome == "unknown"

        def witness(args, result):
            counts["checker.graph_nodes"] += result.obligation(1).checked
            counts["checker.sampled_pairs"] += len(result.sampled_pairs)

        observe(ck.ConditionalEngine, "all_steps", all_steps)
        for module in _ctrskit_modules():
            for attr, hook in (
                ("check_simulation", check_simulation),
                ("enumerate_original_terms", enumerate_terms),
                ("explore", explore),
                ("validate_witness_order", witness),
            ):
                if attr in vars(module):
                    observe(module, attr, hook)

        # MuEngine's memo table is private; without it the distinct share is missing.
        steps = ck.MuEngine.steps

        def mu_steps(engine, term):
            cache = getattr(engine, "_cache", None)
            if cache is None:
                counts["csrewrite.no_cache"] += 1
            elif term not in cache:
                counts["csrewrite.steps_distinct"] += 1
            return steps(engine, term)

        self._patch(ck.MuEngine, "steps", steps, mu_steps)

    # -- analysis ---------------------------------------------------------

    def reset(self) -> None:
        for arr in (self.name_ids, self.parents, self.starts, self.ends):
            del arr[:]
        self.counts.clear()

    def metrics(self, wall_ns: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        n = len(self.starts)
        names, parents = self.name_ids, self.parents
        duration = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0] * n
        root_total = 0
        for i in range(n):
            if parents[i] < 0:
                root_total += duration[i]
            else:
                child[parents[i]] += duration[i]

        # Outermost spans per name: walk the pre-order with a path stack.
        inclusive = defaultdict(int)
        calls = defaultdict(int)
        self_by_name = defaultdict(int)
        layer_self = defaultdict(int)
        path: list[int] = []
        on_path = defaultdict(int)
        for i in range(n):
            while path and path[-1] != parents[i]:
                on_path[names[path.pop()]] -= 1
            name = names[i]
            if on_path[name] == 0:
                inclusive[name] += duration[i]
            on_path[name] += 1
            path.append(i)
            calls[name] += 1
            own = duration[i] - child[i]
            self_by_name[name] += own
            layer_self[self.layer_of[name]] += own

        by_name = {name: k for k, name in enumerate(self.names)}

        def of(table, name):
            return table[by_name[name]] if name in by_name else -1

        def seconds(table, name):
            return table[by_name[name]] / 1e9 if name in by_name else -1

        out: dict[str, float] = {}
        for metric, name in INCLUSIVE.items():
            out[metric] = seconds(inclusive, name)
        for metric, name in CALLS.items():
            out[metric] = of(calls, name)
        for metric, name in SELF_OF.items():
            out[metric] = seconds(self_by_name, name)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] / 1e9
        # unravel's functions call no other spanned layer, so its self time
        # is the inclusive time of all unraveling.
        out["unravel.unravel_s"] = out["unravel.self_s"]
        out["bench.self_s"] = (wall_ns - root_total) / 1e9

        c = self.counts
        for metric in COUNTED.values():
            out[metric] = -1 if metric in self.missing else c[metric]
        out["csrewrite.seeds"] = c["csrewrite.seeds"]
        out["checker.graph_nodes"] = c["checker.graph_nodes"]
        out["checker.sampled_pairs"] = c["checker.sampled_pairs"]
        out["csrewrite.unknown_share"] = _share(c["csrewrite.unknown"], out["csrewrite.explore_calls"])
        out["ctrs.exhausted_share"] = _share(c["ctrs.exhausted"], out["ctrs.all_steps_calls"])
        out["checker.sim_found_share"] = _share(
            c["checker.sim_found"], of(calls, "checker.check_simulation")
        )
        if c["csrewrite.no_cache"]:
            self.missing["csrewrite.steps_distinct_share"] = "MuEngine._cache not found"
            out["csrewrite.steps_distinct_share"] = -1
        else:
            out["csrewrite.steps_distinct_share"] = _share(
                c["csrewrite.steps_distinct"], out["csrewrite.steps_calls"]
            )
        return out

    def write(self, path) -> None:
        """The recorded spans as gzip'd TSV: index, parent, name, start, end (ns)."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("index\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.starts)):
                handle.write(
                    f"{i}\t{self.parents[i]}\t{names[self.name_ids[i]]}\t"
                    f"{self.starts[i]}\t{self.ends[i]}\n"
                )


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_share"):
        return "ratio"
    return "count"


def _share(part: int, whole) -> float:
    """0 when nothing was attempted; -1 when the denominator is missing."""
    if whole is None or whole < 0:
        return -1
    return part / whole if whole else 0.0


def _resolve(module, name: str):
    """(owner, attribute) holding ``name`` in ``module``; ``Class.method`` is
    looked up on the class."""
    owner = module
    *path, attr = name.split(".")
    for part in path:
        owner = vars(owner).get(part)
        if owner is None:
            return None, attr
    if attr not in vars(owner):
        return None, attr
    return owner, attr
