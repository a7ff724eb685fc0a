"""JSON and DOT renderings of outcomes, certificates, reports, and graphs.

Every top-level JSON document carries ``format_version`` so downstream
scripts can detect schema changes.  Terms and positions serialize as their
text renderings.
"""

from __future__ import annotations

import json
from typing import Optional

from .checker import (
    BoundsExhausted,
    LoopCert,
    PrecedenceCert,
    ProofOutcome,
    WitnessOrderReport,
)
from .csrewrite import MuVerdict, ReductionGraph
from .ctrs import Reduction, ReductionStep
from .terms import format_position, is_original, term_to_str

FORMAT_VERSION = 1


def step_dict(step: ReductionStep) -> dict:
    out = {
        "source": term_to_str(step.source),
        "target": term_to_str(step.target),
        "position": format_position(step.position),
        "rule": step.rule_id,
        "kind": step.kind,
    }
    if step.level is not None:
        out["level"] = step.level
    return out


def reduction_dict(reduction: Reduction) -> dict:
    return {
        "start": term_to_str(reduction.start),
        "end": term_to_str(reduction.end),
        "length": len(reduction),
        "steps": [step_dict(s) for s in reduction.steps],
    }


def verdict_dict(verdict: MuVerdict) -> dict:
    out: dict = {"outcome": verdict.outcome}
    if verdict.bound is not None:
        out["bound"] = verdict.bound
    if verdict.witness is not None:
        out["witness"] = reduction_dict(verdict.witness)
    if verdict.exhausted_fuel is not None:
        out["fuel"] = verdict.exhausted_fuel._asdict()
    return out


def certificate_dict(cert) -> dict:
    if isinstance(cert, PrecedenceCert):
        return {
            "type": "precedence",
            "order": [s.name for s in cert.precedence.order],
        }
    if isinstance(cert, LoopCert):
        return {
            "type": "loop",
            "seed": term_to_str(cert.seed),
            "loop": reduction_dict(cert.loop),
        }
    if isinstance(cert, BoundsExhausted):
        return {"type": "bounds-exhausted", "fuel": cert.fuel._asdict()}
    raise TypeError(f"unknown certificate {type(cert).__name__}")


def outcome_dict(outcome: ProofOutcome) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "verdict": outcome.verdict,
        "certificate": certificate_dict(outcome.certificate),
        "provenance": outcome.provenance,
        "diagnostics": list(outcome.diagnostics),
        "methods": dict(outcome.methods),
    }


def witness_report_dict(report: WitnessOrderReport) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "ok": report.ok,
        "incomplete": report.incomplete,
        "sampled_pairs": len(report.sampled_pairs),
        "obligations": [ob._asdict() for ob in report.obligations],
        "chain_instances": [
            {
                "rule": inst["rule"],
                "condition_index": inst["condition_index"],
                "lhs_instance": term_to_str(inst["lhs_instance"]),
                "waypoint": term_to_str(inst["waypoint"]),
                "condition_source_instance": term_to_str(inst["condition_source_instance"]),
                "reduction_length": inst["reduction_length"],
            }
            for inst in report.chain_instances
        ],
        "notes": list(report.notes),
    }


def graph_dict(graph: ReductionGraph, verdict: Optional[MuVerdict] = None) -> dict:
    index = {t: i for i, t in enumerate(graph.nodes)}
    out = {
        "format_version": FORMAT_VERSION,
        "root": 0,
        "complete": graph.complete,
        "nodes": [
            {
                "id": i,
                "term": term_to_str(t),
                "original": is_original(t),
                "depth": graph.depth.get(t),
            }
            for t, i in index.items()
        ],
        "edges": [
            {
                "source": index[e.source],
                "target": index[e.target],
                "rule": e.rule_id,
                "position": format_position(e.position),
            }
            for e in graph.edges
        ],
    }
    if verdict is not None:
        out["verdict"] = verdict_dict(verdict)
    return out


def graph_dot(graph: ReductionGraph) -> str:
    index = {t: i for i, t in enumerate(graph.nodes)}
    lines = ["digraph reduction {", "  rankdir=LR;"]
    for t, i in index.items():
        label = term_to_str(t).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for e in graph.edges:
        label = f"{e.rule_id}@{format_position(e.position)}"
        lines.append(f'  n{index[e.source]} -> n{index[e.target]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
