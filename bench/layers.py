"""Which library functions the traced run wraps, and the per-layer metrics it reports.

Each metric is listed with the end-to-end metric it should move, and on
which workload, so that a later change can say in advance where its gain
should appear:

- poly.mul / add / diff, poly.mul.term_pairs, poly.max_terms: verdict_s on
  verify-all and base-suites; poly.max_terms also peak_rss_mb.
- poly.evaluate, fields.fields_matrix: verdict_s on verify-all.
- poly.evaluate_seq, control.integrate_extremal (+ .steps): rk4_steps_per_s on
  integrate; flat on verify-all.
- fields.lie_bracket, fields.constant_combination (+ .hit_ratio),
  fields.derived_flag_fields (+ .kept_ratio), linalg.solve_exact (+ .cells):
  verdict_s on verify-all; flat on integrate.
- linalg.mat_rank, mat_rank_kernel, det_cofactor, pfaffian,
  control.svc_membership, control.hamiltonian_lift,
  nullflag.complete_null_flag, nullflag.lambda_to_v: verdict_s on base-suites.
- cartan.build_model, prolong.build_zeta_generators: setup_s if moved into
  import, else verdict_s.  prolong.compute_bracket_table: verdict_s on
  verify-all.
"""

from __future__ import annotations

from typing import Dict


def _mul(tr, args, result) -> None:
    a, b = args
    tr.add("poly.mul.term_pairs", len(a.terms) * len(getattr(b, "terms", (1,))))
    tr.high("poly.max_terms", len(result.terms))


def _size(tr, args, result) -> None:
    tr.high("poly.max_terms", len(result.terms))


def _constant_combination(tr, args, result) -> None:
    tr.add("fields.constant_combination.hits", result is not None)
    # derived_flag_fields tests each nonzero bracket with one direct call
    if tr.parent == "fields.derived_flag_fields":
        tr.add("fields.derived_flag_fields.tried")


def _derived_flag_fields(tr, args, result) -> None:
    tr.add("fields.derived_flag_fields.kept", sum(len(stage) for stage in result[1:]))


def _solve_exact(tr, args, result) -> None:
    rows = args[0]
    tr.add("linalg.solve_exact.cells", len(rows) * (len(rows[0]) if rows else 0))


def _integrate_extremal(tr, args, result) -> None:
    tr.add("control.integrate_extremal.steps", len(result[0].times) - 1)


# (module, qualified name, span name, counter hook); per-layer metrics
# <span name>.calls and <span name>.self_s
LAYERS = [
    ("poly", "MultiPoly.__mul__", "poly.mul", _mul),
    ("poly", "MultiPoly.__add__", "poly.add", _size),
    ("poly", "MultiPoly.diff", "poly.diff", _size),
    ("poly", "MultiPoly.evaluate", "poly.evaluate", None),
    ("poly", "MultiPoly.evaluate_seq", "poly.evaluate_seq", None),
    ("fields", "fields_matrix", "fields.fields_matrix", None),
    ("fields", "lie_bracket", "fields.lie_bracket", None),
    ("fields", "constant_combination", "fields.constant_combination", _constant_combination),
    ("fields", "derived_flag_fields", "fields.derived_flag_fields", _derived_flag_fields),
    ("linalg", "solve_exact", "linalg.solve_exact", _solve_exact),
    ("linalg", "mat_rank", "linalg.mat_rank", None),
    ("linalg", "mat_rank_kernel", "linalg.mat_rank_kernel", None),
    ("linalg", "det_cofactor", "linalg.det_cofactor", None),
    ("linalg", "pfaffian", "linalg.pfaffian", None),
    ("control", "integrate_extremal", "control.integrate_extremal", _integrate_extremal),
    ("control", "svc_membership", "control.svc_membership", None),
    ("control", "hamiltonian_lift", "control.hamiltonian_lift", None),
    ("nullflag", "complete_null_flag", "nullflag.complete_null_flag", None),
    ("nullflag", "lambda_to_v", "nullflag.lambda_to_v", None),
    ("cartan", "build_model", "cartan.build_model", None),
    ("prolong", "build_zeta_generators", "prolong.build_zeta_generators", None),
    ("prolong", "compute_bracket_table", "prolong.compute_bracket_table", None),
]

# per-suite totals: per-layer metric <span name>.s, inclusive seconds
SUITES = [
    ("cartan", "verify_suite", "cartan.verify_suite", None),
    ("control", "verify_suite", "control.verify_suite", None),
    ("nullflag", "verify_suite", "nullflag.verify_suite", None),
    ("prolong", "verify_suite", "prolong.verify_suite", None),
    ("prolong", "verify_growth", "prolong.verify_growth", None),
    ("prolong", "verify_symbol", "prolong.verify_symbol", None),
    ("f4roots", "verify_suite", "f4roots.verify_suite", None),
    ("report", "Report.to_json", "report.to_json", None),
]

TARGETS = LAYERS + SUITES

# per-layer metrics that are not per-function: name -> (unit, better)
EXTRA = {
    "poly.mul.term_pairs": ("count", "lower"),
    "poly.max_terms": ("count", "lower"),
    "control.integrate_extremal.steps": ("count", "higher"),
    "fields.constant_combination.hit_ratio": ("ratio", "higher"),
    "fields.derived_flag_fields.kept_ratio": ("ratio", "higher"),
    "linalg.solve_exact.cells": ("count", "lower"),
    "proc.cpu_s": ("s", "lower"),
    "trace_overhead_s": ("s", "lower"),
    "fail_share": ("ratio", "lower"),
}


def metric_units() -> Dict[str, tuple]:
    """Every per-layer metric name -> (unit, better), in report order."""
    out: Dict[str, tuple] = {}
    for _, _, name, _ in LAYERS:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
    for _, _, name, _ in SUITES:
        out[f"{name}.s"] = ("s", "lower")
    out.update(EXTRA)
    return out


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_values(stats: Dict[str, dict], counters: Dict[str, float]) -> Dict[str, float]:
    """Per-function and counter metrics from one traced pass (stats as the worker reports them)."""
    out: Dict[str, float] = {}
    for _, _, name, _ in LAYERS:
        out[f"{name}.calls"] = stats[name]["calls"]
        out[f"{name}.self_s"] = stats[name]["self_s"]
    for _, _, name, _ in SUITES:
        out[f"{name}.s"] = stats[name]["total_s"]
    for key in ("poly.mul.term_pairs", "poly.max_terms", "control.integrate_extremal.steps",
                "linalg.solve_exact.cells"):
        out[key] = counters.get(key, 0)
    out["fields.constant_combination.hit_ratio"] = _ratio(
        counters.get("fields.constant_combination.hits", 0),
        stats["fields.constant_combination"]["calls"],
    )
    out["fields.derived_flag_fields.kept_ratio"] = _ratio(
        counters.get("fields.derived_flag_fields.kept", 0),
        counters.get("fields.derived_flag_fields.tried", 0),
    )
    return out
