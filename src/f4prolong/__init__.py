"""Exact-arithmetic tools for the rank-8 model distribution of type F4.

Constructs the 15-dimensional Cartan model with its rank-8 distribution,
computes the singular-velocity cone and the null-flag prolongation to the
24-dimensional space with its rank-4 distribution, verifies all bracket
tables, matrix identities, growth vectors, and the F4 root correspondence,
and integrates abnormal bi-extremals numerically.
"""

from __future__ import annotations

from .cartan import BASE_VARIABLES, CartanModel, build_model
from .control import (
    ControlVector,
    CovectorFiber,
    form_Q,
    form_R,
    integrate_extremal,
    standard_initial_data,
    svc_membership,
)
from .f4roots import generate_positive_roots, repaired_assignment
from .fields import OneForm, VectorField, lie_bracket
from .nullflag import complete_null_flag, lambda_to_v
from .poly import Chart, MultiPoly
from .prolong import build_zeta_generators, compute_bracket_table, prolonged_chart
from .report import Item, Report

__version__ = "1.0.0"

__all__ = [
    "BASE_VARIABLES",
    "CartanModel",
    "Chart",
    "ControlVector",
    "CovectorFiber",
    "Item",
    "MultiPoly",
    "OneForm",
    "Report",
    "VectorField",
    "build_model",
    "build_zeta_generators",
    "complete_null_flag",
    "compute_bracket_table",
    "form_Q",
    "form_R",
    "generate_positive_roots",
    "integrate_extremal",
    "lambda_to_v",
    "lie_bracket",
    "prolonged_chart",
    "repaired_assignment",
    "standard_initial_data",
    "svc_membership",
]
