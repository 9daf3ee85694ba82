"""Polynomial vector fields, 1-forms, Lie brackets, derived flags on a single chart."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import Echelon, sparse
from .poly import Chart, ChartMismatchError, MultiPoly

Point = Dict[str, Fraction]
Terms = Dict[tuple, Fraction]
# a field's nonzero components {k: terms of comp_k}, and for each k the
# nonzero partials ((j, terms of d comp_k / d v_j), ...) over the support of comp_k
Jacobian = Tuple[Dict[int, Terms], List[Tuple[Tuple[int, Terms], ...]]]


def origin(chart: Chart) -> Point:
    return {v: Fraction(0) for v in chart.variables}


class VectorField:
    """First-order derivation with polynomial components, one per chart variable."""

    __slots__ = ("chart", "components", "name", "_jacobian")  # _jacobian: set by jacobian()

    def __init__(self, chart: Chart, components: Sequence[MultiPoly], name: str = ""):
        components = tuple(components)
        if len(components) != chart.dimension:
            raise ValueError("component count != chart dimension")
        for c in components:
            if c.chart != chart:
                raise ChartMismatchError("component on a different chart")
        self.chart = chart
        self.components = components
        self.name = name

    @classmethod
    def zero(cls, chart: Chart) -> "VectorField":
        z = MultiPoly.zero(chart)
        return cls(chart, [z] * chart.dimension)

    @classmethod
    def coordinate(cls, chart: Chart, var: str, name: str = "") -> "VectorField":
        """The coordinate field d/d(var)."""
        comps = [MultiPoly.zero(chart)] * chart.dimension
        comps[chart.index(var)] = MultiPoly.constant(chart, 1)
        return cls(chart, comps, name or f"d/d{var}")

    @classmethod
    def from_dict(cls, chart: Chart, comps: Dict[str, MultiPoly], name: str = "") -> "VectorField":
        z = MultiPoly.zero(chart)
        return cls(chart, [comps.get(v, z) for v in chart.variables], name)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def jacobian(self) -> Jacobian:
        """The nonzero components and their nonzero partials, built by
        `build_jacobian` on the first call and kept."""
        try:
            return self._jacobian
        except AttributeError:
            self._jacobian = build_jacobian(self)
            return self._jacobian

    def evaluate(self, point: Point) -> Tuple[Fraction, ...]:
        return tuple(c.evaluate(point) for c in self.components)

    def __add__(self, other: "VectorField") -> "VectorField":
        if self.chart != other.chart:
            raise ChartMismatchError("fields on different charts")
        return VectorField(
            self.chart, [a + b for a, b in zip(self.components, other.components)]
        )

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, [-c for c in self.components])

    def __mul__(self, scalar) -> "VectorField":
        return VectorField(self.chart, [c * scalar for c in self.components])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VectorField)
            and self.chart == other.chart
            and self.components == other.components
        )

    def __repr__(self) -> str:
        return _display(self.name or "VectorField", self.chart, self.components, "d/d")

    def to_json(self) -> dict:
        return {
            "chart": list(self.chart.variables),
            "name": self.name,
            "components": [c.to_json() for c in self.components],
        }


class OneForm:
    """Differential 1-form with polynomial coefficients, one per chart variable."""

    __slots__ = ("chart", "coefficients", "name")

    def __init__(self, chart: Chart, coefficients: Sequence[MultiPoly], name: str = ""):
        coefficients = tuple(coefficients)
        if len(coefficients) != chart.dimension:
            raise ValueError("coefficient count != chart dimension")
        for c in coefficients:
            if c.chart != chart:
                raise ChartMismatchError("coefficient on a different chart")
        self.chart = chart
        self.coefficients = coefficients
        self.name = name

    @classmethod
    def differential(cls, chart: Chart, var: str) -> "OneForm":
        """The coordinate differential d(var)."""
        coeffs = [MultiPoly.zero(chart)] * chart.dimension
        coeffs[chart.index(var)] = MultiPoly.constant(chart, 1)
        return cls(chart, coeffs, f"d{var}")

    @classmethod
    def from_dict(cls, chart: Chart, coeffs: Dict[str, MultiPoly], name: str = "") -> "OneForm":
        z = MultiPoly.zero(chart)
        return cls(chart, [coeffs.get(v, z) for v in chart.variables], name)

    def __repr__(self) -> str:
        return _display(self.name or "OneForm", self.chart, self.coefficients, "d")

    def to_json(self) -> dict:
        return {
            "chart": list(self.chart.variables),
            "name": self.name,
            "coefficients": [c.to_json() for c in self.coefficients],
        }


def _display(label: str, chart: Chart, polys: Sequence[MultiPoly], basis: str) -> str:
    """`label: (c)<basis>v + ...` over the nonzero polys, or `label: 0`."""
    nz = [f"({c}){basis}{v}" for v, c in zip(chart.variables, polys) if not c.is_zero()]
    return f"{label}: " + (" + ".join(nz) if nz else "0")


def extend_field(f: VectorField, chart: Chart) -> VectorField:
    """Trivial lift of a field to a larger chart (zero on the new variables)."""
    from .poly import extend_poly

    comps = {
        v: extend_poly(c, chart)
        for v, c in zip(f.chart.variables, f.components)
        if not c.is_zero()
    }
    return VectorField.from_dict(chart, comps, f.name)


def build_jacobian(f: VectorField) -> Jacobian:
    """The nonzero components of f and, for each component, its partials in
    the variables that it depends on, dropping the zero ones."""
    variables = f.chart.variables
    nonzero: Dict[int, Terms] = {}
    partials: List[Tuple[Tuple[int, Terms], ...]] = []
    for k, comp in enumerate(f.components):
        if not comp.is_zero():
            nonzero[k] = comp.terms
        support = sorted({j for e in comp.terms for j, p in enumerate(e) if p})
        partials.append(tuple((j, comp.diff(variables[j]).terms) for j in support))
    return nonzero, partials


def _add_products(acc: Terms, coeffs: Dict[int, Terms], partials, sign: int) -> None:
    """acc += sign * sum_j coeffs_j * partial_j, over the j in both, term by term."""
    for j, d in partials:
        a = coeffs.get(j)
        if a is None:
            continue
        for e1, c1 in a.items():
            c1 = sign * c1
            for e2, c2 in d.items():
                e = tuple(map(add, e1, e2))
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                else:
                    del acc[e]


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """Commutator [x, y]_k = sum_j x_j d_j y_k - y_j d_j x_k of derivations,
    exact, from the cached Jacobians: only nonzero partials are multiplied."""
    if x.chart != y.chart:
        raise ChartMismatchError("fields on different charts")
    chart = x.chart
    x_nonzero, x_partials = x.jacobian()
    y_nonzero, y_partials = y.jacobian()
    comps = []
    for k in range(chart.dimension):
        acc: Terms = {}
        _add_products(acc, x_nonzero, y_partials[k], 1)
        _add_products(acc, y_nonzero, x_partials[k], -1)
        comps.append(MultiPoly._trusted(chart, acc))
    out = VectorField.__new__(VectorField)
    out.chart = chart
    out.components = tuple(comps)
    out.name = ""
    return out


def pair(form: OneForm, field: VectorField) -> MultiPoly:
    """Natural pairing <form, field> = sum_i coeff_i * component_i."""
    if form.chart != field.chart:
        raise ChartMismatchError("form and field on different charts")
    out = MultiPoly.zero(form.chart)
    for a, b in zip(form.coefficients, field.components):
        if not (a.is_zero() or b.is_zero()):
            out = out + a * b
    return out


@dataclass(frozen=True)
class Distribution:
    chart: Chart
    generators: Tuple[VectorField, ...]

    def __init__(self, chart: Chart, generators: Sequence[VectorField]):
        generators = tuple(generators)
        if not generators:
            raise ValueError("distribution needs at least one generator")
        for g in generators:
            if g.chart != chart:
                raise ChartMismatchError("generator on a different chart")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "generators", generators)

    @cached_property
    def flag(self) -> List[List[VectorField]]:
        """The weak derived flag as new fields per stage, computed on first use."""
        return derived_flag_fields(self)


@dataclass(frozen=True)
class GrowthVector:
    ranks: Tuple[int, ...]
    base_point: Tuple[Fraction, ...]

    def __post_init__(self):
        rs = self.ranks
        if any(rs[i] > rs[i + 1] for i in range(len(rs) - 1)):
            raise ValueError("growth vector must be non-decreasing")


def fields_matrix(fields: Sequence[VectorField], point: Point) -> List[List[Fraction]]:
    return [list(f.evaluate(point)) for f in fields]


class FieldSpan:
    """The span over rational constants of the fields added so far: one
    incremental echelon of their (component index, monomial) coefficients."""

    def __init__(self, fields: Sequence[VectorField] = ()):
        self._echelon = Echelon()
        for f in fields:
            self.add(f)

    @staticmethod
    def _coefficients(field: VectorField) -> Dict[tuple, Fraction]:
        return {
            (k, e): c for k, comp in enumerate(field.components) for e, c in comp.terms.items()
        }

    def add(self, field: VectorField) -> bool:
        """Add the field; True iff it is not a constant combination of the
        fields added before it."""
        return self._echelon.add(self._coefficients(field))

    def combination(self, field: VectorField) -> Optional[List[Fraction]]:
        """Exact rational constants c with field = sum c_i added_i, else None."""
        return self._echelon.combination(self._coefficients(field))


def constant_combination(
    field: VectorField, basis: Sequence[VectorField]
) -> Optional[List[Fraction]]:
    """Exact rational constants c with field = sum c_i basis_i, else None."""
    return FieldSpan(basis).combination(field)


MAX_FLAG_DEPTH = 16  # stages of the derived flag before it stops growing


def derived_flag_fields(d: Distribution) -> List[List[VectorField]]:
    """Weak derived flag D^(i+1) = D^(i) + [D, D^(i)] as lists of new fields per stage.

    A candidate bracket is kept only when it is not a rational-constant
    combination of the fields collected so far; this prunes the closure while
    preserving the span (brackets are bilinear over constants).
    """
    stages: List[List[VectorField]] = [list(d.generators)]
    span = FieldSpan(d.generators)
    for _ in range(1, MAX_FLAG_DEPTH):
        new: List[VectorField] = []
        for g in d.generators:
            for f in stages[-1]:
                br = lie_bracket(g, f)
                if not br.is_zero() and span.add(br):
                    new.append(br)
        if not new:
            break
        stages.append(new)
    return stages


def derived_flag(d: Distribution, point: Point) -> GrowthVector:
    """Pointwise growth vector of the weak derived flag at the point: the
    stage ranks of its values there, until they stop growing."""
    span = Echelon()
    ranks: List[int] = []
    for stage in d.flag:
        for row in fields_matrix(stage, point):
            span.add(sparse(row))
        if ranks and span.rank == ranks[-1]:
            break
        ranks.append(span.rank)
    base = tuple(point[v] for v in d.chart.variables)
    return GrowthVector(tuple(ranks), base)
