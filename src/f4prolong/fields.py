"""Polynomial vector fields, 1-forms, Lie brackets, derived flags on a single chart."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import Echelon, sparse
from .poly import Chart, ChartMismatchError, MultiPoly

Point = Dict[str, Fraction]


def origin(chart: Chart) -> Point:
    return {v: Fraction(0) for v in chart.variables}


class VectorField:
    """First-order derivation with polynomial components, one per chart variable."""

    __slots__ = ("chart", "components", "name")

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

    def apply(self, scalar: MultiPoly) -> MultiPoly:
        """Directional derivative of a scalar: sum_j comp_j * d(scalar)/dv_j."""
        if scalar.chart != self.chart:
            raise ChartMismatchError("scalar on a different chart")
        out = MultiPoly.zero(self.chart)
        for v, comp in zip(self.chart.variables, self.components):
            if not comp.is_zero():
                out = out + comp * scalar.diff(v)
        return out

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
        label = self.name or "VectorField"
        nz = [
            f"({c})d/d{v}"
            for v, c in zip(self.chart.variables, self.components)
            if not c.is_zero()
        ]
        return f"{label}: " + (" + ".join(nz) if nz else "0")

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
    def differential(cls, chart: Chart, var: str, name: str = "") -> "OneForm":
        """The coordinate differential d(var)."""
        coeffs = [MultiPoly.zero(chart)] * chart.dimension
        coeffs[chart.index(var)] = MultiPoly.constant(chart, 1)
        return cls(chart, coeffs, name or f"d{var}")

    @classmethod
    def from_dict(cls, chart: Chart, coeffs: Dict[str, MultiPoly], name: str = "") -> "OneForm":
        z = MultiPoly.zero(chart)
        return cls(chart, [coeffs.get(v, z) for v in chart.variables], name)

    def to_json(self) -> dict:
        return {
            "chart": list(self.chart.variables),
            "name": self.name,
            "coefficients": [c.to_json() for c in self.coefficients],
        }


def extend_field(f: VectorField, chart: Chart, name: str = "") -> VectorField:
    """Trivial lift of a field to a larger chart (zero on the new variables)."""
    from .poly import extend_poly

    comps = {
        v: extend_poly(c, chart)
        for v, c in zip(f.chart.variables, f.components)
        if not c.is_zero()
    }
    return VectorField.from_dict(chart, comps, name or f.name)


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """Commutator [x, y] of derivations, exact."""
    if x.chart != y.chart:
        raise ChartMismatchError("fields on different charts")
    chart = x.chart
    comps = []
    for k in range(chart.dimension):
        comps.append(x.apply(y.components[k]) - y.apply(x.components[k]))
    return VectorField(chart, comps)


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


def derived_flag_fields(
    d: Distribution, max_depth: int = 16
) -> List[List[VectorField]]:
    """Weak derived flag D^(i+1) = D^(i) + [D, D^(i)] as lists of new fields per stage.

    A candidate bracket is kept only when it is not a rational-constant
    combination of the fields collected so far; this prunes the closure while
    preserving the span (brackets are bilinear over constants).
    """
    stages: List[List[VectorField]] = [list(d.generators)]
    span = FieldSpan(d.generators)
    for _ in range(1, max_depth):
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
