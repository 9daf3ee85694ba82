"""Polynomial vector fields, 1-forms, Lie brackets, derived flags on a single chart.

Brackets and frame coordinates multiply int numerators through `poly.mul_add`,
the one product kernel, which `MultiPoly.__mul__` uses too, and divide each
output term once; nothing here reads an exponent vector.
A read-only `Frame` of labelled fields writes a field in its coordinates by
its `TriangularFrame`; a frame whose brackets have constant coordinates closes
its derived flag over those constants alone, in a `StructureTable`."""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from .linalg import Echelon, integer_vector
from .poly import Chart, ChartMismatchError, MultiPoly, Scalar, extend_poly, mul_add

Point = Dict[str, Fraction]
Terms = Dict[int, Scalar]  # monomial -> nonzero int, or Fraction when not integral
Numerators = Dict[int, int]  # monomial -> nonzero int, over a denominator kept beside it
# a field's lcm d of denominators, its nonzero components times d {k: comp_k},
# and for each k the nonzero partials ((j, d comp_k / d v_j), ...) over its support
Jacobian = Tuple[int, Dict[int, Numerators], List[Tuple[Tuple[int, Numerators], ...]]]


def origin(chart: Chart) -> Point:
    return {v: Fraction(0) for v in chart.variables}


class _ChartPolys:
    """One polynomial per chart variable: the body that VectorField and OneForm
    share. `_noun` names an entry in error texts and, plural, the JSON key;
    `_basis` prefixes a variable in the display."""

    __slots__ = ("chart", "components", "name")
    _noun = "component"
    _basis = "d/d"

    def __init__(self, chart: Chart, components: Sequence[MultiPoly], name: str = ""):
        components = tuple(components)
        if len(components) != chart.dimension:
            raise ValueError(f"{self._noun} count != chart dimension")
        for c in components:
            if c.chart != chart:
                raise ChartMismatchError(f"{self._noun} on a different chart")
        self.chart = chart
        self.components = components
        self.name = name

    @classmethod
    def _unit(cls, chart: Chart, var: str, name: str):
        """The one whose only nonzero entry is the constant 1 at var."""
        comps = [MultiPoly.zero(chart)] * chart.dimension
        comps[chart.index(var)] = MultiPoly.constant(chart, 1)
        return cls(chart, comps, name)

    @classmethod
    def from_dict(cls, chart: Chart, comps: Dict[str, MultiPoly], name: str = ""):
        z = MultiPoly.zero(chart)
        return cls(chart, [comps.get(v, z) for v in chart.variables], name)

    def __repr__(self) -> str:
        """`name: (c)<basis>v + ...` over the nonzero entries, or `name: 0`."""
        nz = [
            f"({c}){self._basis}{v}"
            for v, c in zip(self.chart.variables, self.components)
            if not c.is_zero()
        ]
        return f"{self.name or type(self).__name__}: " + (" + ".join(nz) if nz else "0")

    def to_json(self) -> dict:
        return {
            "chart": list(self.chart.variables),
            "name": self.name,
            f"{self._noun}s": [c.to_json() for c in self.components],
        }


class VectorField(_ChartPolys):
    """First-order derivation with polynomial components, one per chart variable."""

    __slots__ = ("_jacobian",)  # set by jacobian()

    @classmethod
    def zero(cls, chart: Chart) -> "VectorField":
        z = MultiPoly.zero(chart)
        return cls(chart, [z] * chart.dimension)

    @classmethod
    def coordinate(cls, chart: Chart, var: str, name: str = "") -> "VectorField":
        """The coordinate field d/d(var)."""
        return cls._unit(chart, var, name or f"d/d{var}")

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
        if type(other) is not VectorField:
            return NotImplemented
        if self.chart != other.chart:
            raise ChartMismatchError("fields on different charts")
        return VectorField(
            self.chart, [a + b for a, b in zip(self.components, other.components)]
        )

    def __sub__(self, other: "VectorField") -> "VectorField":
        if type(other) is not VectorField:
            return NotImplemented
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


class OneForm(_ChartPolys):
    """Differential 1-form with polynomial coefficients, one per chart variable."""

    __slots__ = ()
    _noun = "coefficient"
    _basis = "d"

    @classmethod
    def differential(cls, chart: Chart, var: str) -> "OneForm":
        """The coordinate differential d(var)."""
        return cls._unit(chart, var, f"d{var}")


def extend_field(f: VectorField, chart: Chart) -> VectorField:
    """Trivial lift of a field to a larger chart (zero on the new variables)."""
    comps = {
        v: extend_poly(c, chart)
        for v, c in zip(f.chart.variables, f.components)
        if not c.is_zero()
    }
    return VectorField.from_dict(chart, comps, f.name)


def _cleared(*maps: Terms) -> tuple:
    """The lcm d of the denominators in the term maps, then each map times d."""
    ints, d = integer_vector([c for terms in maps for c in terms.values()])
    numerators = iter(ints)
    return (d, *(dict(zip(terms, numerators)) for terms in maps))


def _over(d: int, numerators: Numerators) -> Terms:
    """The term map numerators / d, a quotient kept as an int when it is one."""
    return numerators if d == 1 else {e: Fraction(n, d) if n % d else n // d for e, n in numerators.items()}


def build_jacobian(f: VectorField) -> Jacobian:
    """The lcm d of the denominators of f, its nonzero components times d and,
    for each component, its partials times d in the variables that it depends
    on, dropping the zero ones: int coefficients throughout."""
    nonzero = {k: c for k, c in enumerate(f.components) if c.terms}
    d, *terms = _cleared(*(c.terms for c in nonzero.values()))
    if d != 1:  # at d == 1 the components are ints, their partials cached on them
        nonzero = {k: MultiPoly._trusted(f.chart, t) for k, t in zip(nonzero, terms)}
    partials = [tuple(nonzero[k].partials().items()) if k in nonzero else () for k in range(f.chart.dimension)]
    return d, {k: c.terms for k, c in nonzero.items()}, partials


def _add_products(acc: Numerators, coeffs: Dict[int, Numerators], partials, sign: int) -> None:
    """acc += sign * sum_j coeffs_j * partial_j, over the j in both."""
    for j, d in partials:
        mul_add(acc, coeffs.get(j, {}), d, sign)


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """Commutator [x, y]_k = sum_j x_j d_j y_k - y_j d_j x_k of derivations,
    exact, from the cached Jacobians: only nonzero partials are multiplied, as
    ints scaled by d_x * d_y; a scale cancels and orders terms as rationals do."""
    if x.chart != y.chart:
        raise ChartMismatchError("fields on different charts")
    chart = x.chart
    x_d, x_nonzero, x_partials = x.jacobian()
    y_d, y_nonzero, y_partials = y.jacobian()
    d = x_d * y_d
    comps = []
    for k in range(chart.dimension):
        acc: Numerators = {}
        _add_products(acc, x_nonzero, y_partials[k], 1)
        _add_products(acc, y_nonzero, x_partials[k], -1)
        comps.append(MultiPoly._trusted(chart, acc if d == 1 else _over(d, acc)))
    out = VectorField.__new__(VectorField)
    out.chart = chart
    out.components = tuple(comps)
    out.name = ""
    return out


def pair(form: OneForm, field: VectorField) -> MultiPoly:
    """Natural pairing <form, field> = sum_i coeff_i * component_i."""
    if form.chart != field.chart:
        raise ChartMismatchError("form and field on different charts")
    acc: Terms = {}
    for a, b in zip(form.components, field.components):
        if a.terms and b.terms:
            mul_add(acc, a.terms, b.terms)
    return MultiPoly._trusted(form.chart, acc)


class TriangularFrame:
    """Labelled fields, listed in the order of their coordinates, triangular
    with constant pivots in lead order (`order`, by default the same): each
    vanishes on the earlier leads, and its lead is its first nonzero constant
    component off them. As many as the chart has variables are a frame at
    every point. Raises ValueError naming the first field that breaks this."""

    def __init__(self, fields: Mapping[Hashable, VectorField], order: Sequence[Hashable] = ()):
        self.labels = tuple(fields)
        self.chart = fields[self.labels[0]].chart
        self._rows = []  # (label, lead, pivot p / q as (p, q), d, {k: d * its other nonzero components})
        owner: Dict[int, Hashable] = {}  # lead -> label
        for label in order or self.labels:
            comps = fields[label].components
            for lead, earlier in owner.items():
                if comps[lead].terms:
                    raise ValueError(f"{label} is {comps[lead]} on the lead of {earlier}")
            lead = next((n for n, c in enumerate(comps) if n not in owner and c.terms and c.is_constant()), None)
            if lead is None:
                raise ValueError(f"{label} has no nonzero constant component off the earlier leads")
            owner[lead] = label
            others = {k: c.terms for k, c in enumerate(comps) if c.terms and k != lead}
            d, *numerators = _cleared(*others.values())
            pivot = comps[lead].constant_value().as_integer_ratio()
            self._rows.append((label, lead, pivot, d, dict(zip(others, numerators))))

    def coordinates(self, v: VectorField) -> Dict[Hashable, MultiPoly]:
        """The polynomial coordinates of v, the zero ones dropped, by forward
        substitution on the leads over nonzero components only: each remaining
        component is int numerators over one nonzero denominator, rescaled only
        when a row needs a multiple of it, and each coordinate is divided once.
        Raises ValueError with the remainder when v is not in the span."""
        if v.chart != self.chart:
            raise ChartMismatchError("field and frame on different charts")
        rest = {k: _cleared(c.terms) for k, c in enumerate(v.components) if c.terms}
        found = {}
        for label, lead, (p, q), row_d, others in self._rows:
            if lead in rest:
                # the coordinate rest[lead] / pivot, numerators over p * d
                d, numerators = rest.pop(lead)
                if q != 1:
                    numerators = {e: n * q for e, n in numerators.items()}
                found[label] = MultiPoly._trusted(self.chart, _over(p * d, numerators))
                den = p * d * row_d  # of each product below, signed as the pivot
                for k, f in others.items():
                    d, acc = rest.get(k, (den, {}))
                    if d % den:
                        m = lcm(d, den)
                        d, acc = m, {e: n * (m // d) for e, n in acc.items()}
                    mul_add(acc, f, numerators, -(d // den))
                    rest[k] = d, acc
                    if not acc:
                        del rest[k]
        if rest:
            left = [MultiPoly._trusted(v.chart, _over(*rest[k]) if k in rest else {}) for k in range(v.chart.dimension)]
            raise ValueError(f"{v.name or 'the field'} is not in the span of the frame, {VectorField(v.chart, left, 'remainder')}")
        return {label: found[label] for label in self.labels if label in found}


class Frame:
    """Read-only labelled fields on one chart, listed in the order of their
    coordinates, with the order of their leads (`leads`, by default the same).
    A subclass adds its own records by keyword; `triangular` and a subclass's
    cached_property caches are stored in the instance dict."""

    chart: Chart
    fields: Mapping[Hashable, VectorField]
    leads: Tuple[Hashable, ...]

    def __init__(self, chart, fields, leads=(), **records):
        vars(self).update(records, chart=chart, fields=fields, leads=leads)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name}")

    @property
    def triangular(self) -> TriangularFrame:
        """The fields as a TriangularFrame, built on the first read and kept.
        When they are not one, the ValueError with its witness is kept instead
        and raised on every read."""
        if "triangular" not in vars(self):
            try:
                vars(self)["triangular"] = TriangularFrame(self.fields, self.leads)
            except ValueError as exc:
                vars(self)["triangular"] = exc
        built = vars(self)["triangular"]
        if isinstance(built, ValueError):
            raise built.with_traceback(None)
        return built


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


def derived_flag_fields(generators: Sequence[VectorField]) -> List[List[VectorField]]:
    """Weak derived flag D^(i+1) = D^(i) + [D, D^(i)] of the span D of the
    generators, as lists of new fields per stage.

    A candidate bracket is kept only when it is not a rational-constant
    combination of the fields collected so far; this prunes the closure while
    preserving the span (brackets are bilinear over constants).
    """
    stages: List[List[VectorField]] = [list(generators)]
    span = FieldSpan(generators)
    for _ in range(1, MAX_FLAG_DEPTH):
        new: List[VectorField] = []
        for g in generators:
            for f in stages[-1]:
                br = lie_bracket(g, f)
                if not br.is_zero() and span.add(br):
                    new.append(br)
        if not new:
            break
        stages.append(new)
    return stages


class StructureTable:
    """The constant structure constants of a frame: entries[(a, b)] is the
    expansion {c: Fraction} of [a, b] in the basis, or None when it has no
    constant one. A caller stores every pair that the flag reads."""

    basis: Sequence[Hashable]
    generators: Tuple[Hashable, ...]
    entries: Dict[Tuple[Hashable, Hashable], Optional[Dict[Hashable, Fraction]]]

    def __init__(self, basis, generators, entries):
        self.basis, self.generators, self.entries = basis, generators, entries

    def __eq__(self, other):
        # the cached flag follows from these three
        key = lambda t: (t.basis, t.generators, t.entries)
        return isinstance(other, StructureTable) and key(self) == key(other)

    def bracket(self, a: Hashable, vec: Dict[Hashable, Fraction]) -> Dict[Hashable, Fraction]:
        """[a, sum c_b b] = sum c_b [a, b], read from the entries."""
        out: Dict[Hashable, Fraction] = {}
        for b, c in vec.items():
            entry = self.entries.get((a, b))
            if entry is None:
                raise ValueError(f"the table has no constant entry for [{a}, {b}]")
            for k, d in entry.items():
                out[k] = out.get(k, 0) + c * d
        return {k: c for k, c in out.items() if c}

    @cached_property
    def flag(self) -> Tuple[Tuple[int, ...], Dict[Hashable, int]]:
        """The weak derived flag D^(s+1) = D^(s) + [generators, D^(s)], closed
        once over the entries in one echelon and stopped at full rank: its
        growth vector, and the weight of each basis element, the first stage
        that holds it. Raises ValueError naming a needed entry that is missing
        or not constant."""
        span = Echelon()
        ranks: List[int] = []
        weights: Dict[Hashable, int] = {}
        stage = [{g: Fraction(1)} for g in self.generators]
        while True:
            kept = [vec for vec in stage if span.add(vec)]
            if not kept:
                break
            ranks.append(span.rank)
            for k in self.basis:
                if k not in weights and span.combination({k: Fraction(1)}) is not None:
                    weights[k] = len(ranks)
            if span.rank == len(self.basis):
                break
            stage = [self.bracket(g, vec) for g in self.generators for vec in kept]
        return tuple(ranks), weights
