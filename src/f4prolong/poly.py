"""Sparse multivariate polynomials with exact rational coefficients over a named chart.

A monomial is one int: on a chart of n variables, byte n-1-i (big-endian)
holds the exponent of variable i, so monomials order as their exponent
vectors do and a product of monomials is one int addition. An exponent is at
most MAX_EXPONENT; the top bit of each byte is a guard, and a product that
sets it raises OverflowError instead of carrying into the next variable."""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Mapping, Sequence, Union

Scalar = Union[int, Fraction]
# the most terms in one statement of `MultiPoly.float_lines`
SUM_TERMS = 200
MAX_EXPONENT = 127
# the widest chart that the guard bits cover
MAX_VARIABLES = 64
_GUARD = int.from_bytes(bytes([MAX_EXPONENT + 1]) * MAX_VARIABLES, "big")


class ChartMismatchError(ValueError):
    """Raised when combining objects that live on different charts."""


class Chart:
    """An ordered list of distinct variable names with an identifying token."""

    __slots__ = ("id", "variables", "_index", "_units")

    def __init__(self, chart_id: str, variables: Sequence[str]):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("chart variables must be distinct")
        if len(variables) > MAX_VARIABLES:
            raise ValueError(f"a chart has at most {MAX_VARIABLES} variables")
        self.id = chart_id
        self.variables = variables
        self._index = {name: k for k, name in enumerate(variables)}
        # the monomial of each variable
        self._units = tuple(1 << 8 * k for k in reversed(range(len(variables))))

    @property
    def dimension(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"variable {name!r} not on chart {self.id!r}") from None

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Chart)
            and self.id == other.id
            and self.variables == other.variables
        )

    def __hash__(self) -> int:
        return hash((self.id, self.variables))

    def __repr__(self) -> str:
        return f"Chart({self.id!r}, dim={self.dimension})"


def _normal(c: Scalar) -> Scalar:
    """c as a term map stores it: an int when c is integral, else a Fraction."""
    if type(c) is int:
        return c
    c = c if type(c) is Fraction else Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _pack(exps: Sequence[int], n: int) -> int:
    """The monomial of an exponent vector on a chart of n variables."""
    if len(exps) != n:
        raise ValueError("exponent vector length != chart dimension")
    if n and not 0 <= min(exps) <= max(exps) <= MAX_EXPONENT:
        raise ValueError(f"exponents must lie in 0..{MAX_EXPONENT}")
    return int.from_bytes(bytes(exps), "big")


def mul_add(acc: dict, a: Mapping, b: Mapping, sign: int = 1) -> None:
    """acc += sign * a * b for term maps, one product of terms at a time with a
    outer and b inner. A term that cancels is deleted, so if it comes back it
    goes in again at the end of acc's order."""
    if not (a and b):
        return
    outer = a.items() if sign == 1 else [(e, c * sign) for e, c in a.items()]
    for e1, c1 in outer:
        for e2, c2 in b.items():
            e = e1 + e2
            if e & _GUARD:
                raise OverflowError(f"an exponent above {MAX_EXPONENT}")
            c = acc.get(e)
            if c is None:
                acc[e] = _normal(c1 * c2)
            else:
                c += c1 * c2
                if c:
                    acc[e] = _normal(c)
                else:
                    del acc[e]


def grlex_key(exps: Sequence[int]):
    """Graded-lexicographic sort key (total degree first, then lex)."""
    return (sum(exps), tuple(exps))


class MultiPoly:
    """Sparse polynomial: `terms` maps monomials (packed ints, see the module
    docstring) to nonzero rationals, each stored as an int when it is integral
    and as a Fraction otherwise. The constructor takes exponent vectors;
    `exponents()` gives them back.

    Immutable after construction; all operations return new instances.
    """

    __slots__ = ("chart", "terms", "_partials")  # _partials: set by partials()

    def __init__(self, chart: Chart, terms: Mapping[tuple, Scalar] | None = None):
        self.chart = chart
        clean: dict[int, Scalar] = {}
        if terms:
            n = chart.dimension
            for exps, coeff in terms.items():
                m = _pack(exps, n)
                c = _normal(coeff)
                if c:
                    clean[m] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart) -> "MultiPoly":
        return cls(chart)

    @classmethod
    def constant(cls, chart: Chart, c: Scalar) -> "MultiPoly":
        c = _normal(c)
        return cls._trusted(chart, {0: c} if c else {})

    @classmethod
    def _trusted(cls, chart: Chart, terms: dict) -> "MultiPoly":
        """The polynomial with these terms, taken as they are: no copy, no check
        that they fit the chart or are nonzero."""
        out = cls.__new__(cls)
        out.chart = chart
        out.terms = terms
        return out

    @classmethod
    def variable(cls, chart: Chart, name: str) -> "MultiPoly":
        return cls._trusted(chart, {chart._units[chart.index(name)]: 1})

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(self.terms)

    def support(self) -> list[int]:
        """The indices of the chart variables that the polynomial reads, ascending."""
        used = reduce(or_, self.terms, 0)
        if not used:
            return []
        return [i for i, k in enumerate(used.to_bytes(self.chart.dimension, "big")) if k]

    def degree(self) -> int:
        """The total degree; 0 for the zero polynomial."""
        return max((sum(e) for e, _ in self.exponents()), default=0)

    def exponents(self) -> list[tuple[bytes, Scalar]]:
        """The terms as (exponent vector, coefficient) pairs in dict order, each
        vector a bytes whose item i is the exponent of chart variable i."""
        n = self.chart.dimension
        return [(m.to_bytes(n, "big"), c) for m, c in self.terms.items()]

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self.terms.values())))

    # -- ring operations ----------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatchError(
                f"charts differ: {self.chart.id!r} vs {other.chart.id!r}"
            )

    def __add__(self, other):
        if type(other) is not MultiPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MultiPoly.constant(self.chart, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = _normal(s)
            else:
                terms.pop(e, None)
        return MultiPoly._trusted(self.chart, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._trusted(self.chart, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is MultiPoly or isinstance(other, (int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if type(other) is MultiPoly:
            self._check(other)
            terms: dict[int, Scalar] = {}
            mul_add(terms, self.terms, other.terms)
            return MultiPoly._trusted(self.chart, terms)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return MultiPoly.zero(self.chart)
        return MultiPoly._trusted(self.chart, {e: _normal(k * other) for e, k in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if type(other) is not MultiPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MultiPoly.constant(self.chart, other)
        return self.chart == other.chart and self.terms == other.terms

    def __hash__(self):
        return hash((self.chart, frozenset(self.terms.items())))

    # -- calculus -----------------------------------------------------

    def diff(self, var: str) -> "MultiPoly":
        """Exact partial derivative with respect to a chart variable."""
        return MultiPoly._trusted(self.chart, self.partials().get(self.chart.index(var), {}))

    def partials(self) -> dict[int, dict[int, Scalar]]:
        """{i: term map of the partial in variable i} over `support()`, in
        ascending i, each map in the order of the terms it comes from: built
        in one sweep over the terms on the first call and kept. The maps are
        shared; wrap one with `_trusted`, never change it."""
        try:
            return self._partials
        except AttributeError:
            pass
        n, units = self.chart.dimension, self.chart._units
        out: dict[int, dict[int, Scalar]] = {i: {} for i in self.support()}
        for m, c in self.terms.items():
            for i, k in enumerate(m.to_bytes(n, "big")):
                if k:
                    out[i][m - units[i]] = c if k == 1 else _normal(c * k)
        self._partials = out
        return out

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a full assignment of chart variables."""
        vals = []
        for name in self.chart.variables:
            if name not in point:
                raise KeyError(f"point does not assign variable {name!r}")
            vals.append(_normal(point[name]))
        total = Fraction(0)
        for e, c in self.exponents():
            term = c
            for v, k in zip(vals, e):
                if k:
                    term *= v**k
            total += term
        return total

    def float_lines(self, names: Sequence[str], target: str) -> list[str]:
        """Python statements that leave in `target` the float value of the
        polynomial, with `names[i]` the value of chart variable i: the sum
        `target = 0.0 + c * v * w**k - ...` of the terms in dict order, c the float
        repr of |coefficient|, split every SUM_TERMS terms (one long sum overflows
        the compiler's recursion limit near 3,000 terms). It rounds as the walk from
        the int 0 adding float(coefficient) * factors, signed zeros included: 0 + x
        is 0.0 + x, 1.0 * v is v and t + (-c) * v is t - c * v. Zero is `target = 0`."""
        terms = []
        for e, c in self.exponents():
            factors = [names[i] if k == 1 else f"{names[i]}**{k}" for i, k in enumerate(e) if k]
            try:
                if abs(c) != 1 or not factors:
                    factors.insert(0, repr(float(abs(c))))
            except OverflowError:
                raise ValueError("a polynomial coefficient does not fit in a float") from None
            terms.append(("- " if c < 0 else "+ ") + " * ".join(factors))
        return [
            f"{target} = {target if i else '0.0'} " + " ".join(terms[i : i + SUM_TERMS])
            for i in range(0, len(terms), SUM_TERMS)
        ] or [f"{target} = 0"]

    def evaluate_seq(self, values: Sequence[float]) -> float:
        """Float value at an ordered assignment of the chart variables: the walk
        that `float_lines` writes out, from the int 0 adding float(coefficient)
        times the factors of each term in dict order. Exact values come from
        `evaluate`."""
        total = 0
        for e, c in self.exponents():
            try:
                term = float(c)
            except OverflowError:
                raise ValueError("a polynomial coefficient does not fit in a float") from None
            for v, k in zip(values, e):
                if k:
                    term = term * v**k
            total = total + term
        return total

    # -- presentation / serialization ---------------------------------

    def sorted_terms(self) -> list[tuple[bytes, Scalar]]:
        """`exponents()` in graded-lexicographic order."""
        return sorted(self.exponents(), key=lambda kv: grlex_key(kv[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in reversed(self.sorted_terms()):
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.chart.variables, e)
                if k
            )
            if mono:
                parts.append(f"{c}*{mono}" if abs(c) != 1 else ("-" + mono if c < 0 else mono))
            else:
                parts.append(str(c))
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__

    def to_json(self) -> dict:
        return {
            "chart": list(self.chart.variables),
            "terms": [
                {"exps": list(e), "num": str(c.numerator), "den": str(c.denominator)}
                for e, c in self.sorted_terms()
            ],
        }


def from_terms(chart: Chart, terms: Mapping[Sequence[str], Scalar]) -> MultiPoly:
    """Sum of coeff * product of the named variables, e.g. {("x", "y"): 2, ("z",): -1}."""
    total = MultiPoly.zero(chart)
    for names, coeff in terms.items():
        t = MultiPoly.constant(chart, coeff)
        for n in names:
            t = t * MultiPoly.variable(chart, n)
        total = total + t
    return total


def extend_poly(p: MultiPoly, chart: Chart) -> MultiPoly:
    """Reinterpret p on a larger chart containing all of its variables (by name)."""
    if p.chart == chart:
        return p
    idx = [chart.index(v) for v in p.chart.variables]
    terms: dict[int, Scalar] = {}
    for e, c in p.exponents():
        out = bytearray(chart.dimension)
        for k, power in zip(idx, e):
            out[k] = power
        terms[int.from_bytes(out, "big")] = c
    return MultiPoly._trusted(chart, terms)
