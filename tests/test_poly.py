"""Exact sparse polynomials: ring laws, calculus, serialization."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_evaluate
from f4prolong.fields import VectorField
from f4prolong.poly import (
    MAX_EXPONENT,
    MAX_VARIABLES,
    SUM_TERMS,
    Chart,
    ChartMismatchError,
    MultiPoly,
    extend_poly,
    from_terms,
    grlex_key,
)

CHART = Chart("t3", ("a", "b", "c"))


def v(name: str) -> MultiPoly:
    return MultiPoly.variable(CHART, name)


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(3))
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 5))
        terms[exps] = Fraction(num, den)
    return MultiPoly(CHART, terms)


points = st.fixed_dictionaries(
    {n: st.fractions(min_value=-3, max_value=3, max_denominator=4) for n in CHART.variables}
)


def test_constructor_drops_zero_terms():
    p = MultiPoly(CHART, {(1, 0, 0): Fraction(0), (0, 1, 0): Fraction(2)})
    assert p == v("b") * 2


def test_basic_arithmetic():
    p = (v("a") + v("b")) * (v("a") - v("b"))
    assert p == v("a") * v("a") - v("b") * v("b")
    assert (p - p).is_zero()
    assert MultiPoly.constant(CHART, Fraction(3, 2)).constant_value() == Fraction(3, 2)


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_truth_is_being_nonzero(p, q):
    # the matrix kernel skips a pair by `x and y`, as it does for ints and Fractions
    for x in (p, q, p - p, p * q, p + q):
        assert bool(x) is not x.is_zero()
    assert not MultiPoly.zero(CHART) and not MultiPoly.constant(CHART, Fraction(0))
    assert MultiPoly.constant(CHART, Fraction(1, 2)) and v("a")


def test_support_and_degree():
    zero = MultiPoly.zero(CHART)
    assert zero.support() == [] and zero.degree() == 0
    three = MultiPoly.constant(CHART, 3)
    assert three.support() == [] and three.degree() == 0
    p = v("c") * v("c") * v("a") - v("a") + 1
    assert p.support() == [0, 2] and p.degree() == 3
    assert (v("b") * Fraction(-1, 2)).support() == [1]


def test_diff_and_evaluate():
    p = v("a") * v("a") * v("b") + v("c") * Fraction(1, 2)
    assert p.diff("a") == v("a") * v("b") * 2
    assert p.diff("c") == MultiPoly.constant(CHART, Fraction(1, 2))
    pt = {"a": Fraction(2), "b": Fraction(-1), "c": Fraction(4)}
    assert p.evaluate(pt) == Fraction(-2)
    assert p.evaluate_seq([Fraction(2), Fraction(-1), Fraction(4)]) == Fraction(-2)


def test_chart_mismatch_raises():
    other = Chart("t2", ("a", "b"))
    with pytest.raises(ChartMismatchError):
        v("a") + MultiPoly.variable(other, "a")


def test_extend_poly():
    big = Chart("t4", ("x", "a", "b", "c"))
    p = v("a") * v("c") + 1
    q = extend_poly(p, big)
    assert q.chart == big
    assert q.evaluate({"x": Fraction(9), "a": Fraction(2), "b": Fraction(5), "c": Fraction(3)}) == 7


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_laws(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


def test_non_scalar_operands_are_refused():
    p = v("a") + 1
    field = VectorField.coordinate(CHART, "b")
    # each refusal names its own operator, the reflected difference too
    for op, symbol in ((add, r"\+"), (sub, "-"), (mul, r"\*")):
        for args in ((p, 0.5), (0.5, p)):
            with pytest.raises(TypeError, match=f"for {symbol}:"):
                op(*args)
    for op, symbol in ((add, r"\+"), (sub, "-")):
        with pytest.raises(TypeError, match=f"for {symbol}:"):
            op(p, field)
    for other in ("a", field):
        with pytest.raises(TypeError, match="for -:"):
            other - p
    assert 1 - p == -v("a") and Fraction(1, 2) - p == -v("a") - Fraction(1, 2)
    with pytest.raises(TypeError):
        field * 0.5
    # a polynomial times a field is the field's own product, by polynomials
    assert p * field == field * p == VectorField.from_dict(CHART, {"b": p})
    assert p != 0.5 and p != field


def test_constant_value_and_evaluate_return_fractions():
    # fields.TriangularFrame divides 1 by a pivot's constant_value: an int there gives a float
    point = dict.fromkeys(CHART.variables, 2)
    for c in (0, 3, Fraction(6, 2), Fraction(1, 2)):
        p = MultiPoly.constant(CHART, c)
        assert type(p.constant_value()) is Fraction and p.constant_value() == c
        if c:
            assert type(1 / p.constant_value()) is Fraction
        assert type(p.evaluate(point)) is Fraction and p.evaluate(point) == c
    for p in (v("a") * 2 - v("b") * v("c"), v("a") * Fraction(1, 2)):
        assert type(p.evaluate(point)) is Fraction


def _fractions(p: MultiPoly) -> dict:
    """p's term map with every coefficient a Fraction."""
    return {tuple(e): Fraction(c) for e, c in p.exponents()}


def _fraction_sum(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return out


def _fraction_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return out


def _names(e: tuple) -> tuple:
    return tuple(name for name, k in zip(CHART.variables, e) for _ in range(k))


scalars = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=4)
)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), scalars)
def test_coefficients_are_ints_or_proper_fractions(p, q, s):
    a, b = _fractions(p), _fractions(q)
    big = Chart("t4", ("x",) + CHART.variables)
    cases = [
        (p + q, _fraction_sum(a, b)),
        (p - q, _fraction_sum(a, b, -1)),
        (p * q, _fraction_product(a, b)),
        (p * s, {e: c * s for e, c in a.items()}),
        (from_terms(CHART, {_names(e): c for e, c in a.items()}), a),
        (extend_poly(p, big), {(0,) + e: c for e, c in a.items()}),
    ]
    for k, name in enumerate(CHART.variables):
        want = {e[:k] + (e[k] - 1,) + e[k + 1 :]: c * e[k] for e, c in a.items() if e[k]}
        cases.append((p.diff(name), want))
    for got, want in cases:
        assert all(
            type(c) is int or (type(c) is Fraction and c.denominator != 1)
            for c in got.terms.values()
        )
        want = MultiPoly(got.chart, want)
        want = MultiPoly._trusted(want.chart, {m: Fraction(c) for m, c in want.terms.items()})
        assert all(type(c) is Fraction for c in want.terms.values())
        assert got == want and want == got and hash(got) == hash(want)


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_diff_is_a_derivation(p, q):
    for name in CHART.variables:
        assert (p * q).diff(name) == p.diff(name) * q + p * q.diff(name)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), points)
def test_evaluate_is_a_ring_map(p, q, pt):
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


CHART30 = Chart("t30", tuple(f"w{k}" for k in range(30)))


@st.composite
def float_polys(draw, chart=CHART):
    """Sparse polynomials with non-dyadic coefficients and at most four
    variables a term, or the zero or a constant polynomial."""
    kind = draw(st.sampled_from(["sparse", "zero", "constant"]))
    coeff = st.builds(
        Fraction,
        st.integers(-50, 50).filter(bool),
        st.integers(3, 40).filter(lambda d: d & (d - 1)),  # not a power of 2
    )
    if kind == "zero":
        return MultiPoly.zero(chart)
    if kind == "constant":
        return MultiPoly.constant(chart, draw(coeff))
    n = chart.dimension
    exps = st.dictionaries(st.integers(0, n - 1), st.integers(1, 3), max_size=4).map(
        lambda powers: tuple(powers.get(i, 0) for i in range(n))
    )
    return MultiPoly(chart, draw(st.dictionaries(exps, coeff, min_size=1, max_size=8)))


def float_points(n=3):
    return st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=n, max_size=n
    )


@st.composite
def float_polys_and_points(draw):
    """A polynomial on the 3- or the 30-variable chart and a point of it."""
    chart = draw(st.sampled_from([CHART, CHART30]))
    return draw(float_polys(chart)), draw(float_points(chart.dimension))


@settings(max_examples=200, deadline=None)
@given(float_polys_and_points())
def test_evaluate_seq_matches_the_dense_fraction_walk(case):
    p, values = case
    got = p.evaluate_seq(values)
    assert float(got).hex() == float(dense_evaluate(p, values)).hex()
    # the zero polynomial's sum never leaves its int start
    assert type(got) is (int if p.is_zero() else float)
    # the walk keeps nothing between calls
    assert float(p.evaluate_seq(values)).hex() == float(got).hex()


def test_evaluate_seq_walks_a_polynomial_of_many_terms():
    # more terms than one compiled sum could hold: the walk is not bound by the compiler
    p = MultiPoly(CHART, {(i, j, k): Fraction(1, 3) for i in range(20) for j in range(20) for k in range(15)})
    values = [0.5, -1.25, 0.75]
    assert len(p.terms) == 6000
    assert p.evaluate_seq(values).hex() == float(dense_evaluate(p, values)).hex()


# unit, negative, non-dyadic and underflowing coefficients: float() of the last
# two is -0.0 and 0.0
EMITTER_COEFFS = [1, -1, Fraction(-3, 7), Fraction(5, 3), -2, Fraction(-1, 10**400), Fraction(1, 10**400)]


@pytest.mark.parametrize("size", [SUM_TERMS - 1, SUM_TERMS, SUM_TERMS + 1, 2 * SUM_TERMS + 1])
def test_float_lines_sum_rounds_as_the_dense_walk(size):
    rng = random.Random(size)
    monomials = [(i, j, k) for i in range(8) for j in range(8) for k in range(8)]
    # the constant term, when drawn, may stand anywhere in the dict order
    terms = {e: rng.choice(EMITTER_COEFFS) for e in rng.sample(monomials, size)}
    p = MultiPoly(CHART, terms)
    lines = p.float_lines(["x", "y", "z"], "t")
    assert len(lines) == -(-size // SUM_TERMS)
    assert all(line.count(" + ") + line.count(" - ") <= SUM_TERMS for line in lines)
    namespace: dict = {}
    exec("def f(x, y, z):\n    " + "\n    ".join(lines + ["return t"]), namespace)
    zeros = [[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0]]
    draws = [[rng.choice([rng.uniform(-1.2, 1.2), -0.0, 1.0]) for _ in range(3)] for _ in range(50)]
    for values in zeros + draws:
        got, want = namespace["f"](*values), float(dense_evaluate(p, values))
        assert got.hex() == want.hex()
        # a zero result carries the dense walk's sign
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


def test_float_lines_writes_units_and_signs_into_the_sum():
    p = MultiPoly(CHART, {(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 2): Fraction(-1, 2), (0, 0, 0): 1})
    assert p.float_lines(["x", "y", "z"], "t") == ["t = 0.0 + x - y - 0.5 * z**2 + 1.0"]
    assert MultiPoly.zero(CHART).float_lines(["x", "y", "z"], "t") == ["t = 0"]
    # the dense walk starts at the int 0, and 0 + -0.0 is 0.0
    for q in (-v("a"), v("a") * Fraction(-1, 10**400), -v("a") - v("b") * v("c")):
        got, want = q.evaluate_seq([0.0, 0.0, 0.0]), dense_evaluate(q, [0.0, 0.0, 0.0])
        assert math.copysign(1.0, got) == math.copysign(1.0, want) == 1.0


def test_a_coefficient_beyond_the_floats_is_a_value_error():
    p = v("a") * Fraction(10) ** 400 + v("b")
    with pytest.raises(ValueError, match="coefficient does not fit in a float"):
        p.evaluate_seq([1.0, 1.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(polys(), polys(), points, float_points())
def test_float_evaluation_leaves_the_polynomial_unchanged(p, q, pt, values):
    copy = MultiPoly(CHART, dict(p.exponents()))
    before = (p + q, p * q, q * p, hash(p), p.evaluate(pt))
    p.evaluate_seq(values)
    q.evaluate_seq(values)
    assert (p + q, p * q, q * p, hash(p), p.evaluate(pt)) == before
    assert p == copy and copy == p and hash(p) == hash(copy)


# -- the packed monomials, against exponent tuples ---------------------------


def _chart(n: int) -> Chart:
    return Chart(f"w{n}", tuple(f"w{k}" for k in range(n)))


def _monomial(chart: Chart, exps: tuple) -> int:
    """The packed key of one exponent vector."""
    (m,) = MultiPoly(chart, {exps: 1}).terms
    return m


@st.composite
def exponent_vectors(draw):
    """Two to eight exponent vectors over 1-38 variables, each exponent in 0..127."""
    n = draw(st.integers(1, 38))
    vector = st.lists(st.integers(0, 127), min_size=n, max_size=n).map(tuple)
    return n, draw(st.lists(vector, min_size=2, max_size=8))


@settings(max_examples=100, deadline=None)
@given(exponent_vectors())
def test_packed_monomials_order_as_exponent_tuples(case):
    n, vectors = case
    chart = _chart(n)
    packed = [_monomial(chart, e) for e in vectors]
    for a, pa in zip(vectors, packed):
        for b, pb in zip(vectors, packed):
            assert (pa < pb) == (a < b) and (pa == pb) == (a == b)
    p = MultiPoly(chart, {e: k + 1 for k, e in enumerate(vectors)})
    assert [tuple(e) for e, _ in p.exponents()] == list(dict.fromkeys(vectors))
    assert [tuple(e) for e, _ in p.sorted_terms()] == sorted(set(vectors), key=grlex_key)


def _term_list(p: MultiPoly) -> list:
    """p's terms in dict order as (exponent tuple, coefficient, coefficient type)."""
    return [(tuple(e), c, type(c)) for e, c in p.exponents()]


def _reference_product(a: dict, b: dict) -> dict:
    """The tuple-keyed product loop: a outer, b inner, a cancelled term deleted."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s.numerator if s.denominator == 1 else s
            else:
                del out[e]
    return out


def _reference_sum(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s.numerator if s.denominator == 1 else s
        else:
            out.pop(e, None)
    return out


def _reference_diff(a: dict, k: int) -> dict:
    out = {}
    for e, c in a.items():
        if e[k]:
            c = c * e[k]
            out[e[:k] + (e[k] - 1,) + e[k + 1 :]] = c.numerator if c.denominator == 1 else c
    return out


def _as_list(terms: dict) -> list:
    return [(e, c, type(c)) for e, c in terms.items()]


@st.composite
def wide_polys(draw):
    """Two polynomials over the same chart of 1-38 variables, with up to six
    terms of degree at most five and int or Fraction coefficients."""
    n = draw(st.integers(1, 38))
    exps = st.lists(st.integers(0, n - 1), max_size=5).map(lambda picks: tuple(picks.count(i) for i in range(n)))
    coeff = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=5))
    chart = _chart(n)
    return tuple(MultiPoly(chart, draw(st.dictionaries(exps, coeff, max_size=6))) for _ in range(2))


@settings(max_examples=150, deadline=None)
@given(wide_polys())
def test_packed_ring_and_calculus_agree_with_exponent_tuples(pair):
    p, q = pair
    a, b = ({tuple(e): c for e, c in r.exponents()} for r in pair)
    assert _term_list(p * q) == _as_list(_reference_product(a, b))
    assert _term_list(p + q) == _as_list(_reference_sum(a, b))
    support = sorted({k for e in a for k, power in enumerate(e) if power})
    assert p.support() == support
    assert p.degree() == max(map(sum, a), default=0)
    assert p.is_constant() == (support == [])
    partials = p.partials()
    assert list(partials) == support
    for k, name in enumerate(p.chart.variables):
        want = _as_list(_reference_diff(a, k))
        assert _term_list(p.diff(name)) == want
        assert _term_list(MultiPoly._trusted(p.chart, partials.get(k, {}))) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 38).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1), st.integers(0, 127), st.integers(0, 127))))
def test_an_exponent_sum_above_127_raises_and_never_carries(case):
    n, k, i, j = case
    chart = _chart(n)
    unit = tuple(int(m == k) for m in range(n))
    x_i = MultiPoly(chart, {tuple(i * u for u in unit): 1})
    x_j = MultiPoly(chart, {tuple(j * u for u in unit): 1})
    if i + j > MAX_EXPONENT:
        with pytest.raises(OverflowError):
            x_i * x_j
    else:
        assert [tuple(e) for e, _ in (x_i * x_j).exponents()] == [tuple((i + j) * u for u in unit)]


def test_exponents_and_charts_beyond_the_guard_are_refused():
    x = v("a")
    top = MultiPoly(CHART, {(127, 0, 0): 1})
    with pytest.raises(OverflowError, match="above 127"):
        top * x
    with pytest.raises(OverflowError):
        MultiPoly(CHART, {(0, 127, 3): 2}) * MultiPoly(CHART, {(1, 1, 0): 1})
    for bad in ((128, 0, 0), (0, -1, 0)):
        with pytest.raises(ValueError, match=r"0\.\.127"):
            MultiPoly(CHART, {bad: 1})
    widest = _chart(MAX_VARIABLES)
    first = MultiPoly.variable(widest, "w0")
    assert first.support() == [0] and (first * first).degree() == 2
    with pytest.raises(OverflowError):
        MultiPoly(widest, {(127,) + (0,) * (MAX_VARIABLES - 1): 1}) * first
    with pytest.raises(ValueError, match=f"at most {MAX_VARIABLES} variables"):
        _chart(MAX_VARIABLES + 1)
