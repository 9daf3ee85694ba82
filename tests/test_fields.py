"""Vector-field calculus: brackets, pairings, flags, membership."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import derived_flag, rational_bracket, rational_coordinates, typed_terms
from f4prolong import cartan, cli, prolong
from f4prolong.fields import (
    Frame,
    OneForm,
    TriangularFrame,
    VectorField,
    constant_combination,
    lie_bracket,
    origin,
    pair,
)
from f4prolong.poly import Chart, ChartMismatchError, MultiPoly

CHART = Chart("xyz", ("x", "y", "z"))


def v(name: str) -> MultiPoly:
    return MultiPoly.variable(CHART, name)


@st.composite
def small_fields(draw):
    comps = []
    for _ in range(3):
        terms = {}
        for _ in range(draw(st.integers(0, 2))):
            exps = tuple(draw(st.integers(0, 2)) for _ in range(3))
            terms[exps] = Fraction(draw(st.integers(-4, 4)))
        comps.append(MultiPoly(CHART, terms))
    return VectorField(CHART, comps)


@settings(max_examples=30, deadline=None)
@given(small_fields(), small_fields())
def test_bracket_antisymmetry(a, b):
    assert lie_bracket(a, b) == -lie_bracket(b, a)


@settings(max_examples=20, deadline=None)
@given(small_fields(), small_fields(), small_fields())
def test_jacobi_identity(a, b, c):
    total = (
        lie_bracket(a, lie_bracket(b, c))
        + lie_bracket(b, lie_bracket(c, a))
        + lie_bracket(c, lie_bracket(a, b))
    )
    assert total.is_zero()


# unit, non-unit, negative and non-integer coefficients over few monomials,
# so that products and brackets cancel terms and bring some back
ORDER_COEFFS = [1, -1, 2, -2, Fraction(-3, 7), Fraction(5, 3)]


def _random_poly(rng):
    monomials = [tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(rng.randint(0, 6))]
    return MultiPoly(CHART, {e: rng.choice(ORDER_COEFFS) for e in monomials})


def _tuple_terms(p):
    """p's term map keyed by exponent tuples."""
    return {tuple(e): c for e, c in p.exponents()}


def _reference_mul_add(acc, a, b, sign):
    """The product loop that MultiPoly.__mul__ and the bracket each ran before
    they shared one: a outer, b inner, a cancelled term popped. Returns the
    number of cancellations."""
    cancelled = 0
    for e1, c1 in a.items():
        c1 = sign * c1
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = acc.get(e, Fraction(0)) + c1 * c2
            if s == 0:
                acc.pop(e, None)
                cancelled += 1
            else:
                acc[e] = s
    return cancelled


def _reference_bracket(x, y):
    """[x, y]_k = sum_j x_j d_j y_k - y_j d_j x_k, with j ascending over the
    variables that the differentiated component reads and x_j != 0."""
    comps, cancelled = [], 0
    for k in range(CHART.dimension):
        acc = {}
        for f, g, sign in ((x, y, 1), (y, x, -1)):
            comp = g.components[k]
            reads = sorted({j for e, _ in comp.exponents() for j, n in enumerate(e) if n})
            for j in reads:
                cancelled += _reference_mul_add(
                    acc, _tuple_terms(f.components[j]), _tuple_terms(comp.diff(CHART.variables[j])), sign
                )
        comps.append(acc)
    return comps, cancelled


@pytest.mark.parametrize("seed", range(10))
def test_products_and_brackets_keep_the_term_order_of_the_two_loops(seed):
    rng = random.Random(seed)
    cancelled = 0
    for _ in range(20):
        a, b = _random_poly(rng), _random_poly(rng)
        want: dict = {}
        cancelled += _reference_mul_add(want, _tuple_terms(a), _tuple_terms(b), 1)
        got = a * b
        assert _tuple_terms(got) == want and list(_tuple_terms(got)) == list(want)
        x = VectorField(CHART, [_random_poly(rng) for _ in range(3)])
        y = VectorField(CHART, [_random_poly(rng) for _ in range(3)])
        comps, n = _reference_bracket(x, y)
        cancelled += n
        br = lie_bracket(x, y)
        assert [_tuple_terms(c) for c in br.components] == comps
        assert [list(_tuple_terms(c)) for c in br.components] == [list(c) for c in comps]
    # the draws exercise the delete-and-reinsert path
    assert cancelled > 0


SYMBOLS = sympy.symbols("x y z")


@st.composite
def rational_fields(draw):
    """Fields whose components may be zero or free of some variables, with
    rational coefficients whose denominators need not be powers of two."""
    comps = []
    for _ in range(3):
        support = draw(st.sets(st.integers(0, 2)))
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            exps = tuple(draw(st.integers(0, 2)) if j in support else 0 for j in range(3))
            terms[exps] = draw(st.fractions(-3, 3, max_denominator=9))
        comps.append(MultiPoly(CHART, terms))
    return VectorField(CHART, comps)


def to_sympy(p: MultiPoly):
    return sum(
        (
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**k for s, k in zip(SYMBOLS, e)))
            for e, c in p.exponents()
        ),
        sympy.Integer(0),
    )


def sympy_bracket(a: VectorField, b: VectorField):
    fa = [to_sympy(c) for c in a.components]
    fb = [to_sympy(c) for c in b.components]
    return [
        sum(
            fa[j] * sympy.diff(fb[k], s) - fb[j] * sympy.diff(fa[k], s)
            for j, s in enumerate(SYMBOLS)
        )
        for k in range(3)
    ]


@settings(max_examples=40, deadline=None)
@given(rational_fields(), rational_fields())
def test_bracket_matches_sympy(a, b):
    br = lie_bracket(a, b)
    for comp, oracle in zip(br.components, sympy_bracket(a, b)):
        assert sympy.expand(to_sympy(comp) - oracle) == 0
    assert lie_bracket(a, a).is_zero()
    # the second bracket of the same objects reads their cached partials,
    # also after a rename like the one in prolong.build_zeta_generators
    a.name, b.name = "a", "b"
    assert lie_bracket(a, b) == br
    assert lie_bracket(b, a) == -br


def test_fields_and_forms_share_checks_display_and_json():
    one, zero = MultiPoly.constant(CHART, 1), MultiPoly.zero(CHART)
    elsewhere = MultiPoly.zero(Chart("other", CHART.variables))
    for cls, noun in ((VectorField, "component"), (OneForm, "coefficient")):
        with pytest.raises(ValueError, match=f"^{noun} count != chart dimension$"):
            cls(CHART, [one])
        with pytest.raises(ChartMismatchError, match=f"^{noun} on a different chart$"):
            cls(CHART, [zero, elsewhere, zero])
        assert list(cls.from_dict(CHART, {"x": v("y")}).to_json()) == ["chart", "name", f"{noun}s"]
    assert repr(VectorField.from_dict(CHART, {"x": v("y")})) == "VectorField: (y)d/dx"
    assert repr(OneForm.from_dict(CHART, {"x": v("y")})) == "OneForm: (y)dx"
    assert repr(VectorField.coordinate(CHART, "z")) == "d/dz: (1)d/dz"
    assert repr(OneForm.differential(CHART, "z")) == "dz: (1)dz"
    assert repr(OneForm(CHART, [zero] * 3, "w")) == "w: 0"
    for unit in (VectorField.coordinate, OneForm.differential):
        with pytest.raises(KeyError):
            unit(CHART, "t")


def test_field_sums_refuse_operands_that_are_not_fields():
    field = VectorField.from_dict(CHART, {"x": v("y")})
    for other in (v("z"), 1, Fraction(1, 2)):
        with pytest.raises(TypeError, match=r"for \+:"):
            field + other
        with pytest.raises(TypeError, match="for -:"):
            field - other
    # field + field and field - field are unchanged
    other = VectorField.from_dict(CHART, {"x": v("z"), "y": v("x")})
    assert field + other == VectorField.from_dict(CHART, {"x": v("y") + v("z"), "y": v("x")})
    assert field - other == VectorField.from_dict(CHART, {"x": v("y") - v("z"), "y": -v("x")})
    with pytest.raises(ChartMismatchError):
        field + VectorField.zero(Chart("other", CHART.variables))


def test_pair_and_two_form_on_contact_form():
    # omega = dz - y dx on (x, y, z) annihilates d/dx + y d/dz and d/dy
    one = MultiPoly.constant(CHART, 1)
    omega = OneForm.from_dict(CHART, {"z": one, "x": -v("y")})
    fx = VectorField.from_dict(CHART, {"x": one, "z": v("y")})
    fy = VectorField.coordinate(CHART, "y")
    assert pair(omega, fx).is_zero()
    assert pair(omega, fy).is_zero()


def test_heisenberg_growth_vector():
    one = MultiPoly.constant(CHART, 1)
    fx = VectorField.from_dict(CHART, {"x": one, "z": v("y")}, "X")
    fy = VectorField.coordinate(CHART, "y", "Y")
    assert derived_flag([fx, fy], origin(CHART)) == (2, 3)


def test_constant_combination():
    one = MultiPoly.constant(CHART, 1)
    a = VectorField.from_dict(CHART, {"x": one, "z": v("y")})
    b = VectorField.coordinate(CHART, "y")
    target = a * Fraction(2) + b * Fraction(-3, 2)
    coeffs = constant_combination(target, [a, b])
    assert coeffs == [Fraction(2), Fraction(-3, 2)]
    # x d/dx is not a constant combination of a and b
    assert constant_combination(VectorField.from_dict(CHART, {"x": v("x")}), [a, b]) is None


def _sympy_of(p: MultiPoly, symbols):
    return sum(
        (sympy.Rational(c) * sympy.Mul(*(s**k for s, k in zip(symbols, e))) for e, c in p.exponents()),
        sympy.Integer(0),
    )


def _poly_of(expr, chart, symbols) -> MultiPoly:
    terms = sympy.Poly(expr, *symbols).terms() if expr != 0 else []
    return MultiPoly(chart, {e: Fraction(int(c.p), int(c.q)) for e, c in terms})


@pytest.mark.parametrize("which", ["base", "zeta"])
@pytest.mark.parametrize("seed", range(2))
def test_frame_coordinates_match_a_sympy_combination(which, seed):
    # v = sum c_k f_k is summed in sympy from random polynomial c_k, some of
    # them 0; on a frame the coordinates of v are unique, so they are the c_k
    record = cartan.build_model() if which == "base" else prolong.build_zeta_generators()
    fields, frame = record.fields, record.triangular
    chart = frame.chart
    symbols = sympy.symbols(chart.variables)
    rng = random.Random(seed)
    want = {}
    for label in frame.labels:
        # 0 or up to two terms of degree at most 2
        terms = {}
        for _ in range(rng.randint(0, 2)):
            e = [0] * chart.dimension
            for _ in range(rng.randint(0, 2)):
                e[rng.randrange(chart.dimension)] += 1
            terms[tuple(e)] = rng.choice(ORDER_COEFFS)
        want[label] = MultiPoly(chart, terms)
    components = [
        sympy.expand(sum(_sympy_of(c, symbols) * _sympy_of(fields[label].components[k], symbols) for label, c in want.items()))
        for k in range(chart.dimension)
    ]
    v = VectorField(chart, [_poly_of(c, chart, symbols) for c in components])
    got = frame.coordinates(v)
    # in frame order, the zero ones dropped
    assert list(got) == [label for label, c in want.items() if not c.is_zero()]
    for label, c in got.items():
        assert sympy.expand(_sympy_of(c, symbols) - _sympy_of(want[label], symbols)) == 0


def test_frame_coordinates_of_a_field_outside_the_span_raise_with_the_remainder():
    one = MultiPoly.constant(CHART, 1)
    # two fields on the three-variable chart
    a = VectorField.from_dict(CHART, {"x": one, "z": v("y")}, "A")
    b = VectorField.coordinate(CHART, "y", "B")
    frame = TriangularFrame({"a": a, "b": b})
    assert frame.coordinates(a * v("y") + b * (v("x") * v("x"))) == {"a": v("y"), "b": v("x") * v("x")}
    assert frame.coordinates(VectorField.zero(CHART)) == {}
    outside = VectorField.from_dict(CHART, {"x": v("y"), "z": v("x")}, "V")
    with pytest.raises(ValueError, match=r"^V is not in the span of the frame, remainder: \(-y\^2 \+ x\)d/dz$"):
        frame.coordinates(outside)
    with pytest.raises(ChartMismatchError):
        frame.coordinates(VectorField.zero(Chart("other", CHART.variables)))


def test_a_frame_that_is_not_triangular_is_refused_with_a_witness():
    one = MultiPoly.constant(CHART, 1)
    p = VectorField.from_dict(CHART, {"x": one, "y": one})
    q = VectorField.coordinate(CHART, "y")
    r = VectorField.coordinate(CHART, "z") * 2
    assert TriangularFrame({"p": p, "q": q, "r": r}).coordinates(p + q + r) == {"p": one, "q": one, "r": one}
    with pytest.raises(ValueError, match="^p is 1 on the lead of q$"):
        TriangularFrame({"q": q, "p": p})
    # the lead order is the frame's; coordinates are listed in the fields' order
    frame = TriangularFrame({"r": r, "q": q, "p": p}, ("p", "q", "r"))
    assert list(frame.coordinates(p * 3 + r * v("x"))) == ["r", "p"]
    with pytest.raises(ValueError, match="^p has no nonzero constant component off the earlier leads$"):
        TriangularFrame({"p": p * v("x"), "q": q})


def test_the_zeta_frame_is_built_once_per_prolong_run(monkeypatch):
    built = []
    # fields.Frame builds it, for the zeta system as for the model
    monkeypatch.setattr("f4prolong.fields.TriangularFrame", lambda *args: built.append(args) or TriangularFrame(*args))
    prolong.build_zeta_generators.cache_clear()
    assert cli.run(["verify", "prolong", "--json"]) == 0
    assert len(built) == 1


@pytest.mark.parametrize("which", ["base", "zeta"])
def test_both_models_are_one_read_only_frame_record(which):
    record = cartan.build_model() if which == "base" else prolong.build_zeta_generators()
    # the record, its read-only guard and its triangular frame are Frame's alone
    assert isinstance(record, Frame)
    assert not {"__init__", "__setattr__", "__delattr__", "triangular"} & set(vars(type(record)))
    assert record.table is record.table and record.triangular is record.triangular
    for name in [*vars(record), "other"]:
        with pytest.raises(AttributeError, match=f"^{type(record).__name__} is read-only: cannot set {name}$"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"^{type(record).__name__} is read-only: cannot delete {name}$"):
            delattr(record, name)
    # a copy through the one constructor starts with no cached triangular or table
    given = {k: v for k, v in vars(record).items() if k not in ("triangular", "table")}
    copy = type(record)(**given)
    assert vars(copy) == given
    assert copy.triangular is not record.triangular
    assert copy.table == record.table


# numerators and denominators 1..12, so that 3, 5, 7, 9 and 11 occur, which no
# frame of the certifier has
DENOMINATED = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))


@st.composite
def denominated_polys(draw, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        terms[tuple(draw(st.integers(0, 2)) for _ in range(3))] = draw(DENOMINATED)
    return MultiPoly(CHART, terms)


@st.composite
def denominated_fields(draw):
    return VectorField(CHART, [draw(denominated_polys()) for _ in range(3)])


@st.composite
def triangular_frames(draw):
    """1 to 3 labelled fields, triangular on leads in a drawn order, each with
    a constant pivot (negative or fractional ones included) and, off the
    earlier leads, components that are never a nonzero constant; listed in
    a drawn order that need not be the lead order."""
    size = draw(st.integers(1, 3))
    leads = draw(st.permutations(range(3)))[:size]
    pivots = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 7))
    frame = {}
    for n, lead in enumerate(leads):
        comps = [MultiPoly.zero(CHART)] * 3
        for k in set(range(3)) - set(leads[: n + 1]):
            comps[k] = draw(denominated_polys(2)) * v(draw(st.sampled_from("xyz")))
        comps[lead] = MultiPoly.constant(CHART, draw(pivots))
        frame[f"f{n}"] = VectorField(CHART, comps, f"f{n}")
    listed = draw(st.permutations(list(frame)))
    return {label: frame[label] for label in listed}, tuple(frame)


def _coordinates_or_witness(compute):
    """The coordinates as (label, typed terms) in order, or the refusal's text."""
    try:
        return [(label, typed_terms(c)) for label, c in compute().items()]
    except ValueError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(denominated_fields(), denominated_fields(), triangular_frames(), st.data())
def test_integer_kernels_give_the_rational_loops_terms_in_order_and_type(a, b, frame, data):
    # brackets: values, term order and int/Fraction types of the rational loop
    for x, y in ((a, b), (b, a), (a, a)):
        assert [typed_terms(c) for c in lie_bracket(x, y).components] == [
            typed_terms(c) for c in rational_bracket(x, y).components
        ]
    # coordinates of a combination of the frame fields, and of one that may
    # leave a remainder, or the same remainder in the same words
    fields, order = frame
    v = VectorField.zero(CHART)
    for f in fields.values():
        v = v + f * data.draw(denominated_polys(2))
    if data.draw(st.booleans()):
        v = v + data.draw(denominated_fields())
    triangular = TriangularFrame(fields, order)
    assert _coordinates_or_witness(lambda: triangular.coordinates(v)) == _coordinates_or_witness(
        lambda: rational_coordinates(fields, order, v)
    )


def test_the_certifiers_brackets_and_coordinates_match_the_rational_loops(monkeypatch):
    zs = prolong.build_zeta_generators()
    zeta = list(zs.fields.values())
    for x in zeta[:4]:
        for y in zeta[:23]:
            assert [typed_terms(c) for c in lie_bracket(x, y).components] == [
                typed_terms(c) for c in rational_bracket(x, y).components
            ]
    # every coordinate call of one verify all, on the frame it was made in
    built, calls = {}, []
    init, coordinates = TriangularFrame.__init__, TriangularFrame.coordinates
    monkeypatch.setattr(TriangularFrame, "__init__", lambda t, *a: built.setdefault(id(t), a) and init(t, *a))
    monkeypatch.setattr(TriangularFrame, "coordinates", lambda t, f: calls.append((t, f)) or coordinates(t, f))
    prolong.build_zeta_generators.cache_clear()
    cartan.build_model.cache_clear()
    assert cli.run(["verify", "all", "--json"]) == 0
    assert len(calls) == 200 and len(built) == 2
    for t, f in calls:
        want = rational_coordinates(*built[id(t)], f)
        got = coordinates(t, f)
        assert list(got) == list(want)
        assert [typed_terms(c) for c in got.values()] == [typed_terms(c) for c in want.values()]


def _count_fraction_operations(monkeypatch):
    """The list that every Fraction product or sum appends to from now on."""
    seen = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        real = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda *a, _r=real, _n=name: seen.append(_n) or _r(*a))
    return seen


def test_a_zeta_bracket_makes_no_fraction_product_or_sum(monkeypatch):
    zs = prolong.build_zeta_generators()
    z1, z9 = zs.fields["zeta1"], zs.fields["zeta9"]
    z1.jacobian(), z9.jacobian()
    want = rational_bracket(z1, z9)
    seen = _count_fraction_operations(monkeypatch)
    # the products run on int numerators; each output term is divided once
    got = lie_bracket(z1, z9)
    assert seen == []
    assert [typed_terms(c) for c in got.components] == [typed_terms(c) for c in want.components]
    assert any(type(c) is Fraction for comp in got.components for c in comp.terms.values())


def test_zeta_coordinates_make_no_fraction_product_or_sum(monkeypatch):
    zs = prolong.build_zeta_generators()
    # a bracket plus a field whose coordinate is not integral
    v = lie_bracket(zs.fields["zeta1"], zs.fields["zeta9"])
    v = v + zs.fields["zeta20"] * MultiPoly(zs.chart, {(1,) + (0,) * 23: Fraction(1, 3)})
    want = rational_coordinates(zs.fields, (), v)
    frame = zs.triangular
    seen = _count_fraction_operations(monkeypatch)
    got = frame.coordinates(v)
    assert seen == []
    assert list(got) == list(want)
    assert [typed_terms(c) for c in got.values()] == [typed_terms(c) for c in want.values()]
    assert any(type(c) is Fraction for p in got.values() for c in p.terms.values())
