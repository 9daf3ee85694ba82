"""Vector-field calculus: brackets, pairings, flags, membership."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from f4prolong.fields import (
    Distribution,
    OneForm,
    VectorField,
    constant_combination,
    derived_flag,
    lie_bracket,
    origin,
    pair,
)
from f4prolong.poly import Chart, MultiPoly

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


def test_bracket_matches_sympy():
    rng = random.Random(5)
    sx, sy, sz = sympy.symbols("x y z")
    syms = (sx, sy, sz)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            terms[exps] = Fraction(rng.randint(-3, 3))
        return MultiPoly(CHART, terms)

    def to_sympy(p):
        return sum(
            sympy.Rational(c.numerator, c.denominator) * sx**e[0] * sy**e[1] * sz**e[2]
            for e, c in p.terms.items()
        )

    for _ in range(5):
        a = VectorField(CHART, [rand_poly() for _ in range(3)])
        b = VectorField(CHART, [rand_poly() for _ in range(3)])
        br = lie_bracket(a, b)
        fa = [to_sympy(c) for c in a.components]
        fb = [to_sympy(c) for c in b.components]
        for k in range(3):
            oracle = sum(
                fa[j] * sympy.diff(fb[k], syms[j]) - fb[j] * sympy.diff(fa[k], syms[j])
                for j in range(3)
            )
            assert sympy.simplify(to_sympy(br.components[k]) - oracle) == 0


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
    d = Distribution(CHART, [fx, fy])
    gv = derived_flag(d, origin(CHART))
    assert gv.ranks == (2, 3)


def test_constant_combination():
    one = MultiPoly.constant(CHART, 1)
    a = VectorField.from_dict(CHART, {"x": one, "z": v("y")})
    b = VectorField.coordinate(CHART, "y")
    target = a * Fraction(2) + b * Fraction(-3, 2)
    coeffs = constant_combination(target, [a, b])
    assert coeffs == [Fraction(2), Fraction(-3, 2)]
    # x d/dx is not a constant combination of a and b
    assert constant_combination(VectorField.from_dict(CHART, {"x": v("x")}), [a, b]) is None


def test_distribution_requires_generators():
    with pytest.raises(ValueError):
        Distribution(CHART, [])
