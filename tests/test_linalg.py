"""Exact linear algebra against independent oracles (sympy, naive cofactor)."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from f4prolong.fields import VectorField, constant_combination
from f4prolong.linalg import (
    Echelon,
    adjugate,
    det_cofactor,
    integer_vector,
    mat_mul,
    mat_rank,
    mat_rank_kernel,
    mat_vec,
    pfaffian,
    solve_exact,
    transpose,
)
from f4prolong.poly import Chart, MultiPoly, from_terms

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def matrices(rows, cols):
    return st.lists(
        st.lists(fracs, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


def _sympy_det(rows):
    return Fraction(sympy.Rational(sympy.Matrix(rows).det()))


@settings(max_examples=60, deadline=None)
@given(st.lists(fracs, max_size=9))
def test_integer_vector_clears_the_denominators(seq):
    ints, d = integer_vector(seq)
    assert all(type(n) is int for n in ints)
    assert [Fraction(n, d) for n in ints] == seq
    assert d == math.lcm(*(x.denominator for x in seq))
    assert integer_vector(ints) == (ints, 1)


@settings(max_examples=40, deadline=None)
@given(matrices(4, 5))
def test_rank_matches_sympy(rows):
    assert mat_rank(rows) == sympy.Matrix(rows).rank()


@settings(max_examples=40, deadline=None)
@given(matrices(4, 4))
def test_det_matches_sympy_and_cofactor(rows):
    d = det_cofactor(rows)
    assert d == _sympy_det(rows)


@settings(max_examples=40, deadline=None)
@given(matrices(4, 4))
def test_adjugate_matches_sympy(rows):
    oracle = sympy.Matrix(rows).adjugate().tolist()
    want = [[Fraction(sympy.Rational(x)) for x in r] for r in oracle]
    assert adjugate(rows) == want


@settings(max_examples=40, deadline=None)
@given(matrices(5, 4))
def test_rank_plus_nullity(rows):
    rank, basis = mat_rank_kernel(rows)
    assert rank + len(basis) == 4
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_kernel_is_exact_rational():
    rows = [[Fraction(1), Fraction(2), Fraction(0)], [Fraction(0), Fraction(0), Fraction(3)]]
    _, basis = mat_rank_kernel(rows)
    assert basis == [(Fraction(-2), Fraction(1), Fraction(0))]
    assert all(isinstance(x, Fraction) for vec in basis for x in vec)


@settings(max_examples=30, deadline=None)
@given(st.lists(fracs, min_size=15, max_size=15))
def test_pfaffian_squares_to_det(entries):
    n = 6
    m = [[Fraction(0)] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i + 1, n):
            x = next(it)
            m[i][j] = x
            m[j][i] = -x
    pf = pfaffian(m)
    assert pf * pf == _sympy_det(m)


def test_pfaffian_2x2_convention():
    m = [[Fraction(0), Fraction(7)], [Fraction(-7), Fraction(0)]]
    assert pfaffian(m) == 7


def test_pfaffian_rejects_non_skew():
    with pytest.raises(ValueError):
        pfaffian([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]])


@settings(max_examples=40, deadline=None)
@given(matrices(4, 3), st.lists(fracs, min_size=3, max_size=3))
def test_solve_exact_solution_or_inconsistent(rows, x):
    rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    sol = solve_exact(rows, rhs)
    assert sol is not None
    assert [sum(a * b for a, b in zip(row, sol)) for row in rows] == rhs


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(matrices(n, 3), st.lists(fracs, min_size=n, max_size=n))
    )
)
def test_solve_exact_none_iff_augmented_rank_grows(system):
    rows, rhs = system
    sol = solve_exact(rows, rhs)
    aug = [row + [b] for row, b in zip(rows, rhs)]
    inconsistent = sympy.Matrix(aug).rank() > sympy.Matrix(rows).rank()
    assert (sol is None) == inconsistent
    if sol is not None:
        assert [sum(a * x for a, x in zip(row, sol)) for row in rows] == rhs


@st.composite
def dependent_systems(draw):
    """Small integer systems A x = b where some columns of A are integer
    combinations of others, in shuffled order; b is in the column span about
    half of the time."""
    ints = st.integers(-3, 3)
    n = draw(st.integers(1, 4))
    base = draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=1, max_size=3))
    mixes = draw(st.lists(st.lists(ints, min_size=len(base), max_size=len(base)), max_size=3))
    cols = base + [
        [sum(c * col[i] for c, col in zip(mix, base)) for i in range(n)] for mix in mixes
    ]
    cols = draw(st.permutations(cols))
    rows = [[Fraction(col[i]) for col in cols] for i in range(n)]
    if draw(st.booleans()):
        x = draw(st.lists(ints, min_size=len(cols), max_size=len(cols)))
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = [Fraction(b) for b in draw(st.lists(ints, min_size=n, max_size=n))]
    return rows, rhs


def _sympy_solution_free_zero(rows, rhs):
    """sympy's Gauss-Jordan solution with every free unknown set to 0."""
    try:
        sol, params = sympy.Matrix(rows).gauss_jordan_solve(sympy.Matrix(rhs))
    except ValueError:
        return None
    sol = sol.subs({p: 0 for p in params})
    return [Fraction(int(v.p), int(v.q)) for v in sol]


def _column_fields(rows):
    """One vector field per column: row i is the coefficient of x^i d/dx."""
    chart = Chart("x", ("x",))
    return [
        VectorField(chart, [MultiPoly(chart, {(i,): row[j] for i, row in enumerate(rows)})])
        for j in range(len(rows[0]))
    ]


@settings(max_examples=80, deadline=None)
@given(dependent_systems())
def test_solve_exact_and_constant_combination_match_sympy_free_zero(system):
    rows, rhs = system
    expected = _sympy_solution_free_zero(rows, rhs)
    assert solve_exact(rows, rhs) == expected
    *basis, target = _column_fields([row + [b] for row, b in zip(rows, rhs)])
    assert constant_combination(target, basis) == expected
    # sympy's nullspace has the same canonical form: 1 in its own free column
    # and 0 in the other free columns
    kernel = sympy.Matrix(rows).nullspace()
    assert mat_rank_kernel(rows)[1] == [
        tuple(Fraction(int(v.p), int(v.q)) for v in vec) for vec in kernel
    ]


def test_echelon_add_relation_and_combination():
    ech = Echelon()
    assert ech.add({"a": Fraction(1), "b": Fraction(2)})
    assert ech.add({"b": Fraction(1, 2), "c": Fraction(3)})
    # 2 (a + 2b) - 4 (b/2 + 3c): dependent, its relation is the kernel vector
    assert not ech.add({"a": 2, "b": 2, "c": -12})
    assert (ech.rank, ech.count) == (2, 3)
    assert ech.relations == {2: {0: Fraction(-2), 1: Fraction(4), 2: Fraction(1)}}
    assert ech.combination({"a": 1, "b": Fraction(5, 2), "c": 3}) == [1, 1, 0]
    assert ech.combination({"c": 1}) is None
    assert ech.combination({}) == [0, 0, 0]


_CHART3 = Chart("xyz", ("x", "y", "z"))
_MONOMIALS = [(), ("x",), ("y",), ("z",), ("x", "x"), ("x", "y"), ("y", "z"), ("z", "z")]


def _poly_matrix(rng, rows, cols, zero_first_row=False):
    """Random polynomials of degree <= 2 on a 3-variable chart, about a quarter of them 0."""
    def entry():
        picks = rng.sample(_MONOMIALS, rng.randint(0, 3))
        return from_terms(_CHART3, {mono: rng.randint(-3, 3) for mono in picks})

    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    if zero_first_row:
        m[0] = [MultiPoly.zero(_CHART3)] * cols
    return m


def _skew(m):
    """The skew-symmetric matrix with the strict upper triangle of m."""
    n = len(m)
    zero = MultiPoly.zero(_CHART3)
    return [[m[i][j] if i < j else -m[j][i] if i > j else zero for j in range(n)] for i in range(n)]


def _at(m, point):
    return [[x.evaluate(point) for x in row] for row in m]


def _points(rng, n=3):
    return [
        {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for v in _CHART3.variables}
        for _ in range(n)
    ]


@pytest.mark.parametrize("seed", range(6))
def test_ring_generic_routines_commute_with_evaluation(seed):
    # the routines read the ring's zero off the entries: a polynomial matrix,
    # even one whose first row is zero, gives MultiPoly results whose values
    # are the results on the evaluated matrices
    rng = random.Random(seed)
    zero_row = seed % 2 == 1
    m4 = _poly_matrix(rng, 4, 4, zero_row)
    m6 = _skew(_poly_matrix(rng, 6, 6, zero_row))
    a, b = _poly_matrix(rng, 3, 4, zero_row), _poly_matrix(rng, 4, 3)
    det, adj, pf, prod = det_cofactor(m4), adjugate(m4), pfaffian(m6), mat_mul(a, b)
    if zero_row:
        assert det == 0 and pf == 0 and prod[0] == [0, 0, 0]
    for x in [det, pf] + [x for r in adj + prod for x in r]:
        assert isinstance(x, MultiPoly)
    for pt in _points(rng):
        assert det.evaluate(pt) == det_cofactor(_at(m4, pt)) == _sympy_det(_at(m4, pt))
        assert _at(adj, pt) == adjugate(_at(m4, pt))
        assert pf.evaluate(pt) == pfaffian(_at(m6, pt))
        assert _at(prod, pt) == mat_mul(_at(a, pt), _at(b, pt))


def test_empty_matrix_has_no_ring():
    with pytest.raises(ValueError):
        det_cofactor([])
    with pytest.raises(ValueError):
        pfaffian([])


def test_solve_exact_inconsistent():
    rows = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert solve_exact(rows, [Fraction(1), Fraction(3)]) is None


def test_mat_mul_and_transpose():
    rng = random.Random(3)
    a = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(2)]
    b = [[Fraction(rng.randint(-4, 4)) for _ in range(2)] for _ in range(3)]
    prod = mat_mul(a, b)
    oracle = sympy.Matrix(a) * sympy.Matrix(b)
    assert sympy.Matrix(prod) == oracle
    assert transpose(a) == [list(r) for r in sympy.Matrix(a).T.tolist()]
    x = [Fraction(1, 2), Fraction(-3), Fraction(2, 3)]
    assert sympy.Matrix(mat_vec(a, x)) == sympy.Matrix(a) * sympy.Matrix(x)
    chart = Chart("xy", ("x", "y"))
    px, py = MultiPoly.variable(chart, "x"), MultiPoly.variable(chart, "y")
    m = [[px, py, 2 * px], [py * py, px * 0, px * py]]
    w = [py, px, py - 1]
    assert mat_vec(m, w) == [
        from_terms(chart, {("x", "y"): 4, ("x",): -2}),
        from_terms(chart, {("y", "y", "y"): 1, ("x", "y", "y"): 1, ("x", "y"): -1}),
    ]
