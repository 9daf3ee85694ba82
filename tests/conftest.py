"""Session-scoped fixtures sharing the expensive suite computations."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import cached_property

import pytest

from f4prolong import cartan, control, f4roots, fields, nullflag, prolong
from f4prolong.fields import VectorField, origin
from f4prolong.linalg import Echelon, sparse
from f4prolong.poly import MultiPoly, mul_add


def by_id(items):
    return {i.id: i for i in items}


def failures(items):
    return [i for i in items if i.status == "fail"]


def discrepancies(items):
    return [i for i in items if i.status == "paper-discrepancy"]


def seeded_points(chart, seed, n):
    """The origin and n points whose coordinates random.Random(seed) draws
    from -2..2."""
    rng = random.Random(seed)
    draw = lambda: {v: Fraction(rng.randint(-2, 2)) for v in chart.variables}
    return [origin(chart)] + [draw() for _ in range(n)]


def derived_flag(generators, point):
    """The pointwise oracle for the global growth checks: the growth vector at
    the point of the weak derived flag of the generators' span, the stage
    ranks of its values there, until they stop growing."""
    span = Echelon()
    ranks = []
    for stage in fields.derived_flag_fields(generators):
        for row in fields.fields_matrix(stage, point):
            span.add(sparse(row))
        if ranks and span.rank == ranks[-1]:
            break
        ranks.append(span.rank)
    return tuple(ranks)


def patch_flag(monkeypatch, wrap):
    """Make StructureTable.flag, still closed once per table, return
    wrap(table, closure), with closure the unpatched one."""
    closure = fields.StructureTable.flag.func
    flag = cached_property(lambda table: wrap(table, closure))
    flag.__set_name__(fields.StructureTable, "flag")
    monkeypatch.setattr(fields.StructureTable, "flag", flag)


def spy_flags(monkeypatch):
    """The list of the tables whose flag is closed from now on, in order."""
    closed = []
    patch_flag(monkeypatch, lambda table, closure: closed.append(table) or closure(table))
    return closed


def dense_evaluate(p, values):
    """The oracle for MultiPoly.evaluate_seq: the walk that `float_lines`
    describes, from the int 0 adding float(coefficient) times the factors of
    each term in dict order, over dense exponent tuples."""
    total = 0
    for e, c in p.exponents():
        term = float(c)
        for v, k in zip(values, e):
            if k:
                term = term * v**k
        total = total + term
    return total


def rational_bracket(x, y):
    """The oracle for fields.lie_bracket: the same loop over the rational term
    maps, [x, y]_k = sum_j x_j d_j y_k - y_j d_j x_k, each product summed by
    `mul_add` from the components' own partials."""
    comps = []
    for k in range(x.chart.dimension):
        acc = {}
        for a, b, sign in ((x, y, 1), (y, x, -1)):
            for j, d in b.components[k].partials().items():
                mul_add(acc, a.components[j].terms, d, sign)
        comps.append(MultiPoly._trusted(x.chart, acc))
    return VectorField(x.chart, comps)


def rational_coordinates(fields, order, v):
    """The oracle for TriangularFrame(fields, order).coordinates(v) on a frame
    that the constructor accepts: the same forward substitution over rational
    term maps, each coordinate scaled by 1 / pivot."""
    rows, owner = [], set()
    for label in order or fields:
        comps = fields[label].components
        lead = next(n for n, c in enumerate(comps) if n not in owner and c.terms and c.is_constant())
        owner.add(lead)
        others = {k: c.terms for k, c in enumerate(comps) if c.terms and k != lead}
        rows.append((label, lead, 1 / comps[lead].constant_value(), others))
    rest = {k: dict(c.terms) for k, c in enumerate(v.components) if c.terms}
    found = {}
    for label, lead, inverse, others in rows:
        if lead in rest:
            c = MultiPoly._trusted(v.chart, rest.pop(lead))
            found[label] = c = c if inverse == 1 else c * inverse
            for k, f in others.items():
                mul_add(rest.setdefault(k, {}), f, c.terms, -1)
                if not rest[k]:
                    del rest[k]
    if rest:
        left = [MultiPoly._trusted(v.chart, rest.get(k, {})) for k in range(v.chart.dimension)]
        raise ValueError(f"{v.name or 'the field'} is not in the span of the frame, {VectorField(v.chart, left, 'remainder')}")
    return {label: found[label] for label in fields if label in found}


def sum_mat_mul(a, b):
    """The oracle for linalg.mat_mul: each entry the `sum` of its products."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def sum_mat_vec(m, x):
    """The oracle for linalg.mat_vec: each entry the `sum` of its products."""
    return [sum(a * b for a, b in zip(row, x)) for row in m]


def sum_pairing(terms, a, b):
    """The oracle for control._pairing: the `sum` of a[i] * b[j] * g."""
    return sum(a[i] * b[j] * g for i, j, g in terms)


def cofactor_det(rows):
    """The oracle for linalg.det_cofactor: first-row expansion from the zero
    rows[0][0] * 0, skipping the entries equal to it, one term added at a time."""
    zero = rows[0][0] * 0

    def rec(mat):
        k = len(mat)
        if k == 1:
            return mat[0][0]
        acc = zero
        for j, entry in enumerate(mat[0]):
            if entry == zero:
                continue
            term = entry * rec([[row[c] for c in range(k) if c != j] for row in mat[1:]])
            acc = acc + (term if j % 2 == 0 else -term)
        return acc

    return rec([list(r) for r in rows])


def cofactor_pfaffian(rows):
    """The oracle for linalg.pfaffian on a skew-symmetric matrix of even size:
    the same first-row expansion, one term added at a time."""
    zero = rows[0][0] * 0

    def rec(mat):
        k = len(mat)
        if k == 2:
            return mat[0][1]
        acc = zero
        for j in range(1, k):
            entry = mat[0][j]
            if entry == zero:
                continue
            keep = [c for c in range(k) if c not in (0, j)]
            term = entry * rec([[mat[r][c] for c in keep] for r in keep])
            acc = acc + (term if j % 2 == 1 else -term)
        return acc

    return rec([list(r) for r in rows])


def typed_terms(p):
    """p's terms in dict order, each with the type of its coefficient."""
    return [(e, type(c), c) for e, c in p.terms.items()]


@pytest.fixture(scope="session")
def cartan_run():
    t0 = time.monotonic()
    items = cartan.verify_suite()
    return items, time.monotonic() - t0


@pytest.fixture(scope="session")
def control_run():
    t0 = time.monotonic()
    items = control.verify_suite()
    return items, time.monotonic() - t0


@pytest.fixture(scope="session")
def nullflag_run():
    t0 = time.monotonic()
    items = nullflag.verify_suite()
    return items, time.monotonic() - t0


@pytest.fixture(scope="session")
def prolong_run():
    """prolong.verify_suite's items, the shared zeta system and its bracket
    table, and the suite's wall time."""
    t0 = time.monotonic()
    items = prolong.verify_suite()
    elapsed = time.monotonic() - t0
    zs = prolong.build_zeta_generators()
    return items, zs, zs.table, elapsed


@pytest.fixture(scope="session")
def roots_run(prolong_run):
    """f4roots.verify_suite's items, on the table prolong_run computed, and
    its wall time."""
    t0 = time.monotonic()
    items = f4roots.verify_suite()
    return items, time.monotonic() - t0
