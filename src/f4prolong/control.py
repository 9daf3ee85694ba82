"""Cotangent machinery for singular curves: lifts, Poisson brackets, the
constraint matrices A and U, the forms Q and R, the singular-velocity cone,
and the RK4 integrator for abnormal bi-extremals."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .cartan import BASE_VARIABLES, GENERATOR_ORDER, build_model
from .fields import VectorField
from .linalg import adjugate, det_cofactor, dot, integer_vector, mat_mul, mat_rank_kernel
from .linalg import mat_vec, pfaffian, transpose
from .poly import Chart, ChartMismatchError, MultiPoly, extend_poly, from_terms, mul_add
from .report import DISCREPANCY, PASS, Item, against_paper, check

FIBER_VARIABLES = (
    "s",
    "p1", "p2", "p3", "p4",
    "q1", "q2", "q3", "q4",
    "r12", "r13", "r14", "r23", "r24", "r34",
)
COTANGENT_VARIABLES = BASE_VARIABLES + FIBER_VARIABLES
CONTROL_VARIABLES = ("u1", "u2", "u3", "u4", "v1", "v2", "v3", "v4")
R_NAMES = ("12", "13", "14", "23", "24", "34")
# the fiber variables paired by A, U and R: lambda = (s, r12, ..., r34)
COV7_VARIABLES = ("s",) + tuple(f"r{n}" for n in R_NAMES)
# the (fiber, base) conjugate variable pairs
CONJUGATE_PAIRS = tuple(zip(FIBER_VARIABLES, BASE_VARIABLES))


def cotangent_chart() -> Chart:
    return Chart("cotangent30", COTANGENT_VARIABLES)


def phase_control_chart() -> Chart:
    """Cotangent chart extended by the eight control parameters (38 variables)."""
    return Chart("phase38", COTANGENT_VARIABLES + CONTROL_VARIABLES)


def hamiltonian_lift(field: VectorField, chart: Chart) -> MultiPoly:
    """H_xi = <p, xi>: pair each component with its conjugate fiber variable."""
    if tuple(field.chart.variables) != BASE_VARIABLES:
        raise ChartMismatchError("field must live on the 15-variable base chart")
    total = MultiPoly.zero(chart)
    for fib, comp in zip(FIBER_VARIABLES, field.components):
        if not comp.is_zero():
            total = total + MultiPoly.variable(chart, fib) * extend_poly(comp, chart)
    return total


def _conjugate_indices(chart: Chart) -> List[Tuple[int, int]]:
    """The (fiber, base) chart indices of CONJUGATE_PAIRS."""
    return [(chart.index(fib), chart.index(base)) for fib, base in CONJUGATE_PAIRS]


def poisson_bracket(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """{f, g} = sum_a (df/dfiber_a dg/dbase_a - df/dbase_a dg/dfiber_a),
    summed in one term map from the cached partials; absent ones are skipped.

    The sign convention is pinned by {H_X1, H_X2} = 2 r12 = H_[X1,X2].
    """
    if f.chart != g.chart:
        raise ChartMismatchError("arguments on different charts")
    df, dg = f.partials(), g.partials()
    acc: dict = {}
    for fib, base in _conjugate_indices(f.chart):
        mul_add(acc, df.get(fib, {}), dg.get(base, {}))
        mul_add(acc, df.get(base, {}), dg.get(fib, {}), -1)
    return MultiPoly._trusted(f.chart, acc)


class CovectorFiber:
    s: Fraction
    r: Tuple[Fraction, ...]  # (r12, r13, r14, r23, r24, r34)

    def __init__(self, s, r):
        if len(r) != 6:
            raise ValueError("need six r components")
        self.s, self.r = s, r

    def __eq__(self, other):
        return isinstance(other, CovectorFiber) and self.as_seq() == other.as_seq()

    def as_seq(self) -> Tuple[Fraction, ...]:
        return (self.s,) + tuple(self.r)

    def is_zero(self) -> bool:
        return self.s == 0 and all(x == 0 for x in self.r)


class ControlVector:
    u: Tuple[Fraction, ...]
    v: Tuple[Fraction, ...]

    def __init__(self, u, v):
        if len(u) != 4 or len(v) != 4:
            raise ValueError("need u, v of length 4")
        self.u, self.v = u, v

    def as_seq(self) -> Tuple[Fraction, ...]:
        return tuple(self.u) + tuple(self.v)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.as_seq())


def form_Q(w: ControlVector) -> Fraction:
    return sum((a * b for a, b in zip(w.u, w.v)), Fraction(0))


def form_R(c: CovectorFiber) -> Fraction:
    r12, r13, r14, r23, r24, r34 = c.r
    return c.s * c.s - 4 * (r12 * r34 - r13 * r24 + r14 * r23)


def gram_R() -> List[List[int]]:
    """Gram matrix of R on the basis (ds, dr12, dr13, dr14, dr23, dr24, dr34)."""
    g = [[0] * 7 for _ in range(7)]
    g[0][0] = 1
    for a, b, val in ((1, 6, -2), (2, 5, 2), (3, 4, -2)):
        g[a][b] = g[b][a] = val
    return g


# the nonzero integer Gram entries (i, j, g_ij) of 2Q on (u1..u4, v1..v4) and of R
_GRAM_Q_TERMS = [(k, l, 1) for i in range(4) for k, l in ((i, 4 + i), (4 + i, i))]
_GRAM_R_TERMS = [(i, j, g) for i, row in enumerate(gram_R()) for j, g in enumerate(row) if g]


def _pairing(terms, a: Sequence, b: Sequence):
    return dot(*zip(*((a[i], b[j], g) for i, j, g in terms)))


def bilinear_Q(a: Sequence, b: Sequence):
    """Polarization of Q on 8-vectors (u1..u4, v1..v4), entries in any ring:
    bilinear_Q(w, w) = Q(w). The Gram terms are the integers of 2Q and the
    1/2 is applied once, so integer vectors pair at int speed."""
    return _pairing(_GRAM_Q_TERMS, a, b) * Fraction(1, 2)


def bilinear_R(a: Sequence, b: Sequence):
    """Polarization of R on 7-vectors (s, r12, r13, r14, r23, r24, r34); its
    Gram terms are the integers 1 and +-2."""
    return _pairing(_GRAM_R_TERMS, a, b)


def build_A11(r: Sequence):
    """Upper-left 4x4 block of A; r = (r12, r13, r14, r23, r24, r34), any ring."""
    r12, r13, r14, r23, r24, r34 = r
    z = r12 * 0
    return [
        [z, 2 * r12, 2 * r13, 2 * r14],
        [-2 * r12, z, 2 * r23, 2 * r24],
        [-2 * r13, -2 * r23, z, 2 * r34],
        [-2 * r14, -2 * r24, -2 * r34, z],
    ]


def build_A22(r: Sequence):
    r12, r13, r14, r23, r24, r34 = r
    z = r12 * 0
    return [
        [z, 2 * r34, -2 * r24, 2 * r23],
        [-2 * r34, z, 2 * r14, -2 * r13],
        [2 * r24, -2 * r14, z, 2 * r12],
        [-2 * r23, 2 * r13, -2 * r12, z],
    ]


def build_A(lam: Sequence) -> List[List]:
    """The 8x8 skew constraint matrix [[A11, -sI], [sI, A22]] of
    lam = (s, r12, r13, r14, r23, r24, r34)."""
    s, r = lam[0], lam[1:]
    a11 = build_A11(r)
    a22 = build_A22(r)
    z = s * 0
    out = []
    for i in range(4):
        out.append(a11[i] + [(-s if j == i else z) for j in range(4)])
    for i in range(4):
        out.append([(s if j == i else z) for j in range(4)] + a22[i])
    return out


def build_U(w: Sequence) -> List[List]:
    """The 8x7 matrix of w = (u1..u4, v1..v4), with columns (s, r12, r13, r14,
    r23, r24, r34)."""
    u1, u2, u3, u4, v1, v2, v3, v4 = w
    z = u1 * 0
    return [
        [-v1, 2 * u2, 2 * u3, 2 * u4, z, z, z],
        [-v2, -2 * u1, z, z, 2 * u3, 2 * u4, z],
        [-v3, z, -2 * u1, z, -2 * u2, z, 2 * u4],
        [-v4, z, z, -2 * u1, z, -2 * u2, -2 * u3],
        [u1, z, z, z, 2 * v4, -2 * v3, 2 * v2],
        [u2, z, -2 * v4, 2 * v3, z, z, -2 * v1],
        [u3, 2 * v4, z, -2 * v2, z, 2 * v1, z],
        [u4, -2 * v3, 2 * v2, z, -2 * v1, z, z],
    ]


def twisted_gram(w: Sequence) -> List[List]:
    """The 7x7 product tU''·U' + tU'·U'' (U', U'' the upper/lower halves of U(w))."""
    m = build_U(w)
    upper, lower = m[:4], m[4:]
    a = mat_mul(transpose(lower), upper)
    b = mat_mul(transpose(upper), lower)
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def svc_membership(w: ControlVector) -> Tuple[bool, Optional[CovectorFiber]]:
    """Membership of (u, v) in the singular-velocity cone, with a witness.

    Membership is Q(w) = 0; the witness is a nonzero covector (s, r) with
    A(s, r)·(u, v) = 0, found as a kernel vector of U(w).
    """
    if form_Q(w) != 0:
        return False, None
    if w.is_zero():
        # degenerate: every covector works; return a canonical R-null one
        return True, CovectorFiber(Fraction(0), (Fraction(1),) + (Fraction(0),) * 5)
    # U is linear in w, so w scaled to integers has the same kernel
    rank, basis = mat_rank_kernel(build_U(integer_vector(w.as_seq())[0]))
    if not basis:
        raise ValueError("unexpected trivial kernel for a Q-null control vector")
    vec = basis[0]
    return True, CovectorFiber(vec[0], tuple(vec[1:]))


# ---------------------------------------------------------------------------
# symbolic identity checks
# ---------------------------------------------------------------------------


def _sym_r(chart: Chart) -> List[MultiPoly]:
    return [MultiPoly.variable(chart, f"r{n}") for n in R_NAMES]


def _pf_expr(chart: Chart) -> MultiPoly:
    r12, r13, r14, r23, r24, r34 = _sym_r(chart)
    return r12 * r34 - r13 * r24 + r14 * r23


# for each coordinate x of w = (u1..u4, v1..v4): the rows and columns of U(w)
# whose 4x4 minor is sign * 8 x^4, so that rank(U) >= 4 wherever w != 0
U_MINORS = (
    ("u1", (1, 2, 3, 4), (0, 1, 2, 3), 8), ("u2", (0, 2, 3, 5), (0, 1, 4, 5), -8),
    ("u3", (0, 1, 3, 6), (0, 2, 4, 6), 8), ("u4", (0, 1, 2, 7), (0, 3, 5, 6), -8),
    ("v1", (0, 5, 6, 7), (0, 4, 5, 6), 8), ("v2", (1, 4, 6, 7), (0, 2, 3, 6), -8),
    ("v3", (2, 4, 5, 7), (0, 1, 3, 5), 8), ("v4", (3, 4, 5, 6), (0, 1, 2, 4), -8),
)  # fmt: skip


def verify_matrix_identities() -> List[Item]:
    items: List[Item] = []
    cov = Chart("cov7", COV7_VARIABLES)
    zero = MultiPoly.zero(cov)
    s = MultiPoly.variable(cov, "s")
    r = _sym_r(cov)
    p = _pf_expr(cov)

    a11 = build_A11(r)
    a22 = build_A22(r)
    det11 = det_cofactor(a11)
    det22 = det_cofactor(a22)
    want_det = (4 * p) * (4 * p)
    items.append(
        check(
            "matrix:det-A11-A22",
            "det(A11) = det(A22) = {4(r12r34 - r13r24 + r14r23)}^2",
            det11 == want_det and det22 == want_det,
            computed=f"det(A11) = {det11}",
            expected=str(want_det),
        )
    )
    pf11 = pfaffian(a11)
    items.append(
        check(
            "matrix:pfaffian-A11",
            "Pf(A11) = +-4(r12r34 - r13r24 + r14r23) with Pf^2 = det",
            (pf11 == 4 * p or pf11 == -4 * p) and pf11 * pf11 == det11,
            computed=str(pf11),
            expected=f"+-({4 * p})",
        )
    )
    prod1 = mat_mul(a11, a22)
    prod2 = mat_mul(a22, a11)
    target = [[(-4 * p if i == j else zero) for j in range(4)] for i in range(4)]
    items.append(
        check(
            "matrix:A11A22-scalar",
            "A11 A22 = A22 A11 = -4(r12r34 - r13r24 + r14r23) I",
            prod1 == target and prod2 == target,
            computed="both products checked symbolically",
        )
    )
    # (A squared) consequence: B A = R I8 with B = [[A22, sI], [-sI, A11]],
    # so a nontrivial kernel of A forces R = 0.
    a_full = build_A([s] + r)
    b_rows = []
    for i in range(4):
        b_rows.append(a22[i] + [(s if j == i else zero) for j in range(4)])
    for i in range(4):
        b_rows.append([(-s if j == i else zero) for j in range(4)] + a11[i])
    prod = mat_mul(b_rows, a_full)
    r_poly = s * s - 4 * p
    target8 = [[(r_poly if i == j else zero) for j in range(8)] for i in range(8)]
    items.append(
        check(
            "matrix:BA-R-identity",
            "[[A22, sI], [-sI, A11]]·A = (s^2 - 4 Pf-expr) I8; kernel forces R = 0",
            prod == target8,
        )
    )

    # rank structure at s = 0 on the degenerate locus p = 0, r != 0: with
    # adj(A11) = -4p A22 and adj(A22) = -4p A11 every 3x3 minor vanishes there,
    # and a nonzero entry a of either skew block gives the principal 2x2 minor
    # a^2, so both ranks are 2, and A11 A22 = -4p I puts im(A22) in ker(A11)
    defects = []
    for name, m, other in (("A11", a11, a22), ("A22", a22, a11)):
        adj = adjugate(m)
        defects += [
            f"adj({name})[{i}][{j}] = {adj[i][j]}"
            for i in range(4) for j in range(4) if adj[i][j] != -4 * p * other[i][j]
        ]  # fmt: skip
        defects += [
            f"{name} is not skew at {(i, j)}"
            for i in range(4) for j in range(i, 4) if m[i][j] != -m[j][i]
        ]  # fmt: skip
    if prod1 != target:
        defects.append("premise matrix:A11A22-scalar fails")
    items.append(
        check(
            "matrix:s0-rank-A11",
            "at s=0 on the degenerate locus: rank(A11) = 2 and ker(A11) = im(A22)",
            not defects,
            computed=defects[0] if defects else "adj(A11) = -4p A22 and adj(A22) = -4p A11",
            expected="adjugates -4p times the other block, both blocks skew",
        )
    )

    # twisted Gram shape and determinant
    ctrl = Chart("ctrl8", CONTROL_VARIABLES)
    zc = MultiPoly.zero(ctrl)
    w = [MultiPoly.variable(ctrl, n) for n in CONTROL_VARIABLES]
    q = w[0] * w[4] + w[1] * w[5] + w[2] * w[6] + w[3] * w[7]
    tg = twisted_gram(w)
    expected_slots = {
        (0, 0): -2 * q,
        (1, 6): 4 * q, (6, 1): 4 * q,
        (2, 5): -4 * q, (5, 2): -4 * q,
        (3, 4): 4 * q, (4, 3): 4 * q,
    }
    shape_ok = all(
        tg[i][j] == expected_slots.get((i, j), zc) for i in range(7) for j in range(7)
    )
    items.append(
        check(
            "matrix:tUU-shape",
            "tU''U' + tU'U'' has only the eight +-2Q/+-4Q slots nonzero",
            shape_ok,
            computed="entry (1,1) = " + str(tg[0][0]),
            expected="-2Q and the three +-4Q off-diagonal pairs",
        )
    )
    det_tg = det_cofactor(tg)
    # Q is homogeneous of degree 2, so det = c * Q^k forces k = deg(det) / 2,
    # and c is det at u1 = v1 = 1, the rest 0, where Q = 1
    k = det_tg.degree() // 2
    qk = zc + 1
    for _ in range(k):
        qk = qk * q
    c_val = det_tg.evaluate({n: int(n in ("u1", "v1")) for n in CONTROL_VARIABLES})
    is_power = det_tg == c_val * qk
    items.append(
        check(
            "matrix:det-tUU-form",
            "det(tU''U' + tU'U'') is an integer multiple of a power of Q",
            is_power and c_val.denominator == 1,
            computed=f"c = {c_val}, k = {k}" if is_power else str(det_tg),
            expected="c * Q^k",
        )
    )
    # built by hand: the pass shows "8192 Q^8", the discrepancy "8192 Q^8 (published)"
    if is_power and k == 8 and c_val == 8192:
        items.append(
            check(
                "matrix:det-tUU-exponent",
                "det(tUU) exponent matches the published value 2^13 Q^8",
                True,
                computed=f"{c_val} Q^{k}",
                expected="8192 Q^8",
            )
        )
    elif is_power:
        items.append(
            Item(
                "matrix:det-tUU-exponent",
                "det(tUU) compared with the published 2^13 Q^8",
                DISCREPANCY,
                computed=f"{c_val} Q^{k}",
                expected="8192 Q^8 (published)",
                note="computed determinant disagrees with the published"
                " exponent; the 7x7 matrix has entries linear in Q, so"
                " Q^7 is forced",
            )
        )

    # bilinear identity U(w)·(s,r) = A(s,r)·(u,v) in all 15 scalars
    big = Chart("uvsr15", CONTROL_VARIABLES + COV7_VARIABLES)
    uv = [MultiPoly.variable(big, n) for n in CONTROL_VARIABLES]
    sr = [MultiPoly.variable(big, n) for n in COV7_VARIABLES]
    items.append(
        check(
            "matrix:U-A-bilinear",
            "U(u,v)·(s,r) = A(s,r)·(u,v) as a bilinear identity in 15 scalars",
            mat_vec(build_U(uv), sr) == mat_vec(build_A(sr), uv),
        )
    )

    # rank dichotomy of U: tU J U (J = [[0, I], [I, 0]]) is the twisted Gram
    # Q K with det(K) != 0, so Q != 0 gives rank 7; Q = 0 makes im(U)
    # J-isotropic, and J has Witt index 4; the minors give rank >= 4 at w != 0
    u_sym = build_U(w)
    defects = []
    for x, rows, cols, sign in U_MINORS:
        minor = det_cofactor([[u_sym[i][j] for j in cols] for i in rows])
        xv = MultiPoly.variable(ctrl, x)
        if minor != sign * xv * xv * xv * xv:
            defects.append(f"minor on rows {rows}, cols {cols} = {minor}")
    if not shape_ok:
        defects.append("premise matrix:tUU-shape fails")
    if not (is_power and c_val):
        defects.append("premise matrix:det-tUU-form gives no nonzero c")
    items.append(
        check(
            "matrix:U-rank-dichotomy",
            "rank(U) = 7 when Q != 0 and 4 when Q = 0 (w != 0), on the whole chart",
            not defects,
            computed=defects[0] if defects else "8 minors +-8x^4; tU J U = Q K, det(K) != 0",
            expected="a +-8x^4 minor for each coordinate x",
        )
    )
    return items


# ---------------------------------------------------------------------------
# printed-display transcriptions (cross-check data only)
# ---------------------------------------------------------------------------


def printed_lift_displays(chart: Chart) -> Dict[str, MultiPoly]:
    """The eight published lift formulas, transcribed verbatim."""
    return {
        "X1": from_terms(chart, {("p1",): 1, ("y1", "s"): 1, ("x2", "r12"): -1, ("x3", "r13"): -1, ("x4", "r14"): -1}),
        "X2": from_terms(chart, {("p2",): 1, ("y2", "s"): 1, ("x1", "r12"): 1, ("x3", "r23"): -1, ("x4", "r24"): -1}),
        "X3": from_terms(chart, {("p3",): 1, ("y3", "s"): 1, ("x1", "r13"): 1, ("x2", "r23"): 1, ("x4", "r34"): -1}),
        "X4": from_terms(chart, {("p4",): 1, ("y4", "s"): 1, ("x1", "r14"): 1, ("x2", "r24"): 1, ("x3", "r34"): 1}),
        "Y1": from_terms(chart, {("q1",): 1, ("y4", "r23"): -1, ("y3", "r24"): 1, ("y2", "r34"): -1}),
        # the published display ends "- y_1 r_34"; the frame forces + y_1 r_34
        "Y2": from_terms(chart, {("q2",): 1, ("y4", "r13"): 1, ("y3", "r14"): -1, ("y1", "r34"): -1}),
        "Y3": from_terms(chart, {("q3",): 1, ("y4", "r12"): -1, ("y2", "r14"): 1, ("y1", "r24"): -1}),
        "Y4": from_terms(chart, {("q4",): 1, ("y3", "r12"): 1, ("y2", "r13"): -1, ("y1", "r23"): 1}),
    }


def printed_sharp_display(chart: Chart) -> Dict[str, MultiPoly]:
    """The published constrained-Hamiltonian right-hand sides, verbatim.

    Includes the "u4 u4" term in the z equation and the equation published
    under a second "q2" label (interpreted as the q4 slot).
    """
    d = {
        "z": from_terms(chart, {("u1", "y1"): 1, ("u2", "y2"): 1, ("u3", "y3"): 1, ("u4", "u4"): 1}),
        "s": MultiPoly.zero(chart),
        "p1": from_terms(chart, {("u2", "r12"): -1, ("u3", "r13"): -1, ("u4", "r14"): -1}),
        "p2": from_terms(chart, {("u1", "r12"): 1, ("u3", "r23"): -1, ("u4", "r24"): -1}),
        "p3": from_terms(chart, {("u1", "r13"): 1, ("u2", "r23"): 1, ("u4", "r34"): -1}),
        "p4": from_terms(chart, {("u1", "r14"): 1, ("u2", "r24"): 1, ("u3", "r34"): 1}),
        "q1": from_terms(chart, {("u1", "s"): -1, ("v2", "r34"): -1, ("v3", "r24"): 1, ("v4", "r23"): -1}),
        "q2": from_terms(chart, {("u2", "s"): -1, ("v1", "r34"): 1, ("v3", "r14"): -1, ("v4", "r13"): 1}),
        "q3": from_terms(chart, {("u3", "s"): -1, ("v1", "r24"): -1, ("v2", "r14"): 1, ("v4", "r12"): -1}),
        "q4": from_terms(chart, {("u4", "s"): -1, ("v1", "r23"): 1, ("v2", "r13"): -1, ("v3", "r12"): 1}),
        "x12": from_terms(chart, {("x2", "u1"): -1, ("x1", "u2"): 1, ("y4", "v3"): -1, ("y3", "v4"): 1}),
        "x13": from_terms(chart, {("x3", "u1"): -1, ("x1", "u3"): 1, ("y4", "v2"): 1, ("y2", "v4"): -1}),
        "x14": from_terms(chart, {("x4", "u1"): -1, ("x1", "u4"): 1, ("y3", "v2"): -1, ("y2", "v3"): 1}),
        "x23": from_terms(chart, {("x3", "u2"): -1, ("x2", "u3"): 1, ("y4", "v1"): -1, ("y1", "v4"): 1}),
        "x24": from_terms(chart, {("x4", "u2"): -1, ("x2", "u4"): 1, ("y3", "v1"): 1, ("y1", "v3"): -1}),
        "x34": from_terms(chart, {("x4", "u3"): -1, ("x3", "u4"): 1, ("y2", "v1"): -1, ("y1", "v2"): 1}),
    }
    for i in range(1, 5):
        d[f"x{i}"] = MultiPoly.variable(chart, f"u{i}")
        d[f"y{i}"] = MultiPoly.variable(chart, f"v{i}")
    for n in R_NAMES:
        d[f"r{n}"] = MultiPoly.zero(chart)
    return d


@cache
def lift_table(chart: Chart) -> Mapping[str, MultiPoly]:
    """H_e on the chart for each of the 15 frame fields, built once per chart
    and shared read-only; its GENERATOR_ORDER entries are the eight
    constraints H_X1..H_Y4."""
    return MappingProxyType({n: hamiltonian_lift(f, chart) for n, f in build_model().fields.items()})


def control_variables(chart: Chart) -> Dict[str, MultiPoly]:
    """The control variable of each generator: u_i for X_i, v_i for Y_i."""
    letter = {"X": "u", "Y": "v"}
    return {
        name: MultiPoly.variable(chart, letter[name[0]] + name[1])
        for name in GENERATOR_ORDER
    }


def hamiltonian(lifts: Mapping[str, MultiPoly], w: Mapping[str, object]) -> MultiPoly:
    """H = sum of lift * w over GENERATOR_ORDER; each w is a control
    variable or a rational."""
    h = MultiPoly.zero(lifts[GENERATOR_ORDER[0]].chart)
    for name in GENERATOR_ORDER:
        h = h + lifts[name] * w[name]
    return h


def hamilton_equations(h: MultiPoly) -> Dict[str, MultiPoly]:
    """The right-hand side of each variable: base' = dH/dfiber,
    fiber' = -dH/dbase, read off H's cached partials."""
    d, chart = h.partials(), h.chart
    out: Dict[str, MultiPoly] = {}
    for (fib, base), (i, j) in zip(CONJUGATE_PAIRS, _conjugate_indices(chart)):
        out[base] = MultiPoly._trusted(chart, d.get(i, {}))
        out[fib] = -MultiPoly._trusted(chart, d.get(j, {}))
    return out


@cache
def bracket_lifts(chart: Chart) -> Mapping[Tuple[str, str], MultiPoly]:
    """H_[a,b] on the chart for each two generators, built once per chart and
    shared read-only: sum_k c_k H_{e_k} over the lift table, with c the frame
    coordinates of [a, b] in the model's table (a lift is linear over functions)."""
    model = build_model()
    lifts = lift_table(chart)
    out: Dict[Tuple[str, str], MultiPoly] = {}
    for a in GENERATOR_ORDER:
        for b in GENERATOR_ORDER:
            terms = model.table.bracket(a, b).items()
            out[(a, b)] = sum((extend_poly(c, chart) * lifts[n] for n, c in terms), MultiPoly.zero(chart))
    return MappingProxyType(out)


def flow_rhs(chart: Chart, w: Mapping[str, object]) -> Dict[str, MultiPoly]:
    """sum_j w_j H_[xi_j, xi] for each generator xi, the right-hand side of
    the flow lemma d/dt H_xi = {H, H_xi}; zero weights are skipped."""
    lifted = bracket_lifts(chart)
    out: Dict[str, MultiPoly] = {}
    for name in GENERATOR_ORDER:
        total = MultiPoly.zero(chart)
        for other in GENERATOR_ORDER:
            if w[other] != 0:
                total = total + lifted[(other, name)] * w[other]
        out[name] = total
    return out


def verify_sharp_display() -> List[Item]:
    """Diff the published Hamiltonian-system display against the derivation."""
    chart = phase_control_chart()
    lifts = lift_table(chart)
    mech = hamilton_equations(hamiltonian(lifts, control_variables(chart)))
    printed = printed_sharp_display(chart)
    lifts_printed = printed_lift_displays(chart)
    items: List[Item] = []
    for name in GENERATOR_ORDER:
        items.append(
            against_paper(
                f"lift:H_{name}",
                f"published H_{name} display matches <p, {name}>",
                f"published H_{name} display vs computed <p, {name}>",
                lifts[name],
                lifts_printed[name],
                note="published display disagrees with the frame-derived"
                " lift; the frame and the published q-dot equations both"
                " force the computed sign",
            )
        )
    for var in COTANGENT_VARIABLES:
        items.append(
            against_paper(
                f"sharp:{var}-dot",
                f"published {var}-dot equation matches dH derivation",
                f"published {var}-dot equation vs dH derivation",
                mech[var],
                printed[var],
                note='published z-dot ends "u4 u4"; the Hamiltonian derivation'
                " gives u4 y4" if var == "z" else "",
            )
        )
    # built by hand: defects of the display's text, with no printed value to compare
    items.append(
        Item(
            "sharp:q4-label",
            "the equation in the q4 slot is published under a second q2 label",
            DISCREPANCY,
            computed="q4-dot",
            expected='published label "q2-dot" (twice)',
            note="content matches the q4 derivation exactly; only the label is off",
        )
    )
    items.append(
        Item(
            "sharp:ellipsis",
            "the published display abbreviates part of the fiber block with an ellipsis",
            DISCREPANCY,
            computed="all 15 fiber equations derived mechanically from -dH/dbase",
            expected="published display shows s-dot, p-dot, q-dot, r-dot only",
            note="derived equations agree with every published one up to the noted typos",
        )
    )
    return items


def verify_poisson_lift_table() -> List[Item]:
    """{H_xi, H_eta} = H_[xi, eta] for all 28 generator pairs."""
    chart = cotangent_chart()
    lifts = lift_table(chart)
    lifted = bracket_lifts(chart)
    items = []
    for i, a in enumerate(GENERATOR_ORDER):
        for b in GENERATOR_ORDER[i + 1 :]:
            want = lifted[(a, b)]
            got = poisson_bracket(lifts[a], lifts[b])
            items.append(
                check(
                    f"poisson:{{H_{a},H_{b}}}",
                    f"{{H_{a}, H_{b}}} = H_[{a},{b}]",
                    got == want,
                    computed=str(got) if got != want else "",
                    expected=str(want) if got != want else "",
                )
            )
    return items


def verify_flow_lemma_symbolic() -> List[Item]:
    """d/dt H_xi = {H, H_xi} = sum_j w_j H_[xi_j, xi] as exact polynomials."""
    chart = phase_control_chart()
    lifts = lift_table(chart)
    w = control_variables(chart)
    h = hamiltonian(lifts, w)
    rhs = flow_rhs(chart, w)
    items: List[Item] = []
    for name in GENERATOR_ORDER:
        items.append(
            check(
                f"flow:H_{name}",
                f"{{H, H_{name}}} = sum_j w_j H_[xi_j, {name}] in 38 variables",
                poisson_bracket(h, lifts[name]) == rhs[name],
            )
        )
    # built by hand: the published bracket order is text, with no printed value to compare
    items.append(
        Item(
            "flow:published-order",
            "the published flow lemma writes the bracket as [xi_i, xi_j]",
            DISCREPANCY,
            computed="d/dt H_{xi_i} = sum_j u_j H_[xi_j, xi_i] (verified exactly)",
            expected="published statement has H_[xi_i, xi_j]",
            note="a sign is dropped in the published proof's final step; the"
            " verified order is [xi_j, xi_i]",
        )
    )
    return items


# ---------------------------------------------------------------------------
# numerical integrator
# ---------------------------------------------------------------------------


class Trajectory:
    """An RK4 run of `steps` steps; `states` is None when the run kept none."""

    chart: Chart
    states: Optional[List[List[float]]]
    controls: ControlVector
    step: float
    steps: int

    def __init__(self, chart, states, controls, step, steps):
        self.chart, self.states, self.controls, self.step, self.steps = chart, states, controls, step, steps

    @property
    def times(self) -> List[float]:
        return [k * self.step for k in range(self.steps + 1)]


class DriftReport(NamedTuple):
    max_constraint_drift: float
    max_sr_drift: float
    step: float
    t_max: float

    def to_json(self) -> dict:
        return {
            "schema": "f4prolong/1",
            "max_constraint_drift": self.max_constraint_drift,
            "max_sr_drift": self.max_sr_drift,
            "step": self.step,
            "t_max": self.t_max,
        }


def initial_state(
    point: Optional[Sequence[Fraction]] = None, covector: Optional[Sequence[Fraction]] = None
) -> Dict[str, Fraction]:
    """Abnormal initial data over `point` (default the origin) with covector
    (s, r12, ..., r34) (default r12 = 1), on the constraints H_X1..H_Y4 = 0.
    H_Xi is p_i and H_Yi is q_i plus terms in s, r and the base, so each
    constraint fixes its own (p, q) slot."""
    point = [0] * len(BASE_VARIABLES) if point is None else point
    covector = [0, 1, 0, 0, 0, 0, 0] if covector is None else covector
    if len(point) != len(BASE_VARIABLES) or len(covector) != len(COV7_VARIABLES):
        raise ValueError(f"need a point of 15 and a covector of 7 entries, got {len(point)}, {len(covector)}")
    init = dict.fromkeys(COTANGENT_VARIABLES, Fraction(0))
    init.update(zip(BASE_VARIABLES + COV7_VARIABLES, map(Fraction, [*point, *covector])))
    lifts = lift_table(cotangent_chart())
    for name, slot in zip(GENERATOR_ORDER, FIBER_VARIABLES[1:9]):
        init[slot] = -lifts[name].evaluate(init)
    return init


def standard_initial_data() -> Tuple[Dict[str, Fraction], ControlVector]:
    """Abnormal initial data: origin base, covector r12 = 1, controls in ker A."""
    controls = ControlVector(
        (Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
    )
    return initial_state(), controls


# a run that keeps its states holds about 0.9 KB per step, so the step count is capped
MAX_STEPS = 100_000


def flow_deviation(constraints, rates, dimension: int, h: float) -> Callable:
    """The compiled `fold(states)`: the largest |(g(x+) - g(x-)) / (2 h) - rate(x)|
    over the constraints g, their rates and the inner states x, as max() folds
    it from 0.0; each polynomial is emitted once by `float_lines`."""
    x = [f"x{k}" for k in range(dimension)]
    n = range(len(constraints))
    body = [line for j, p in enumerate(constraints) for line in p.float_lines(x, f"a{j}")]
    body += ["if i > 1:"] + [f"    d = abs((a{j} - b{j}) / {2 * h!r} - r{j})\n    if d > max_dev: max_dev = d" for j in n]
    body += [f"b{j}, m{j} = m{j}, a{j}" for j in n]
    body += [line for j, p in enumerate(rates) for line in p.float_lines(x, f"r{j}")]
    loop = "\n".join(body).replace("\n", "\n        ")
    head = "".join(f"m{j} = " for j in n)
    namespace: dict = {}
    exec(f"def fold(states):\n    max_dev = {head}0.0\n    for i, ({', '.join(x)},) in enumerate(states):\n        {loop}\n    return max_dev", namespace)
    return namespace["fold"]


def rk4_run(rhs: Sequence[MultiPoly], h: float, checks: Sequence[MultiPoly], keep: bool = True) -> Callable:
    """Fixed-step RK4 of x' = rhs(x) as one compiled `run(s, n)` holding the state
    in locals: n steps from the list s, stopped before a state that is not finite.
    It returns (states, max_c, bad): over the states, the largest |check| and the
    first index where one is not finite, or -1. With `keep` false it keeps no
    state and returns (i, x, max_c, bad): the index of the last finite state and
    the state the loop ended on. A live slot (nonzero right-hand side) rounds as
    a list-based step: x + h/2 k1, x + h/2 k2, x + h k3, then
    x + h/6 (k1 + 2 k2 + 2 k3 + k4). A dead slot keeps x, which equals x + 0.0
    unless x is -0.0 (float() of a Fraction is -0.0 only when it underflows).
    A frozen slot reads only dead slots: its k1 = k2 = k3 = k4 is its
    evaluate_seq at s, and it and its increments are computed before the loop,
    which evaluates only the moving slots. When no fed slot moves, stage c's
    inputs are stage b's, so c_k is b_k."""
    def finite(names):  # their sum is finite, or each is: finite values may overflow the sum
        return f"isfinite({' + '.join(names)}) or all(map(isfinite, ({', '.join(names)},)))" if names else "True"

    live = [k for k, p in enumerate(rhs) if not p.is_zero()]
    reads = {k: set(rhs[k].support()) for k in live}
    moving = [k for k in live if not reads[k].isdisjoint(live)]
    frozen = [k for k in live if k not in moving]
    fed = [k for k in live if any(k in reads[j] for j in moving)]
    x = [f"x{k}" for k in range(len(rhs))]
    y = [f"y{k}" if k in fed else f"x{k}" for k in range(len(rhs))]
    head = [", ".join(x) + ", = s", "max_c = 0.0", "bad = -1"]
    head += ["states = [s]"] if keep else []
    head += [f"a{k} = p{k}.evaluate_seq(s)" for k in frozen]
    head += [f"half{k} = {h / 2!r} * a{k}\nwhole{k} = {h!r} * a{k}" for k in frozen if k in fed]
    head += [f"last{k} = {h / 6!r} * (a{k} + 2 * a{k} + 2 * a{k} + a{k})" for k in frozen]
    # the drift of state i, then step i + 1
    fold = [f"g{j}" for j in range(len(checks))]
    body = [line for j, p in enumerate(checks) for line in p.float_lines(x, f"g{j}")]
    body += [f"{g} = abs({g})" for g in fold]
    body += [f"if bad < 0 and not ({finite(fold)}):\n    bad = i"]
    body += [f"if {g} > max_c:\n    max_c = {g}" for g in fold]
    body += ["if i == n:\n    break"] + [line for k in moving for line in rhs[k].float_lines(x, f"a{k}")]
    # stage i's input is x + dt * k_i; a frozen slot adds its increment instead
    same_c = not any(k in moving for k in fed)  # then stage c's inputs are stage b's
    for i, (dt, before, increment) in enumerate(((h / 2, "a", "half"), (h / 2, "b", "half"), (h, "c", "whole"))):
        if i == 1 and same_c:
            body += [f"c{k} = b{k}" for k in moving]
            continue
        body += [f"y{k} = x{k} + " + (f"{increment}{k}" if k in frozen else f"{dt!r} * {before}{k}") for k in fed]
        body += [line for k in moving for line in rhs[k].float_lines(y, f"{'bcd'[i]}{k}")]
    body += [f"x{k} = x{k} + " + (f"last{k}" if k in frozen else f"{h / 6!r} * (a{k} + 2 * b{k} + 2 * c{k} + d{k})")
             for k in live]
    body += [f"if not ({finite([x[k] for k in live])}):\n    break"]
    body += [f"states.append([{', '.join(x)}])"] if keep else []
    loop = "\n".join(body).replace("\n", "\n    ")
    end = "return states, max_c, bad" if keep else f"return i, [{', '.join(x)}], max_c, bad"
    lines = head + ["for i in range(n + 1):", "    " + loop, end]
    namespace: dict = {"isfinite": math.isfinite, **{f"p{k}": rhs[k] for k in frozen}}
    exec("def run(s, n):\n    " + "\n".join(lines).replace("\n", "\n    "), namespace)
    return namespace["run"]


def integrate_extremal(
    init: Mapping[str, Fraction],
    controls: ControlVector,
    step: float,
    t_max: float,
    keep_states: bool = True,
) -> Tuple[Trajectory, DriftReport]:
    """Fixed-step RK4 on the 30-dimensional constrained Hamiltonian system by one
    `rk4_run`, which folds the constraints' drift; (s, r)' must be exactly 0.
    With `keep_states` false the trajectory holds no states."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be a positive finite number, got {step}")
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be a positive finite number, got {t_max}")
    if t_max / step > MAX_STEPS:
        raise ValueError(
            f"t_max / step = {t_max / step!r} exceeds the cap of {MAX_STEPS} steps"
        )
    n_steps = round(t_max / step)
    if n_steps < 1 or abs(t_max / step - n_steps) > 1e-9 * n_steps:
        raise ValueError(f"t_max = {t_max!r} is not a whole number of steps of {step!r}")
    chart = cotangent_chart()
    init = {v: Fraction(init[v]) for v in COTANGENT_VARIABLES}
    fiber_vals = [init[v] for v in FIBER_VARIABLES]
    if all(x == 0 for x in fiber_vals):
        raise ValueError("covector must not vanish (abnormality)")
    sr0 = [init[v] for v in COV7_VARIABLES]
    uv = list(controls.as_seq())
    if any(mat_vec(build_A(sr0), uv)):
        raise ValueError("controls do not lie in ker A(initial covector)")
    lifts = lift_table(chart)
    for name in GENERATOR_ORDER:
        val = lifts[name].evaluate(init)
        if val != 0:
            raise ValueError(f"initial data violates constraint H_{name} = {val}")

    # the constant-control Hamiltonian's right-hand sides, in chart order
    equations = hamilton_equations(hamiltonian(lifts, dict(zip(GENERATOR_ORDER, uv))))
    for v in COV7_VARIABLES:
        if not equations[v].is_zero():
            raise ValueError(f"(s, r) is not conserved: {v}' = {equations[v]}")
    try:
        state = [float(init[v]) for v in chart.variables]
    except OverflowError:
        raise ValueError("initial state does not fit in floats") from None
    checks = [lifts[n] for n in GENERATOR_ORDER]
    run = rk4_run([equations[v] for v in chart.variables], step, checks, keep_states)
    if keep_states:
        states, max_c, bad = run(state, n_steps)
        reached, last = len(states) - 1, states[-1]
    else:
        states = None
        reached, last, max_c, bad = run(state, n_steps)
    # a state beyond the floats wins over an earlier drift beyond them
    if reached < n_steps:
        raise ValueError(f"RK4 state is not finite at t = {(reached + 1) * step:.6g}")
    if bad >= 0:
        raise ValueError(f"constraint drift is not finite at t = {bad * step:.6g}")
    # the run never assigns a dead slot, so the last state holds every state's (s, r)
    max_sr = max(abs(last[k] - state[k]) for k in map(chart.index, COV7_VARIABLES))
    return Trajectory(chart, states, controls, step, n_steps), DriftReport(max_c, max_sr, step, t_max)


def verify_flow_lemma_numeric(traj: Trajectory) -> List[Item]:
    """Central-difference check of the flow lemma along a trajectory: one
    `flow_deviation` pass over the eight constraints and their rates."""
    if len(traj.states or ()) < 3:
        raise ValueError("trajectory holds too few states for central differences")
    lifts = lift_table(traj.chart)
    flow = flow_rhs(traj.chart, dict(zip(GENERATOR_ORDER, traj.controls.as_seq())))
    polys = [[t[n] for n in GENERATOR_ORDER] for t in (lifts, flow)]
    max_dev = flow_deviation(*polys, traj.chart.dimension, traj.step)(traj.states)
    return [
        check(
            "flow:numeric",
            "central-difference flow-lemma deviation < 1e-06",
            max_dev < 1e-6,
            computed=f"{max_dev:.3e}",
            expected="< 1e-06",
        )
    ]


# the matrix items that svc:samples rests on
SVC_PREMISES = ("matrix:U-rank-dichotomy", "matrix:U-A-bilinear", "matrix:BA-R-identity")


def verify_svc(matrix_items: Sequence[Item]) -> List[Item]:
    """Membership iff Q = 0, with R-null witnesses in ker A, from the matrix
    items: Q != 0 gives rank U = 7, so no lam has A(lam)·w = U(w)·lam = 0; Q = 0
    and w != 0 give dim ker U = 3, and B A(lam) w = R(lam) w = 0 forces R = 0."""
    status = {item.id: item.status for item in matrix_items}
    failing = [name for name in SVC_PREMISES if status.get(name) != PASS]
    return [
        check(
            "svc:samples",
            "SVC membership iff Q = 0 with R-null witnesses in ker A, on the whole chart",
            not failing,
            computed=f"failing premise: {failing[0]}" if failing else ", ".join(SVC_PREMISES),
            expected="all premises pass",
        )
    ]


def verify_suite() -> List[Item]:
    items: List[Item] = []
    items.extend(verify_sharp_display())
    items.extend(verify_poisson_lift_table())
    matrix = verify_matrix_identities()
    items.extend(matrix)
    items.extend(verify_svc(matrix))
    items.extend(verify_flow_lemma_symbolic())
    init, controls = standard_initial_data()
    traj, drift = integrate_extremal(init, controls, 1e-3, 1.0, keep_states=True)
    items.append(
        check(
            "integrate:drift",
            "standard abnormal run: constraint and (s, r) drift < 1e-8",
            drift.max_constraint_drift < 1e-8 and drift.max_sr_drift < 1e-8,
            computed=f"constraint {drift.max_constraint_drift:.3e}, sr {drift.max_sr_drift:.3e}",
            expected="< 1e-8",
        )
    )
    items.extend(verify_flow_lemma_numeric(traj))
    return items
