"""Exact linear algebra: one incremental fraction-free echelon for rank,
kernel, solve and span membership; cofactor determinants and Pfaffians.

`integer_vector` clears the denominators of a rational vector once; the
echelon reduces those integer rows, and `svc_membership` and `lambda_to_v`
eliminate such integer representatives of their vectors.

Entries are ints or Fractions for the numeric routines, as MultiPoly stores
its coefficients. The cofactor determinant, the adjugate, the Pfaffian and
the matrix products take entries in ints, Fractions and MultiPoly alike and
take no identity arguments. Their sums of products go through one kernel,
`dot`, which skips every pair with a zero factor and accumulates polynomial
products into one term map; its sum lies in the ring that the entries give.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from typing import Collection, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from .poly import MultiPoly, mul_add

# sparse integer vector: key -> nonzero int
Vec = Dict[Hashable, int]


def integer_vector(seq: Collection[Fraction]) -> Tuple[List[int], int]:
    """Integers n and the lcm d of the denominators with seq[i] == n[i] / d."""
    d = lcm(*(x.denominator for x in seq))
    return [x.numerator * (d // x.denominator) for x in seq], d


def _axpy(a: int, x: Vec, b: int, y: Vec) -> Vec:
    """a*x + b*y with zero entries dropped."""
    out = {k: a * v for k, v in x.items()}
    for k, v in y.items():
        s = out.get(k, 0) + b * v
        if s:
            out[k] = s
        else:
            del out[k]
    return out


class Echelon:
    """Incremental fraction-free echelon of sparse rational vectors.

    A vector is a mapping key -> number over sortable keys; inputs are
    numbered in the order they are added. Each stored row is an integer
    vector whose pivot is its smallest key, kept with its tag: the integer
    combination {input number: coefficient} of the inputs that equals it.
    Row and tag are divided by their common gcd. Stored rows and their tags
    involve only the inputs that were independent of the inputs before them,
    so every combination and relation leaves the dependent inputs at 0.
    """

    def __init__(self) -> None:
        self._rows: Dict[Hashable, Tuple[Vec, Vec]] = {}
        self._pivots: List[Hashable] = []  # ascending
        self.count = 0
        # dependent input number -> the relation that expresses it: a kernel
        # vector {input number: Fraction} with 1 at that input
        self.relations: Dict[int, Dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _reduce(self, vec: Mapping[Hashable, Fraction]) -> Tuple[Vec, Vec]:
        """vec as an integer row with tag {self.count: scale}, reduced against
        every stored pivot; the row comes back empty iff vec is in the span."""
        ints, m = integer_vector(vec.values())
        row = {k: n for k, n in zip(vec, ints) if n}
        tag = {self.count: m}
        for p in self._pivots:
            b = row.get(p)
            if b:
                prow, ptag = self._rows[p]
                a = prow[p]
                g = gcd(a, b)
                a, b = a // g, -b // g
                row = _axpy(a, row, b, prow)
                tag = _axpy(a, tag, b, ptag)
        return row, tag

    def add(self, vec: Mapping[Hashable, Fraction]) -> bool:
        """Add vec as the next input; True iff it is independent of the
        inputs before it (else its relation is recorded)."""
        row, tag = self._reduce(vec)
        n = self.count
        self.count += 1
        if not row:
            own = tag[n]
            self.relations[n] = {i: Fraction(c, own) for i, c in tag.items()}
            return False
        g = gcd(*row.values(), *tag.values())
        row = {k: v // g for k, v in row.items()}
        tag = {k: v // g for k, v in tag.items()}
        pivot = min(row)
        self._rows[pivot] = (row, tag)
        insort(self._pivots, pivot)
        return True

    def combination(self, vec: Mapping[Hashable, Fraction]) -> Optional[List[Fraction]]:
        """Rational c with vec = sum c_i input_i (0 on dependent inputs), or
        None when vec is outside the span."""
        row, tag = self._reduce(vec)
        if row:
            return None
        own = -tag.pop(self.count)
        out = [Fraction(0)] * self.count
        for i, c in tag.items():
            out[i] = Fraction(c, own)
        return out


def sparse(seq: Sequence[Fraction]) -> Dict[int, Fraction]:
    """A dense sequence as a sparse vector keyed by position."""
    return {j: x for j, x in enumerate(seq) if x}


def _column_echelon(rows: Sequence[Sequence[Fraction]], ncols: int) -> Echelon:
    """Echelon of the columns of a row-major matrix, added left to right."""
    ech = Echelon()
    for j in range(ncols):
        ech.add({i: row[j] for i, row in enumerate(rows) if row[j]})
    return ech


def mat_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    ech = Echelon()
    for row in rows:
        ech.add(sparse(row))
    return ech.rank


def mat_rank_kernel(rows: Sequence[Sequence[Fraction]]) -> Tuple[int, List[Tuple[Fraction, ...]]]:
    """Rank and a canonical basis of the right kernel.

    Kernel vectors carry 1 in their own free column and 0 in every other free
    column (column-echelon canonical form), so bases compare deterministically.
    A free column is one that depends on the columns before it, and its kernel
    vector is that dependency.
    """
    ncols = len(rows[0]) if rows else 0
    ech = _column_echelon(rows, ncols)
    zero = Fraction(0)
    basis = [
        tuple(rel.get(j, zero) for j in range(ncols))
        for rel in ech.relations.values()
    ]
    return ech.rank, basis


def _square(rows, what: str) -> int:
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ValueError(f"{what} of an empty or non-square matrix")
    return len(rows)


def dot(a, b, weights=None):
    """sum(x * y * w) over the pairs of a and b, w from the int weights (1 when
    None), for ints, Fractions and MultiPoly alike. A pair with a zero factor is
    skipped; the other polynomial pairs are added into one term map by `mul_add`,
    and scalar pairs add as numbers. The sum lies in the ring of all the pairs,
    zero ones included: a MultiPoly on the chart of the first polynomial, else a
    Fraction if a factor is one, else an int. A polynomial on another chart
    raises ChartMismatchError."""
    first, acc, total = None, {}, 0
    for x, y, w in zip(a, b, repeat(1) if weights is None else weights):
        px, py = type(x) is MultiPoly, type(y) is MultiPoly
        if px or py:
            if first is None:
                first = x if px else y
            if px:
                first._check(x)
            if py:
                first._check(y)
            if x and y and w:
                mul_add(acc, x.terms if px else {0: x}, y.terms if py else {0: y}, w)
        elif x and y and w:
            total = total + x * y * w
        elif type(total) is int and Fraction in (type(x), type(y)):
            total = Fraction(total)
    if first is None:
        return total
    out = MultiPoly._trusted(first.chart, acc)
    return out + total if total else out


def det_cofactor(rows):
    """Determinant by cofactor expansion; generic entries, dims <= 8.

    Expansion prunes zero entries, so the sparse symbolic matrices in scope
    stay small. Each expansion is one `dot`, led by the pair (rows[0][0] * 0, 1)
    so that a row of zeros sums to the zero of that entry's ring.
    """
    _square(rows, "determinant")
    zero = rows[0][0] * 0

    def rec(mat):
        k = len(mat)
        if k == 1:
            return mat[0][0]
        terms = [(e, rec([r[:j] + r[j + 1 :] for r in mat[1:]]), (-1) ** j) for j, e in enumerate(mat[0]) if e]
        return dot(*zip((zero, 1, 1), *terms))

    return rec([list(r) for r in rows])


def adjugate(rows):
    """adj(M)[i][j] = (-1)^(i+j) det(M without row j and column i), any ring."""
    minor = lambda i, j: [r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j]
    n = range(len(rows))
    return [[det_cofactor(minor(i, j)) * (-1) ** (i + j) for j in n] for i in n]


def pfaffian(rows):
    """Pfaffian of a skew-symmetric matrix by first-row expansion.

    Pf([[0, a], [-a, 0]]) = a. Raises on odd dimension or a non-skew matrix.
    """
    n = _square(rows, "pfaffian")
    if n % 2 != 0:
        raise ValueError("pfaffian needs even dimension")
    for i in range(n):
        for j in range(i, n):
            if not bool(rows[i][j] == -rows[j][i]):
                raise ValueError("matrix is not skew-symmetric")
    zero = rows[0][0] * 0

    def rec(mat):
        k = len(mat)
        if k == 2:
            return mat[0][1]
        terms = []
        for j in range(1, k):
            if mat[0][j]:
                keep = [c for c in range(k) if c not in (0, j)]
                terms.append((mat[0][j], rec([[mat[r][c] for c in keep] for r in keep]), (-1) ** (j + 1)))
        return dot(*zip((zero, 1, 1), *terms))

    return rec([list(r) for r in rows])


def solve_exact(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[List[Fraction]]:
    """One exact solution of A x = b (free unknowns 0), or None if inconsistent."""
    if not rows:
        return []
    return _column_echelon(rows, len(rows[0])).combination(sparse(rhs))


def mat_mul(a, b):
    """Matrix product; entries in any ring."""
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


def mat_vec(m, x):
    """Matrix-vector product; entries in any ring."""
    return [dot(row, x) for row in m]


def transpose(a):
    return [list(col) for col in zip(*a)]
