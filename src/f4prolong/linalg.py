"""Exact linear algebra: one incremental fraction-free echelon for rank,
kernel, solve and span membership; cofactor determinants and Pfaffians.

`integer_vector` clears the denominators of a rational vector once; the
echelon reduces those integer rows, and `svc_membership` and `lambda_to_v`
eliminate such integer representatives of their vectors.

Entries are ints or Fractions for the numeric routines, as MultiPoly stores
its coefficients. The cofactor determinant, the adjugate, the Pfaffian and
the matrix products take entries in any commutative ring (e.g. MultiPoly),
read its zero off the entries (`entry * 0`) and take no identity arguments.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

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


def det_cofactor(rows):
    """Determinant by cofactor expansion; generic entries, dims <= 8.

    Expansion prunes zero entries, so the sparse symbolic matrices in scope
    stay small.
    """
    _square(rows, "determinant")
    zero = rows[0][0] * 0

    def rec(mat):
        k = len(mat)
        if k == 1:
            return mat[0][0]
        acc = zero
        for j, entry in enumerate(mat[0]):
            if entry == zero:
                continue
            minor = [[row[c] for c in range(k) if c != j] for row in mat[1:]]
            term = entry * rec(minor)
            acc = acc + (term if j % 2 == 0 else -term)
        return acc

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
        acc = zero
        for j in range(1, k):
            entry = mat[0][j]
            if entry == zero:
                continue
            keep = [c for c in range(k) if c not in (0, j)]
            minor = [[mat[r][c] for c in keep] for r in keep]
            term = entry * rec(minor)
            acc = acc + (term if j % 2 == 1 else -term)
        return acc

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
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def mat_vec(m, x):
    """Matrix-vector product; entries in any ring."""
    return [sum(a * b for a, b in zip(row, x)) for row in m]


def transpose(a):
    return [list(col) for col in zip(*a)]
