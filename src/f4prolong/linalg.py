"""Exact linear algebra: one fraction-free echelon for rank, kernel and solve;
cofactor determinants and Pfaffians.

Entries are Fractions for the numeric routines; the cofactor determinant and the
Pfaffian also accept any commutative-ring elements (e.g. MultiPoly).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

Row = List[Fraction]


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (rank/kernel preserving)."""
    out = []
    for row in rows:
        row = [x if isinstance(x, Fraction) else Fraction(x) for x in row]
        m = lcm(*(x.denominator for x in row)) if row else 1
        out.append([x.numerator * (m // x.denominator) for x in row])
    return out


def _bareiss_echelon(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free (Bareiss) elimination to row-echelon form.

    Returns the integer echelon matrix and the list of pivot columns.
    """
    m = [row for row in _integer_rows(rows) if any(row)]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        top = m[r]
        piv = top[c]
        for i in range(r + 1, nrows):
            row = m[i]
            a = row[c]
            # Bareiss update: every division by the previous pivot is exact,
            # also on rows with a = 0, whose zero entries stay zero.
            if a:
                for j in range(c + 1, ncols):
                    row[j] = (piv * row[j] - a * top[j]) // prev
                row[c] = 0
            elif piv != prev:
                for j in range(c + 1, ncols):
                    if row[j]:
                        row[j] = piv * row[j] // prev
        prev = piv
        pivots.append(c)
        r += 1
    return m, pivots


def _back_substitute(ech: list[list[int]], pivots: list[int], v: list[Fraction]) -> list[Fraction]:
    """Fill the pivot entries of v so that every echelon row annihilates v."""
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        row = ech[i]
        s = sum((row[j] * v[j] for j in range(c + 1, len(v)) if v[j]), Fraction(0))
        v[c] = -s / row[c]
    return v


def mat_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    _, pivots = _bareiss_echelon(rows)
    return len(pivots)


def prefix_ranks(rows: Sequence[Sequence[Fraction]]) -> List[int]:
    """rank(rows[:n]) for n = 1..len(rows), from one echelon of the transpose.

    Column c of the transpose is a pivot exactly when row c is independent of
    the rows before it.
    """
    _, pivots = _bareiss_echelon(transpose(rows))
    independent = set(pivots)
    ranks, r = [], 0
    for n in range(len(rows)):
        r += n in independent
        ranks.append(r)
    return ranks


def mat_rank_kernel(
    rows: Sequence[Sequence[Fraction]], cols: Optional[int] = None
) -> Tuple[int, List[Tuple[Fraction, ...]]]:
    """Rank and a canonical basis of the right kernel.

    Kernel vectors carry 1 in their own free column and 0 in every other free
    column (column-echelon canonical form), so bases compare deterministically.
    """
    ncols = len(rows[0]) if rows else (cols or 0)
    ech, pivots = _bareiss_echelon(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        basis.append(tuple(_back_substitute(ech, pivots, v)))
    return len(pivots), basis


def det_cofactor(rows, zero, one):
    """Determinant by cofactor expansion; generic entries, dims <= 8.

    `zero`/`one` are the ring's additive and multiplicative identities.
    Expansion prunes zero entries, so the sparse symbolic matrices in scope
    stay small.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")

    def _is_zero(x):
        z = x == zero
        return bool(z)

    def rec(mat):
        k = len(mat)
        if k == 0:
            return one
        if k == 1:
            return mat[0][0]
        acc = zero
        for j, entry in enumerate(mat[0]):
            if _is_zero(entry):
                continue
            minor = [[row[c] for c in range(k) if c != j] for row in mat[1:]]
            term = entry * rec(minor)
            acc = acc + (term if j % 2 == 0 else -term)
        return acc

    return rec([list(r) for r in rows])


def pfaffian(rows, zero, one):
    """Pfaffian of a skew-symmetric matrix by first-row expansion.

    Pf([[0, a], [-a, 0]]) = a. Raises on odd dimension or a non-skew matrix.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("pfaffian of a non-square matrix")
    if n % 2 != 0:
        raise ValueError("pfaffian needs even dimension")
    for i in range(n):
        for j in range(i, n):
            if not bool(rows[i][j] == -rows[j][i]):
                raise ValueError("matrix is not skew-symmetric")

    def rec(mat):
        k = len(mat)
        if k == 0:
            return one
        acc = zero
        for j in range(1, k):
            entry = mat[0][j]
            if bool(entry == zero):
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
    ncols = len(rows[0])
    ech, pivots = _bareiss_echelon([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    x = _back_substitute(ech, pivots, [Fraction(0)] * ncols + [Fraction(-1)])
    return x[:ncols]


def mat_mul(a, b, zero):
    """Generic matrix product (entries: any ring elements)."""
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = zero
            for t in range(k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]
