"""The F4 root system and its correspondence with the prolonged frame.

Roots are integer coefficient 4-tuples over the simple roots (alpha1..alpha4).
The published correspondence attaches the negative root -root(k) to zeta_k; we
store the positive coefficient tuples.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .fields import StructureTable
from .prolong import DEFINING_BRACKETS, build_zeta_generators, graded_dimensions, symbol_weights
from .report import DISCREPANCY, Item, check

Root = Tuple[int, int, int, int]

# Bourbaki F4 Cartan matrix: alpha1, alpha2 long; alpha3, alpha4 short
CARTAN_MATRIX: Tuple[Tuple[int, ...], ...] = (
    (2, -1, 0, 0),
    (-1, 2, -2, 0),
    (0, -1, 2, -1),
    (0, 0, -1, 2),
)

HIGHEST_ROOT: Root = (2, 3, 4, 2)

SIMPLE_ROOTS: Tuple[Root, ...] = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

# the published zeta_k <-> -(root) assignment; zeta_17 repeats the zeta_14
# value in print, where the defining bracket [zeta2, zeta14] gives (1, 2, 2, 1)
PRINTED_ASSIGNMENT: Dict[int, Root] = {
    1: (1, 0, 0, 0), 2: (0, 1, 0, 0), 3: (0, 0, 1, 0), 4: (0, 0, 0, 1),
    5: (1, 1, 0, 0), 6: (0, 1, 1, 0), 7: (0, 0, 1, 1),
    8: (1, 1, 1, 0), 9: (0, 1, 1, 1), 10: (0, 1, 2, 0),
    11: (1, 1, 1, 1), 12: (1, 1, 2, 0), 13: (0, 1, 2, 1),
    14: (1, 1, 2, 1), 15: (1, 2, 2, 0), 16: (0, 1, 2, 2),
    17: (1, 1, 2, 1), 18: (1, 1, 2, 2),
    19: (1, 2, 2, 2), 20: (1, 2, 3, 1),
    21: (1, 2, 3, 2), 22: (1, 2, 4, 2), 23: (1, 3, 4, 2), 24: (2, 3, 4, 2),
}


def cartan_pairing(beta: Root, j: int) -> int:
    """<beta, alpha_j^vee> = sum_i b_i A[i][j]."""
    return sum(b * CARTAN_MATRIX[i][j] for i, b in enumerate(beta))


def _add(a: Root, b: Root) -> Root:
    return tuple(x + y for x, y in zip(a, b))  # type: ignore[return-value]


def _sub(a: Root, b: Root) -> Root:
    return tuple(x - y for x, y in zip(a, b))  # type: ignore[return-value]


def generate_positive_roots() -> List[Root]:
    """All positive roots by root-string closure over the simple roots.

    For a root beta and simple alpha_j, the string length upward is
    q = p - <beta, alpha_j^vee> where p is the largest k with beta - k alpha_j
    a root; beta + alpha_j is a root iff q > 0.
    """
    roots = set(SIMPLE_ROOTS)
    level = list(SIMPLE_ROOTS)
    # breadth-first by height: every root of height h+1 is beta + alpha_j for
    # some root beta of height h, and the down-string of beta involves only
    # lower heights, all already known
    while level:
        nxt = []
        for beta in level:
            for j, alpha in enumerate(SIMPLE_ROOTS):
                p = 0
                down = beta
                while True:
                    down = _sub(down, alpha)
                    if down in roots:
                        p += 1
                    else:
                        break
                q = p - cartan_pairing(beta, j)
                if q > 0:
                    up = _add(beta, alpha)
                    if up not in roots:
                        roots.add(up)
                        nxt.append(up)
        level = nxt
    return sorted(roots, key=lambda r: (height(r), r))


def height(root: Root) -> int:
    return sum(root)


def alpha4_grading(roots: List[Root]) -> Tuple[int, ...]:
    """Count of positive roots by their alpha_4 coefficient, ascending."""
    return graded_dimensions({r: r[3] for r in roots})


def repaired_assignment() -> Tuple[Dict[int, Root], List[int]]:
    """The root of each zeta_k read off its construction, and the k where the
    printed assignment differs.

    zeta_1..zeta_4 carry the simple roots, and each zeta_k = [zeta_i, zeta_j]
    of DEFINING_BRACKETS carries root(i) + root(j); here only zeta_17 differs
    from print.
    """
    assignment = dict(enumerate(SIMPLE_ROOTS, start=1))
    for k, (i, j) in sorted(DEFINING_BRACKETS.items()):
        assignment[k] = _add(assignment[i], assignment[j])
    repaired = [k for k in sorted(assignment) if assignment[k] != PRINTED_ASSIGNMENT[k]]
    return assignment, repaired


def verify_root_system() -> List[Item]:
    items = []
    # symmetrizability of the Cartan matrix with d = (1, 1, 2, 2)
    d = (1, 1, 2, 2)
    sym = all(
        d[i] * CARTAN_MATRIX[i][j] == d[j] * CARTAN_MATRIX[j][i]
        for i in range(4)
        for j in range(4)
    )
    shape = all(
        (CARTAN_MATRIX[i][j] == 2) == (i == j)
        and (i == j or CARTAN_MATRIX[i][j] <= 0)
        for i in range(4)
        for j in range(4)
    )
    items.append(
        check(
            "roots:cartan-matrix",
            "Cartan matrix is a symmetrizable generalized Cartan matrix",
            sym and shape,
        )
    )
    roots = generate_positive_roots()
    items.append(
        check("roots:count", "24 positive roots", len(roots) == 24, computed=str(len(roots)), expected="24")
    )
    items.append(
        check(
            "roots:highest",
            "highest root is 2a1 + 3a2 + 4a3 + 2a4, height 11",
            roots[-1] == HIGHEST_ROOT and height(roots[-1]) == 11,
            computed=str(roots[-1]),
            expected=str(HIGHEST_ROOT),
        )
    )
    profile = graded_dimensions({r: height(r) for r in roots})
    items.append(
        check(
            "roots:height-profile",
            "roots per height are (4,3,3,3,3,2,2,1,1,1,1)",
            profile == (4, 3, 3, 3, 3, 2, 2, 1, 1, 1, 1),
            computed=str(profile),
            expected="(4, 3, 3, 3, 3, 2, 2, 1, 1, 1, 1)",
        )
    )
    grading = alpha4_grading(roots)
    items.append(
        check(
            "roots:alpha4-grading",
            "alpha_4-coefficient grading is (9, 8, 7)",
            grading == (9, 8, 7),
            computed=str(grading),
            expected="(9, 8, 7)",
        )
    )
    return items


def verify_root_correspondence(table: StructureTable, weights: Dict[int, int]) -> List[Item]:
    """Bijectivity of the derived assignment, additivity on the computed
    bracket table, non-roots on the computed zeros, and heights equal to the
    given frame weights."""
    items: List[Item] = []
    roots = generate_positive_roots()
    root_set = set(roots)
    assignment, repaired = repaired_assignment()
    # built by hand: it reports the repair of the printed assignment
    if repaired:
        items.append(
            Item(
                "roots:printed-duplicate",
                "published assignment repeats a root; repaired to a bijection",
                DISCREPANCY,
                computed=", ".join(f"zeta{k} -> {assignment[k]}" for k in repaired),
                expected="each zeta_k gets a distinct root",
                note="repair forced by additivity of the defining brackets",
            )
        )
    # 24 fields and 24 roots: onto is one-to-one
    missing = [r for r in roots if r not in assignment.values()]
    items.append(
        check(
            "roots:bijection",
            "repaired assignment is a bijection onto the positive roots",
            not missing and len(assignment) == 24,
            computed=", ".join(f"{r} unassigned" for r in missing),
        )
    )
    bad_height = [
        f"zeta{k}: height {height(assignment[k])}, weight {weights.get(k)}"
        for k in range(1, 25)
        if height(assignment[k]) != weights.get(k)
    ]
    items.append(
        check(
            "roots:heights-are-weights",
            "height of root(k) equals the grading weight of zeta_k",
            not bad_height,
            computed="; ".join(bad_height),
        )
    )
    bad_add: List[str] = []
    bad_zero: List[str] = []
    for (i, j), combo in sorted(table.entries.items()):
        if i == j or combo is None:
            continue
        s = _add(assignment[i], assignment[j])
        if combo:
            for k in combo:
                if s != assignment[k]:
                    bad_add.append(f"[z{i},z{j}]->z{k}")
        else:
            if s in root_set:
                bad_zero.append(f"[z{i},z{j}]")
    items.append(
        check(
            "roots:additivity",
            "every nonzero bracket lands on the sum of the roots",
            not bad_add,
            computed=", ".join(bad_add) or "all additive",
        )
    )
    items.append(
        check(
            "roots:non-roots-vanish",
            "every vanishing bracket has a non-root sum",
            not bad_zero,
            computed=", ".join(bad_zero) or "all consistent",
        )
    )
    return items


def verify_suite() -> List[Item]:
    """The root system, and its correspondence with the bracket table of the
    shared zeta system and with the weights that E's flag, closed over that
    table, assigns (`prolong.symbol_weights`)."""
    try:
        table = build_zeta_generators().table
        weights = symbol_weights(table)
    except ValueError as exc:
        return verify_root_system() + [
            check("roots:weights", "weight assignment well-defined", False, computed=str(exc))
        ]
    return verify_root_system() + verify_root_correspondence(table, weights)
