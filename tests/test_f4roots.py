"""The F4 root system, checked against the standard Euclidean realization."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest

from conftest import by_id, discrepancies, failures
from f4prolong import f4roots
from f4prolong.f4roots import (
    CARTAN_MATRIX,
    HIGHEST_ROOT,
    PRINTED_ASSIGNMENT,
    alpha4_grading,
    cartan_pairing,
    generate_positive_roots,
    height,
    repaired_assignment,
    verify_root_correspondence,
)
from f4prolong.fields import StructureTable
from f4prolong.prolong import DEFINING_BRACKETS, symbol_weights


def euclidean_positive_roots():
    """Independent oracle: F4 roots in R^4 are +-e_i +- e_j, +-e_i, and
    (+-e1 +-e2 +-e3 +-e4)/2; positivity and simple-root coordinates follow
    from the Bourbaki simple system a1 = e2 - e3, a2 = e3 - e4, a3 = e4,
    a4 = (e1 - e2 - e3 - e4)/2."""
    roots = []
    for i in range(4):
        for j in range(i + 1, 4):
            for si, sj in product((1, -1), repeat=2):
                r = [Fraction(0)] * 4
                r[i], r[j] = Fraction(si), Fraction(sj)
                roots.append(tuple(r))
        e = [Fraction(0)] * 4
        e[i] = Fraction(1)
        roots.append(tuple(e))
        e2 = list(e)
        e2[i] = Fraction(-1)
        roots.append(tuple(e2))
    half = Fraction(1, 2)
    for signs in product((1, -1), repeat=4):
        roots.append(tuple(half * s for s in signs))
    simple = (
        (Fraction(0), Fraction(1), Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1), Fraction(-1)),
        (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
        (half, -half, -half, -half),
    )
    out = set()
    for r in roots:
        # coefficients in the simple basis by solving the 4x4 system
        from f4prolong.linalg import solve_exact

        coeffs = solve_exact([[simple[j][i] for j in range(4)] for i in range(4)], list(r))
        assert coeffs is not None
        if all(c.denominator == 1 for c in coeffs) and all(c >= 0 for c in coeffs) and any(coeffs):
            out.add(tuple(int(c) for c in coeffs))
    return out


def test_roots_match_euclidean_oracle():
    assert set(generate_positive_roots()) == euclidean_positive_roots()


def test_count_and_highest():
    roots = generate_positive_roots()
    assert len(roots) == 24
    assert roots[-1] == HIGHEST_ROOT
    assert height(HIGHEST_ROOT) == 11


def test_height_profile_and_grading():
    roots = generate_positive_roots()
    per_height = {}
    for r in roots:
        per_height[height(r)] = per_height.get(height(r), 0) + 1
    assert tuple(per_height[h] for h in sorted(per_height)) == (
        4, 3, 3, 3, 3, 2, 2, 1, 1, 1, 1,
    )
    assert alpha4_grading(roots) == (9, 8, 7)


def test_cartan_pairing_on_simple_roots():
    for i in range(4):
        for j in range(4):
            simple = tuple(1 if k == i else 0 for k in range(4))
            assert cartan_pairing(simple, j) == CARTAN_MATRIX[i][j]


def test_root_strings_closed():
    roots = set(generate_positive_roots())
    assert (1, 1, 0, 0) in roots
    assert (1, 0, 1, 0) not in roots
    assert (2, 3, 4, 3) not in roots


def test_printed_assignment_has_one_duplicate():
    values = list(PRINTED_ASSIGNMENT.values())
    dups = {v for v in values if values.count(v) > 1}
    assert dups == {(1, 1, 2, 1)}


def test_repair_is_forced_to_zeta17():
    assignment, repaired = repaired_assignment()
    assert repaired == [17]
    assert assignment[17] == (1, 2, 2, 1)
    assert sorted(assignment.values()) == sorted(generate_positive_roots())


def test_suite_statuses(roots_run):
    items, _ = roots_run
    assert not failures(items)
    assert {i.id for i in discrepancies(items)} == {"roots:printed-duplicate"}
    ids = by_id(items)
    assert ids["roots:additivity"].status == "pass"
    assert ids["roots:non-roots-vanish"].status == "pass"
    assert ids["roots:heights-are-weights"].status == "pass"


def test_heights_are_judged_against_the_given_weights(prolong_run):
    _, _, table, _ = prolong_run
    wrong = {k: 1 for k in range(1, 25)}
    item = by_id(verify_root_correspondence(table, wrong))["roots:heights-are-weights"]
    assert item.status == "fail"
    assert "zeta5: height 2, weight 1" in item.computed


def test_a_table_without_weights_fails_the_suite_with_its_witness(
    roots_run, prolong_run, monkeypatch
):
    assert "roots:weights" not in by_id(roots_run[0])
    _, _, table, _ = prolong_run
    # [zeta1, zeta23] = 0: E's flag never reaches zeta24
    zeroed = StructureTable(table.basis, table.generators, {**table.entries, (1, 23): {}})
    with pytest.raises(ValueError) as exc:
        symbol_weights(zeroed)
    monkeypatch.setattr(f4roots, "build_zeta_generators", lambda: SimpleNamespace(table=zeroed))
    items = f4roots.verify_suite()
    assert [i.id for i in items[:-1]] == [i.id for i in f4roots.verify_root_system()]
    assert (items[-1].id, items[-1].status) == ("roots:weights", "fail")
    assert items[-1].computed == str(exc.value) and "zeta24" in items[-1].computed


def test_a_changed_defining_bracket_fails_the_correspondence(prolong_run, monkeypatch):
    _, _, table, _ = prolong_run
    weights = symbol_weights(table)
    # zeta17 built as [zeta3, zeta14] would carry (1, 1, 3, 1), which is no root
    monkeypatch.setattr(f4roots, "DEFINING_BRACKETS", {**DEFINING_BRACKETS, 17: (3, 14)})
    assignment, repaired = repaired_assignment()
    assert assignment[17] == (1, 1, 3, 1)
    assert 17 in repaired
    items = by_id(verify_root_correspondence(table, weights))
    bijection, additivity = items["roots:bijection"], items["roots:additivity"]
    assert (bijection.status, additivity.status) == ("fail", "fail")
    assert "(1, 2, 2, 1) unassigned" in bijection.computed
    assert "[z2,z14]->z17" in additivity.computed
