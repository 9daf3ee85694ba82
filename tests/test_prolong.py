"""The prolonged rank-4 distribution E: Pfaff system, bracket table, growth."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import by_id, discrepancies, failures
from f4prolong import cartan, fields, linalg, prolong
from f4prolong.fields import (
    FlagAt,
    derived_flag,
    lie_bracket,
    origin,
    pair,
    random_point,
    sample_points,
)
from f4prolong.prolong import (
    DEFINING_BRACKETS,
    EXPECTED_GROWTH,
    PRINTED_TABLE,
    PROLONGED_VARIABLES,
    build_zeta_generators,
    compute_bracket_table,
    pfaff_forms,
    symbol_structure,
)


def test_chart_has_24_variables():
    assert len(PROLONGED_VARIABLES) == 24
    assert len(set(PROLONGED_VARIABLES)) == 24


def test_printed_table_covers_strict_upper_entries():
    assert len(PRINTED_TABLE) == 82
    assert all(1 <= i < j <= 23 and i <= 4 for i, j in PRINTED_TABLE)


def test_defining_brackets_reference_earlier_fields():
    for k, (i, j) in DEFINING_BRACKETS.items():
        assert 5 <= k <= 24
        assert i < k and j < k


def test_build_zeta_generators_returns_all_24():
    zs = build_zeta_generators()
    assert sorted(zs.zeta) == list(range(1, 25))
    assert all(zs.zeta[k].name == f"zeta{k}" for k in zs.zeta)
    assert list(zs.distribution.generators) == [zs.zeta[k] for k in (1, 2, 3, 4)]
    before = dict(zs.zeta)
    compute_bracket_table(zs)
    assert zs.zeta.keys() == before.keys()
    assert all(zs.zeta[k] is before[k] for k in before)


def _count_flag_builds(monkeypatch):
    calls = []
    original = fields.derived_flag_fields

    def counting(d, *args, **kwargs):
        calls.append(d)
        return original(d, *args, **kwargs)

    monkeypatch.setattr(fields, "derived_flag_fields", counting)
    return calls


def test_prolong_suite_builds_the_flag_of_E_once(monkeypatch):
    calls = _count_flag_builds(monkeypatch)
    prolong.verify_suite(seed=1, samples=2)
    assert len(calls) == 1


def test_prolong_suite_evaluates_the_flag_of_E_once_per_point(monkeypatch):
    evaluated, rank_calls = [], []
    real_evaluate = fields.VectorField.evaluate
    monkeypatch.setattr(
        fields.VectorField,
        "evaluate",
        lambda self, p: evaluated.append((self, p)) or real_evaluate(self, p),
    )
    real_rank = linalg.mat_rank
    # also the copy a `from .linalg import mat_rank` would bind in prolong
    for module in (linalg, prolong):
        monkeypatch.setattr(
            module,
            "mat_rank",
            lambda rows: rank_calls.append(rows) or real_rank(rows),
            raising=False,
        )
    _, zs, _, _ = prolong.verify_suite(0, 5)
    # the bracket fields of E's flag are evaluated nowhere else
    brackets = [f for stage in zs.distribution.flag[1:] for f in stage]
    assert len(brackets) == 20
    for f in brackets:
        points = [p for g, p in evaluated if g is f]
        assert len(points) == 6
        assert len({tuple(p.values()) for p in points}) == 6
    assert rank_calls == []


def test_the_E7_check_can_fail(prolong_run):
    _, zs, _, _ = prolong_run
    frame = prolong.lifted_frame(zs.chart)
    points = sample_points(zs.chart, 0, 5)
    flags = [zs.distribution.at(p) for p in points]
    # the lifted generators lie in E^(7) and not all of them in E^(6)
    for flag in flags:
        assert max(flag.weight(frame[n]) for n in cartan.GENERATOR_ORDER) == 7
    assert flags[0].weight(frame["X1"]) == 7
    assert by_id(prolong.verify_growth(zs, flags))["growth:pi-lift-in-E7"].status == "pass"
    six = [FlagAt(zs.distribution.flag[:6], p) for p in points]
    assert by_id(prolong.verify_growth(zs, six))["growth:pi-lift-in-E7"].status == "fail"
    # splitting the first stage in two moves every later weight up by one
    first, rest = zs.distribution.flag[0], zs.distribution.flag[1:]
    split = [FlagAt([first[:2], first[2:]] + rest, p) for p in points]
    assert split[0].weight(frame["X1"]) == 8
    assert by_id(prolong.verify_growth(zs, split))["growth:pi-lift-in-E7"].status == "fail"


def test_symbol_items_do_not_depend_on_the_sample_count(prolong_run, monkeypatch):
    items, _, _, _ = prolong_run
    symbol = lambda items: [i for i in items if i.id.startswith("symbol:")]
    assert len(symbol(items)) == 3
    flags = []
    real = prolong.symbol_structure
    monkeypatch.setattr(
        prolong, "symbol_structure", lambda zs, t, flag: flags.append(flag) or real(zs, t, flag)
    )
    for samples in (1, 2):
        fewer, _, _, _ = prolong.verify_suite(0, samples)
        assert symbol(fewer) == symbol(items)
        # the symbol is read at the origin and 3 sample points whatever the count
        assert len(flags) == 4
        flags.clear()
    with pytest.raises(ValueError):
        prolong.verify_suite(0, -1)


def test_cartan_suite_builds_the_flag_of_D_once(monkeypatch):
    calls = _count_flag_builds(monkeypatch)
    cartan.verify_suite(seed=1, samples=2)
    assert len(calls) == 1


def test_bracket_table_factors_the_zeta_basis_once(monkeypatch):
    zs = build_zeta_generators()
    adds, calls = [], []
    original_add = linalg.Echelon.add
    monkeypatch.setattr(
        linalg.Echelon, "add", lambda self, vec: adds.append(self) or original_add(self, vec)
    )
    for mod, name in ((fields, "constant_combination"), (linalg, "solve_exact")):
        original = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, _f=original: calls.append(a) or _f(*a))
    table = compute_bracket_table(zs)
    assert len(table.entries) == 92
    # one echelon holds zeta_1..zeta_24; every bracket is only reduced against it
    assert len(adds) == 24 and len(set(map(id, adds))) == 1
    assert calls == []


def test_zetas_annihilate_pfaff_system(prolong_run):
    _, zs, _, _ = prolong_run
    for form in pfaff_forms(zs.chart):
        for k in (1, 2, 3, 4):
            assert pair(form, zs.zeta[k]).is_zero()


def test_defining_brackets_reproduce_zetas(prolong_run):
    _, zs, _, _ = prolong_run
    for k in (10, 17, 24):
        i, j = DEFINING_BRACKETS[k]
        assert lie_bracket(zs.zeta[i], zs.zeta[j]) == zs.zeta[k]


def test_growth_vector(prolong_run):
    _, zs, _, _ = prolong_run
    rng = random.Random(99)
    assert derived_flag(zs.distribution, origin(zs.chart)).ranks == EXPECTED_GROWTH
    assert derived_flag(zs.distribution, random_point(zs.chart, rng)).ranks == EXPECTED_GROWTH


def test_table_all_constant_with_rational_coefficients(prolong_run):
    _, _, table, _ = prolong_run
    assert len(table.entries) == 92
    assert all(combo is not None for combo in table.entries.values())
    for combo in table.entries.values():
        assert all(isinstance(c, Fraction) for c in combo.values())


def test_table_spot_values(prolong_run):
    _, _, table, _ = prolong_run
    assert table.entries[(1, 2)] == {5: Fraction(1)}
    assert table.entries[(4, 10)] == {13: Fraction(-2)}
    assert table.entries[(4, 20)] == {21: Fraction(1, 2)}
    assert table.entries[(1, 23)] == {24: Fraction(1)}
    # the one printed entry the computation overrules (forced by Jacobi)
    assert table.entries[(1, 16)] == {18: Fraction(1)}
    assert PRINTED_TABLE[(1, 16)] == {}


def test_symbol_algebra(prolong_run):
    _, zs, table, _ = prolong_run
    sym = symbol_structure(zs, table, zs.distribution.at(origin(zs.chart)))
    assert sym.graded_dimensions == (4, 3, 3, 3, 3, 2, 2, 1, 1, 1, 1)
    assert sym.weights[7] == 2
    assert sym.weights[24] == 11
    # graded structure constants retain the weight-additive part
    assert sym.structure_constants[(1, 2)] == {5: Fraction(1)}


def test_symbol_weights_come_from_the_flag_alone(prolong_run, monkeypatch):
    _, zs, table, _ = prolong_run
    # a wrong expected growth vector must not change or veto computed weights
    monkeypatch.setattr(prolong, "EXPECTED_GROWTH", (24,))
    sym = symbol_structure(zs, table, zs.distribution.at(origin(zs.chart)))
    assert sym.graded_dimensions == (4, 3, 3, 3, 3, 2, 2, 1, 1, 1, 1)
    assert sym.weights[24] == 11


def test_suite_hands_out_the_symbol_weights_at_the_origin(prolong_suite):
    (_, zs, _, weights), _ = prolong_suite
    assert weights == prolong.symbol_weights(zs, zs.distribution.at(origin(zs.chart)))


def test_verify_all_passes_the_prolong_weights_to_roots(monkeypatch):
    from f4prolong import cli, control, f4roots, nullflag

    for module in (cartan, control, nullflag):
        monkeypatch.setattr(module, "verify_suite", lambda *a, **k: [])
    monkeypatch.setattr(prolong, "verify_suite", lambda *a: ([], None, "table", {1: 1}))
    monkeypatch.setattr(prolong, "symbol_weights", None)  # must not be called
    seen = []
    monkeypatch.setattr(f4roots, "verify_suite", lambda *a: seen.append(a) or [])
    cli._run_suite("all", 0, None)
    assert seen == [("table", {1: 1})]


def test_suite_statuses(prolong_run):
    items, _, _, elapsed = prolong_run
    assert not failures(items)
    assert {i.id for i in discrepancies(items)} == {
        "table:[z1,z16]",
        "text:duplicated-E8-block",
        "text:zeta18-z12-term",
        "text:missing-equals",
    }
    ids = by_id(items)
    assert ids["growth:E"].status == "pass"
    assert ids["growth:pi-lift-in-E7"].status == "pass"
    assert ids["pfaff:zeta4-eta1"].status == "pass"
    assert elapsed < 120.0
