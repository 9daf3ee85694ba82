"""The prolonged rank-4 distribution E: Pfaff system, bracket table, growth."""

from __future__ import annotations

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import by_id, derived_flag, discrepancies, failures, patch_flag, seeded_points, spy_flags
from f4prolong import cartan, fields, linalg, prolong
from f4prolong.fields import FieldSpan, StructureTable, lie_bracket, origin, pair
from f4prolong.linalg import Echelon, sparse
from f4prolong.poly import MultiPoly
from f4prolong.prolong import (
    DEFINING_BRACKETS,
    EXPECTED_GROWTH,
    PRINTED_TABLE,
    PROLONGED_VARIABLES,
    ZetaSystem,
    build_zeta_generators,
    compute_bracket_table,
    pfaff_forms,
    graded_dimensions,
    symbol_weights,
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
    assert list(zs.fields) == [f"zeta{k}" for k in range(1, 25)]
    assert all(f.name == label for label, f in zs.fields.items())
    before = dict(zs.fields)
    compute_bracket_table(zs)
    assert zs.fields.keys() == before.keys()
    assert all(zs.fields[label] is before[label] for label in before)


def generators(zs):
    """zeta_1..zeta_4: the fields that span E."""
    return [zs.fields[f"zeta{k}"] for k in (1, 2, 3, 4)]


def _count_flag_builds(monkeypatch):
    calls = []
    original = fields.derived_flag_fields

    def counting(gens, *args, **kwargs):
        calls.append(gens)
        return original(gens, *args, **kwargs)

    monkeypatch.setattr(fields, "derived_flag_fields", counting)
    return calls


def _spy_tables(monkeypatch):
    """The list of the zeta systems whose bracket table is computed from now on."""
    tables = []
    real = prolong.compute_bracket_table
    monkeypatch.setattr(prolong, "compute_bracket_table", lambda zs: tables.append(zs) or real(zs))
    return tables


def test_prolong_suite_builds_the_flag_of_E_once(monkeypatch):
    build_zeta_generators.cache_clear()
    calls = _count_flag_builds(monkeypatch)
    closures = spy_flags(monkeypatch)
    items = prolong.verify_suite()
    assert not failures(items)
    # E's flag is closed over the table once, for growth and symbol alike;
    # no flag of vector fields is built
    assert [id(t) for t in closures] == [id(build_zeta_generators().table)]
    assert calls == []


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
    build_zeta_generators.cache_clear()
    items = prolong.verify_suite()
    assert not failures(items)
    # the global suite draws no point, so no field of E's flag is evaluated
    assert evaluated == []
    assert rank_calls == []


def test_cartan_suite_builds_the_flag_of_D_once(monkeypatch):
    calls = _count_flag_builds(monkeypatch)
    brackets = []
    real = cartan.lie_bracket
    monkeypatch.setattr(cartan, "lie_bracket", lambda a, b: brackets.append(1) or real(a, b))
    cartan.build_model.cache_clear()
    assert not failures(cartan.verify_suite())
    # every check reads the model's table: one bracket of each two frame fields
    assert len(brackets) == 105
    assert calls == []


def test_roots_suite_builds_no_flag_and_evaluates_no_field(monkeypatch):
    from f4prolong import cli

    def forbidden(*args):
        raise AssertionError("the roots suite built a flag or evaluated a field")

    monkeypatch.setattr(fields, "derived_flag_fields", forbidden)
    monkeypatch.setattr(fields.VectorField, "evaluate", forbidden)
    # roots alone builds the table once and nothing else
    build_zeta_generators.cache_clear()
    tables = _spy_tables(monkeypatch)
    report = cli._run_suite("roots", 0, None)
    assert report.ok and report.counts()["pass"] == 9
    assert len(tables) == 1


def test_the_E7_check_can_fail(prolong_run, monkeypatch):
    _, zs, table, _ = prolong_run
    # every lifted generator has weight exactly 7
    assert set(prolong.lift_weights(zs, prolong.symbol_weights(table)).values()) == {7}
    assert by_id(prolong.verify_growth(zs, table))["growth:pi-lift-in-E7"].status == "pass"
    # weights shifted by one stage put the lifts in E^(8)
    def shifted(table, closure):
        growth, weights = closure(table)
        return growth, {k: w + 1 for k, w in weights.items()}

    patch_flag(monkeypatch, shifted)
    # a fresh table, whose flag is closed by the patched property
    copy = StructureTable(table.basis, table.generators, table.entries)
    assert "flag" not in vars(copy)
    item = by_id(prolong.verify_growth(zs, copy))["growth:pi-lift-in-E7"]
    assert item.status == "fail"
    assert item.computed.startswith("X1: 8, ")


def test_the_growth_check_can_fail(prolong_run):
    _, zs, table, _ = prolong_run
    assert by_id(prolong.verify_growth(zs, table))["growth:E"].status == "pass"
    # [zeta1, zeta2] = 0 in both orders, or [zeta1, zeta23] = 0: zeta5 or zeta24 is never reached
    for zeroed in ({(1, 2): {}, (2, 1): {}}, {(1, 23): {}}):
        perturbed = StructureTable(table.basis, table.generators, {**table.entries, **zeroed})
        item = by_id(prolong.verify_growth(zs, perturbed))["growth:E"]
        assert item.status == "fail"
    # an entry the closure needs and the table lacks is named
    perturbed = StructureTable(table.basis, table.generators, {**table.entries, (2, 5): None})
    item = by_id(prolong.verify_growth(zs, perturbed))["growth:E"]
    assert item.status == "fail"
    assert item.computed == "the table has no constant entry for [2, 5]"


def test_the_frame_check_can_fail(prolong_run):
    _, zs, table, _ = prolong_run
    items = prolong.verify_symbol(zs, table)
    assert by_id(items)["symbol:point-independence"].status == "pass"
    # zeta24 * (1 + z31) keeps a frame, but its pivot is not constant
    scaled = zs.fields["zeta24"] * (1 + MultiPoly.variable(zs.chart, "z31"))
    bent = ZetaSystem(zs.chart, {**zs.fields, "zeta24": scaled})
    items = prolong.verify_symbol(bent, table)
    item = by_id(items)["symbol:point-independence"]
    assert item.status == "fail"
    assert item.computed.startswith("zeta24 ")
    # zeta23 repeated as zeta24 is no frame
    repeated = ZetaSystem(zs.chart, {**zs.fields, "zeta24": zs.fields["zeta23"]})
    items = prolong.verify_symbol(repeated, table)
    item = by_id(items)["symbol:point-independence"]
    assert (item.status, item.computed) == ("fail", "zeta24 is 1/4 on the lead of zeta23")


def test_zetas_that_are_not_a_triangular_frame_fail_with_the_witness(capsys, monkeypatch):
    from f4prolong import cli, f4roots

    zs = build_zeta_generators()
    repeated = ZetaSystem(zs.chart, {**zs.fields, "zeta24": zs.fields["zeta23"]})
    for module in (prolong, f4roots):
        monkeypatch.setattr(module, "build_zeta_generators", lambda: repeated)
    built = []
    triangular = fields.TriangularFrame
    monkeypatch.setattr(fields, "TriangularFrame", lambda *a: built.append(a) or triangular(*a))
    witness = "zeta24 is 1/4 on the lead of zeta23"
    # no coordinates, so no table items; the growth and symbol items say why
    items = prolong.verify_suite()
    assert not [i.id for i in items if i.id.startswith("table:")]
    assert [(i.id, i.computed) for i in failures(items)] == [
        ("growth:E", witness),
        ("growth:pi-lift-in-E7", witness),
        ("symbol:weights", "the table has no constant entry for [1, 1]"),
        ("symbol:point-independence", witness),
    ]
    assert [(i.id, i.computed) for i in failures(f4roots.verify_suite())] == [("roots:weights", witness)]
    assert cli.run(["verify", "all", "--json"]) == 1
    capsys.readouterr()
    # the refusal is kept: one constructor call on these zetas per process,
    # and every read raises its witness again
    assert [a for a in built if a[0] is repeated.fields] == [(repeated.fields, ())]
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{witness}$"):
            repeated.triangular
    assert [a for a in built if a[0] is repeated.fields] == [(repeated.fields, ())]


def _pointwise_weights(gens, point, vectors):
    """The oracle for the weights of the table flag, the last-row rule on the
    pointwise flag: the values of the flag fields of the generators at the
    point go stage by stage into one echelon, and the weight of v is the first
    stage whose span holds v there (None when none does)."""
    span, ends = Echelon(), []
    for stage in fields.derived_flag_fields(gens):
        for f in stage:
            span.add(sparse(f.evaluate(point)))
        ends.append(span.count)
    weights = []
    for v in vectors:
        combo = span.combination(sparse(v.evaluate(point)))
        if combo is None:
            weights.append(None)
            continue
        last = max((n for n, c in enumerate(combo) if c), default=-1)
        weights.append(next(s for s, n in enumerate(ends, start=1) if n > last))
    return weights


def test_pointwise_weights_agree_with_the_table(prolong_run):
    _, zs, table, _ = prolong_run
    weights = prolong.symbol_weights(table)
    lifts = prolong.lift_weights(zs, weights)
    frame = prolong.lifted_frame(zs.chart)
    zetas = list(zs.fields.values())
    lifted = [frame[n] for n in cartan.GENERATOR_ORDER]
    seen = []
    for p in seeded_points(zs.chart, 2, 3):
        assert _pointwise_weights(generators(zs), p, zetas) == [weights[k] for k in range(1, 25)]
        seen.append(_pointwise_weights(generators(zs), p, lifted))
    # a lift's coordinates of top weight may vanish at a point (at the origin
    # only X1 keeps weight 7), never more than its global weight
    assert [max(column) for column in zip(*seen)] == list(lifts.values())


def _sympy_flag(basis, generators, entries):
    """The oracle for StructureTable.flag: D^(s+1) = D^(s) + [generators,
    D^(s)] by the definition, each stage a sympy row space over the basis;
    the ranks until they stop growing, and for each basis element the first
    stage that holds it (None if none does)."""
    n = len(basis)
    column = {b: k for k, b in enumerate(basis)}

    def bracket(g, row):
        out = [0] * n
        for b, c in zip(basis, row):
            for k, d in (entries[(g, b)] if c else {}).items():
                out[column[k]] += c * d
        return out

    rows = [[int(b == g) for b in basis] for g in generators]  # of the first stage
    ranks, weights = [], [None] * n
    while not ranks or len(rows) > ranks[-1]:
        ranks.append(len(rows))
        # a basis element is in the row space iff every null vector has a 0 there
        null = [list(x) for x in sympy.Matrix(rows).nullspace()]
        for k in range(n):
            if weights[k] is None and all(x[k] == 0 for x in null):
                weights[k] = len(ranks)
        new = [bracket(g, row) for g in generators for row in rows]
        rows = [list(row) for row in sympy.Matrix(rows + new).rowspace()]
    return tuple(ranks), weights


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_table_flag_ranks_and_weights_match_sympy(data):
    coefficients = st.sampled_from([-2, -1, 1, 2])
    entries = {}
    if data.draw(st.booleans(), label="shaped like E's table"):
        # [zeta_i, zeta_j] lands on zeta_k with k > j, k <= 23: the closure
        # terminates without reaching zeta_24, and never reads [zeta_i, zeta_24]
        basis, generators = range(1, 25), (1, 2, 3, 4)
        for i in generators:
            for j in range(1, 24):
                targets = st.integers(max(j, 4) + 1, 23)
                entries[(i, j)] = data.draw(
                    st.dictionaries(targets, coefficients, max_size=2) if j < 23 else st.just({})
                )
    else:
        # string labels in a shuffled order, any nonempty set of generators,
        # and every [generator, basis element] stored
        labels = [f"e{k}" for k in range(data.draw(st.integers(1, 9)))]
        basis = data.draw(st.permutations(labels))
        generators = tuple(data.draw(st.lists(st.sampled_from(basis), min_size=1, unique=True)))
        for g in generators:
            for b in basis:
                targets = st.sampled_from(basis)
                entries[(g, b)] = data.draw(st.dictionaries(targets, coefficients, max_size=2))
    ranks, weights = StructureTable(basis, generators, entries).flag
    expected = _sympy_flag(list(basis), generators, entries)
    assert (ranks, [weights.get(b) for b in basis]) == expected


def test_bracket_table_factors_the_zeta_basis_once(monkeypatch):
    adds, calls, built, read = [], [], [], []
    original_add = linalg.Echelon.add
    monkeypatch.setattr(
        linalg.Echelon, "add", lambda self, vec: adds.append(self) or original_add(self, vec)
    )
    for mod, name in ((fields, "constant_combination"), (linalg, "solve_exact")):
        original = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, _f=original: calls.append(a) or _f(*a))
    triangular = fields.TriangularFrame
    monkeypatch.setattr(fields, "TriangularFrame", lambda *a: built.append(a) or triangular(*a))
    coordinates = triangular.coordinates
    monkeypatch.setattr(triangular, "coordinates", lambda self, v: read.append(self) or coordinates(self, v))
    build_zeta_generators.cache_clear()
    zs = build_zeta_generators()
    table = compute_bracket_table(zs)
    assert len(table.entries) == 92
    # the 72 bracketed entries are coordinates in the one triangular zeta
    # frame; the table adds nothing to any echelon
    assert len(read) == 72 and {id(t) for t in read} == {id(zs.triangular)}
    assert adds == [] and calls == []
    # a prolong run builds that frame once, and the table, lift_weights and
    # symbol:point-independence read it: 72 brackets and 8 lifted generators
    read.clear()
    build_zeta_generators.cache_clear()
    assert not failures(prolong.verify_suite())
    zs = build_zeta_generators()
    assert len(built) == 2 and built[-1] == (zs.fields, ())
    assert len(read) == 80 and {id(t) for t in read} == {id(zs.triangular)}


def test_bracket_table_reads_the_defining_brackets_off_the_zetas(monkeypatch):
    zs = build_zeta_generators()
    bracketed = []
    monkeypatch.setattr(
        prolong, "lie_bracket", lambda x, y: bracketed.append((x, y)) or lie_bracket(x, y)
    )
    table = compute_bracket_table(zs)
    # zeta_5..zeta_24 are the 20 defining brackets; the other 72 entries are bracketed
    assert len(bracketed) == 72
    assert (table.basis, table.generators) == (range(1, 25), (1, 2, 3, 4))
    span = FieldSpan(zs.fields.values())
    for k, (i, j) in DEFINING_BRACKETS.items():
        assert (zs.fields[f"zeta{i}"], zs.fields[f"zeta{j}"]) not in bracketed
        combo = span.combination(lie_bracket(zs.fields[f"zeta{i}"], zs.fields[f"zeta{j}"]))
        assert table.entries[(i, j)] == {n + 1: c for n, c in enumerate(combo) if c} == {k: 1}


def test_zetas_annihilate_pfaff_system(prolong_run):
    _, zs, _, _ = prolong_run
    for form in pfaff_forms(zs.chart):
        for k in (1, 2, 3, 4):
            assert pair(form, zs.fields[f"zeta{k}"]).is_zero()


def test_defining_brackets_reproduce_zetas(prolong_run):
    _, zs, _, _ = prolong_run
    for k in (10, 17, 24):
        i, j = DEFINING_BRACKETS[k]
        assert lie_bracket(zs.fields[f"zeta{i}"], zs.fields[f"zeta{j}"]) == zs.fields[f"zeta{k}"]


def test_cached_partials_leave_the_table_no_diff_or_product(prolong_run, monkeypatch):
    _, zs, table, _ = prolong_run
    for f in zs.fields.values():
        f.jacobian()
    calls = []
    diff, mul = MultiPoly.diff, MultiPoly.__mul__
    monkeypatch.setattr(MultiPoly, "diff", lambda *args: calls.append("diff") or diff(*args))
    # TriangularFrame.coordinates divides by a constant pivot on int
    # numerators, so no polynomial product is made, not even by a scalar
    monkeypatch.setattr(MultiPoly, "__mul__", lambda p, q: calls.append("product") or mul(p, q))
    assert compute_bracket_table(zs) == table
    assert calls == []


def test_each_field_builds_its_partials_once(monkeypatch):
    built = []
    real = fields.build_jacobian
    monkeypatch.setattr(fields, "build_jacobian", lambda f: built.append(f) or real(f))
    build_zeta_generators.cache_clear()
    zs = build_zeta_generators()
    assert compute_bracket_table(zs) == zs.table
    model = cartan.build_model()
    assert cartan.frame_table(model, model.fields) == cartan.frame_table(model, model.fields)
    # built keeps every field alive, so equal ids mean one object built twice
    assert len({id(f) for f in built}) == len(built)
    assert {id(zs.fields[f"zeta{k}"]) for k in range(1, 24)} <= {id(f) for f in built}


def test_growth_vector(prolong_run):
    # the pointwise flag, an independent oracle for the table flag
    _, zs, table, _ = prolong_run
    assert table.flag[0] == EXPECTED_GROWTH
    for p in seeded_points(zs.chart, 99, 3):
        assert derived_flag(generators(zs), p) == EXPECTED_GROWTH


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
    _, _, table, _ = prolong_run
    weights = symbol_weights(table)
    assert graded_dimensions(weights) == (4, 3, 3, 3, 3, 2, 2, 1, 1, 1, 1)
    assert weights[7] == 2
    assert weights[24] == 11
    # the table is graded: every bracket lands on the sum of the weights
    for (i, j), combo in table.entries.items():
        assert all(weights[k] == weights[i] + weights[j] for k in combo)


def test_symbol_weights_come_from_the_flag_alone(prolong_run, monkeypatch):
    _, _, table, _ = prolong_run
    # a wrong expected growth vector must not change or veto computed weights
    monkeypatch.setattr(prolong, "EXPECTED_GROWTH", (24,))
    weights = symbol_weights(table)
    assert graded_dimensions(weights) == (4, 3, 3, 3, 3, 2, 2, 1, 1, 1, 1)
    assert weights[24] == 11


def test_suite_hands_out_the_symbol_weights_at_the_origin(prolong_run):
    _, zs, table, _ = prolong_run
    # the suite closed the table's flag, and the weights are read off it
    assert "flag" in vars(table)
    weights = prolong.symbol_weights(table)
    assert weights == table.flag[1]
    zetas = list(zs.fields.values())
    pointwise = _pointwise_weights(generators(zs), origin(zs.chart), zetas)
    assert pointwise == [weights[k] for k in range(1, 25)]


def test_verify_all_then_roots_computes_and_closes_one_table(monkeypatch):
    from f4prolong import cli

    build_zeta_generators.cache_clear()
    tables = _spy_tables(monkeypatch)
    closed = spy_flags(monkeypatch)
    # one process: roots reads the table and the flag that `verify all` closed
    assert cli.run(["verify", "all", "--json"]) == 0
    assert cli.run(["verify", "roots", "--json"]) == 0
    assert [id(zs) for zs in tables] == [id(build_zeta_generators())]
    # D's flag is the cartan suite's own, closed on each run
    assert [t.flag[0] for t in closed] == [(8, 15), EXPECTED_GROWTH]


def test_the_zeta_system_is_shared_and_read_only(monkeypatch):
    zs = build_zeta_generators()
    assert zs is build_zeta_generators()
    assert zs.table is zs.table
    with pytest.raises(TypeError):
        zs.fields["zeta1"] = zs.fields["zeta2"]
    with pytest.raises(AttributeError):
        zs.chart = prolong.prolonged_chart()
    # a perturbed system computes its own table from its own fields
    tables = _spy_tables(monkeypatch)
    negated = ZetaSystem(zs.chart, {**zs.fields, "zeta5": -zs.fields["zeta5"]})
    assert negated.table is not zs.table
    assert [id(z) for z in tables] == [id(negated)]
    assert zs.table.entries[(3, 5)] == {8: -1}
    assert negated.table.entries[(3, 5)] == {8: 1}


def test_a_missing_published_relation_fails_the_table(prolong_run, monkeypatch):
    _, _, table, _ = prolong_run
    printed = dict(PRINTED_TABLE)
    del printed[(1, 3)]
    monkeypatch.setattr(prolong, "PRINTED_TABLE", printed)
    items = by_id(prolong.verify_bracket_table(table))
    item = items["table:[z1,z3]"]
    assert (item.status, item.computed) == ("fail", "0")
    assert item.description == "[zeta1, zeta3] has a published relation to compare with"
    assert item.note == "PRINTED_TABLE has no transcription of the published [zeta1, zeta3]"
    # the diagonal and the mirrored entries keep their own checks
    assert items["table:[z1,z1]"].description == "[zeta1, zeta1] = 0"
    assert items["table:[z3,z1]"].status == "pass"
    assert [i.id for i in failures(items.values())] == ["table:[z1,z3]"]


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


def test_the_suite_extends_each_frame_field_once(monkeypatch):
    prolong.lifted_frame.cache_clear()
    build_zeta_generators.cache_clear()
    calls = []
    real = prolong.extend_field
    monkeypatch.setattr(prolong, "extend_field", lambda f, chart: calls.append(f.name) or real(f, chart))
    items = prolong.verify_suite()
    assert not failures(items)
    zs = build_zeta_generators()
    assert sorted(calls) == sorted(cartan.build_model().fields)
    frame = prolong.lifted_frame(zs.chart)
    assert frame is prolong.lifted_frame(prolong.prolonged_chart())
    with pytest.raises(TypeError):
        frame["X1"] = frame["X2"]
