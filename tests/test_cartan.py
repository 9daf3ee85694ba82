"""The 15-dimensional model: frame, coframe, brackets, foliations, growth."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import by_id, derived_flag, discrepancies, failures, seeded_points, spy_flags
from f4prolong import cartan, linalg
from f4prolong.cartan import (
    GENERATOR_ORDER,
    PAIRS,
    CartanModel,
    FrameTable,
    build_model,
    even_complement,
    expected_bracket,
    frame_table,
    type_f4_frame_check,
    verify_bracket_table,
    verify_duality,
)
from f4prolong.fields import OneForm, lie_bracket, pair
from f4prolong.poly import MultiPoly


@pytest.fixture(scope="module")
def model():
    return build_model()


def generators(model):
    """X1..X4, Y1..Y4: the frame fields that span D."""
    return [model.fields[n] for n in GENERATOR_ORDER]


def test_even_complement():
    assert even_complement(1, 2) == (3, 4)
    assert even_complement(1, 3) == (4, 2)
    assert even_complement(1, 4) == (2, 3)
    assert even_complement(2, 3) == (1, 4)
    assert even_complement(2, 4) == (3, 1)
    assert even_complement(3, 4) == (1, 2)


def test_distribution_annihilated_by_pfaff_forms(model):
    # D = ker(omega, omega_ij): the seven annihilator forms kill X_i and Y_i
    ann = list(model.coframe)[:7]
    for g in generators(model):
        for cname in ann:
            assert pair(model.coframe[cname], g).is_zero()


def test_spot_brackets(model):
    f = model.fields
    two = {"X12": MultiPoly.constant(model.chart, 2)}
    assert model.table.bracket("X1", "X2") == expected_bracket(model, "X1", "X2") == two
    assert model.table.bracket("X2", "X1") == {"X12": MultiPoly.constant(model.chart, -2)}
    assert lie_bracket(f["X1"], f["X2"]) == f["X12"] * Fraction(2)
    # [Y1, Y2] = 2 X_{hk} with (h, k) the even complement of (1, 2)
    assert lie_bracket(f["Y1"], f["Y2"]) == f["X34"] * Fraction(2)
    assert lie_bracket(f["Y1"], f["X1"]) == f["Z"]
    assert lie_bracket(f["X1"], f["Y2"]).is_zero()


def test_full_bracket_table(model):
    items = verify_bracket_table(model)
    assert len(items) == 105
    assert not failures(items)


def test_duality_225_pairings(model):
    checked, mismatched = verify_duality(model)
    assert checked == 225
    assert mismatched == 0


def test_growth_vector_8_15(model, cartan_run):
    # the pointwise flag, an independent oracle for the global growth:D item
    items, _ = cartan_run
    assert by_id(items)["growth:D"].computed == "(8, 15)"
    for p in seeded_points(model.chart, 1, 3):
        assert derived_flag(generators(model), p) == (8, 15)


def test_f4_frame_check_can_fail(model):
    items = type_f4_frame_check(model, model.table)
    assert len(items) == 22
    assert not failures(items)
    # with Y1 and Y2 swapped, [X1, Y1] = 0 while [X3, Y3] = Z lies outside D
    swapped = dict(model.fields, Y1=model.fields["Y2"], Y2=model.fields["Y1"])
    item = by_id(type_f4_frame_check(model, frame_table(model, swapped)))["f4:[X1,Y1]~[X3,Y3]"]
    assert item.status == "fail"
    assert item.computed == "<omega, v> = 1"
    # with Y3 and Y4 swapped, [X1, X2] - [Y3, Y4] = 4 X12 leaves D along omega12
    swapped = dict(model.fields, Y3=model.fields["Y4"], Y4=model.fields["Y3"])
    item = by_id(type_f4_frame_check(model, frame_table(model, swapped)))["f4:[X1,X2]~[Y3,Y4]"]
    assert (item.status, item.computed) == ("fail", "<omega12, v> = 4")
    # a frame field with a coordinate that is not constant
    scaled = dict(model.fields, X1=model.fields["X1"] * (1 + MultiPoly.variable(model.chart, "x2")))
    item = by_id(type_f4_frame_check(model, frame_table(model, scaled)))["f4:induced-frame-rank"]
    assert item.status == "fail"
    assert item.computed.startswith("<dx1, X1> = ")
    # dropping [Y1, X1] from the induced frame leaves rank 14
    table = FrameTable(model.table.fields, {**model.table.brackets, ("X1", "Y1"): {}})
    item = by_id(type_f4_frame_check(model, table))["f4:induced-frame-rank"]
    assert (item.status, item.computed) == ("fail", "14")


def _copy(model, frame=None, coframe=None):
    """A new model on the same frame and coframe, or with the fields and forms
    given replaced, without a cached triangular or table."""
    return CartanModel(
        model.chart,
        {**model.fields, **(frame or {})},
        model.leads,
        coframe={**model.coframe, **(coframe or {})},
    )


def _suite_with(monkeypatch, model, brackets, fields=()):
    """cartan.verify_suite on a copy of the model whose frame table has the
    given bracket and field entries replaced; the shared model is left as it is."""
    copy = _copy(model)
    # the table is a cached property: fill the copy's in advance
    vars(copy)["table"] = FrameTable({**model.table.fields, **dict(fields)}, {**model.table.brackets, **brackets})
    monkeypatch.setattr(cartan, "build_model", lambda: copy)
    return by_id(cartan.verify_suite())


def test_foliation_checks_can_fail(model, monkeypatch):
    const = lambda c: MultiPoly.constant(model.chart, c)
    # a Z coordinate of [X1, X2] leaves D_12
    ids = _suite_with(monkeypatch, model, {("X1", "X2"): {"Z": const(1), "X12": const(2)}})
    item = ids["foliation:D12:integrable"]
    assert (item.status, item.computed) == ("fail", "<omega, [X1, X2]> = 1")
    assert ids["foliation:D13:integrable"].status == "pass"
    # without its X12 coordinate, [X1, X2] no longer pairs X1 with X2 under d(omega12)
    item = _suite_with(monkeypatch, model, {("X1", "X2"): {}})["foliation:D12:contact"]
    assert (item.status, item.computed) == ("fail", "0")


def test_non_constant_bracket_fails_without_crashing(model, monkeypatch):
    x1 = MultiPoly.variable(model.chart, "x1")
    ids = _suite_with(monkeypatch, model, {("X1", "X2"): {"X12": x1 + 2}})
    assert ids["bracket:[X1,X2]"].status == "fail"
    assert ids["bracket:[X1,X3]"].status == "pass"
    item = ids["growth:D"]
    assert item.status == "fail"
    assert item.computed == f"<omega12, [X1,X2]> = {x1 + 2} is not constant"
    assert model.table.bracket("X1", "X2") == expected_bracket(model, "X1", "X2")


def test_the_growth_of_D_is_closed_over_the_frame_table(model, monkeypatch):
    # without [X_i, Y_i] = -Z, no bracket of two generators reaches Z
    zeroed = {(f"X{i}", f"Y{i}"): {} for i in range(1, 5)}
    item = _suite_with(monkeypatch, model, zeroed)["growth:D"]
    assert (item.status, item.computed) == ("fail", "(8, 14)")
    # the growth is read off the closure, never off a matrix rank
    ranks, closed = [], spy_flags(monkeypatch)
    for module in (linalg, cartan):
        monkeypatch.setattr(module, "mat_rank", lambda rows: ranks.append(rows), raising=False)
    item = _suite_with(monkeypatch, model, {})["growth:D"]
    assert (item.status, item.computed) == ("pass", "(8, 15)")
    assert [(t.basis, t.generators) for t in closed] == [
        (tuple(model.fields), cartan.GENERATOR_ORDER)
    ]
    weights = {**dict.fromkeys(cartan.GENERATOR_ORDER, 1), **dict.fromkeys(cartan.CENTER, 2)}
    assert closed[0].flag == ((8, 15), weights)
    assert ranks == []


def test_duality_pairs_the_coframe_not_the_frame_table(model, monkeypatch):
    # the table's coordinates of the frame fields are unit vectors by
    # construction; with the table untouched, a perturbed coframe form still fails
    omega = model.coframe["omega"]
    bent = OneForm(model.chart, omega.components[:1] + (omega.components[1] + 1,) + omega.components[2:], "omega")
    copy = _copy(model, coframe={"omega": bent})
    vars(copy)["table"] = model.table
    monkeypatch.setattr(cartan, "build_model", lambda: copy)
    ids = by_id(cartan.verify_suite())
    # <omega, X1> picks up the x1 component 1 of X1
    assert (ids["duality:225"].status, ids["duality:225"].computed) == ("fail", "checked=225, mismatched=1")
    assert not failures([i for i in ids.values() if i.id != "duality:225"])


def test_the_suite_pairs_each_form_and_field_once(model, monkeypatch):
    # duality pairs the 15 coframe forms with the 15 frame fields once; the
    # frame table reads coordinates off the triangular frame, not off pairings
    calls = []
    real = cartan.pair
    monkeypatch.setattr(cartan, "pair", lambda form, v: calls.append(1) or real(form, v))
    copy = _copy(model)
    assert "table" not in vars(copy)
    monkeypatch.setattr(cartan, "build_model", lambda: copy)
    assert not failures(cartan.verify_suite())
    assert len(calls) == 225


def test_a_frame_that_is_not_triangular_fails_with_its_witness(model, monkeypatch):
    # Y1 + X1 keeps a global frame, but it is 1 on the lead of X1, and <dx1, Y1> = 1
    copy = _copy(model, frame={"Y1": model.fields["Y1"] + model.fields["X1"]})
    monkeypatch.setattr(cartan, "build_model", lambda: copy)
    items = cartan.verify_suite()
    assert [(i.id, i.status, i.computed) for i in failures(items)] == [
        ("duality:225", "fail", "checked=225, mismatched=1"),
        ("growth:D", "fail", "Y1 is 1 on the lead of X1"),
    ]


def test_shared_model_is_read_only():
    model = build_model()
    assert build_model() is model
    with pytest.raises(TypeError):
        model.fields["Z"] = model.fields["X12"]
    with pytest.raises(TypeError):
        model.coframe["omega"] = model.coframe["omega12"]
    with pytest.raises(AttributeError):
        model.fields = model.fields
    assert len(model.fields) == 15


def test_suite_green(cartan_run):
    items, _ = cartan_run
    assert len(items) == 141
    assert not failures(items)
    assert not discrepancies(items)
    ids = by_id(items)
    assert ids["growth:D"].status == "pass"
    assert ids["duality:225"].status == "pass"
    for i, j in PAIRS:
        assert ids[f"foliation:D{i}{j}:integrable"].status == "pass"
        assert ids[f"foliation:D{i}{j}:contact"].status == "pass"
