"""The one rule for a result checked against the published text
(`report.against_paper`), at each site that compares with a printed display."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import by_id, discrepancies
from f4prolong import control, nullflag, prolong
from f4prolong.poly import from_terms
from f4prolong.report import DISCREPANCY, PASS, against_paper

LIFT_NOTE = (
    "published display disagrees with the frame-derived lift; the frame and the"
    " published q-dot equations both force the computed sign"
)
TABLE_NOTE = "computed bracket is authoritative; the defining brackets come from the same derivation"


def test_a_pass_shows_neither_values_nor_note():
    item = against_paper("x", "x matches", "x vs", 3, 3, note="typo")
    assert (item.id, item.description, item.status) == ("x", "x matches", PASS)
    assert item.computed == item.expected == item.note == ""


def test_a_shown_pass_carries_both_values_and_no_note():
    item = against_paper("x", "x matches", "x vs", "zeta5", "zeta5", note="typo", shown=True)
    assert (item.status, item.computed, item.expected, item.note) == (PASS, "zeta5", "zeta5", "")


@pytest.mark.parametrize("shown", [False, True])
def test_a_discrepancy_carries_both_values_and_the_note(shown):
    item = against_paper("x", "x matches", "x vs", Fraction(1, 2), 2, note="typo", shown=shown)
    assert (item.description, item.status) == ("x vs", DISCREPANCY)
    assert (item.computed, item.expected, item.note) == ("1/2", "2", "typo")


def _display_site(name):
    """Run verify_sharp_display with control.<name>'s entry at key replaced
    by value(chart, published), or unpatched when key is None."""

    def run(monkeypatch, key=None, value=None):
        if key is not None:
            printed = getattr(control, name)
            monkeypatch.setattr(control, name, lambda chart: {**printed(chart), key: value(chart, printed(chart))})
        return by_id(control.verify_sharp_display())

    return run


def _data_site(published, verify):
    """Run verify() with published[key] replaced by value(None, published)."""

    def run(monkeypatch, key=None, value=None):
        if key is not None:
            monkeypatch.setitem(published, key, value(None, published))
        return by_id(verify())

    return run


_lift_site = _display_site("printed_lift_displays")
_sharp_site = _display_site("printed_sharp_display")
_expansion_site = _data_site(
    nullflag.PRINTED_NULL_EXPANSIONS, lambda: nullflag.verify_printed_expansions(nullflag.flag15_pairings())
)
_table_site = _data_site(
    prolong.PRINTED_TABLE, lambda: prolong.verify_bracket_table(prolong.build_zeta_generators().table)
)


# the derivation's z-dot and (f1|f1), where the published ones read "u4 u4" and z11
Z_DOT = {("u1", "y1"): 1, ("u2", "y2"): 1, ("u3", "y3"): 1, ("u4", "y4"): 1}
F1_F1 = {("z11", "z11"): 1, ("z13", "z16"): 4, ("z14", "z15"): -4, ("z17",): -4}

AGREEING = {
    "lift": (_lift_site, "lift:H_Y2", "Y2", lambda chart, d: control.lift_table(chart)["Y2"]),
    "sharp": (_sharp_site, "sharp:z-dot", "z", lambda chart, d: from_terms(chart, Z_DOT)),
    "expansion": (_expansion_site, "expansion:(f1|f1)", ("f1", "f1"), lambda chart, d: F1_F1),
    "table": (_table_site, "table:[z1,z16]", (1, 16), lambda chart, d: {18: Fraction(1)}),
}


@pytest.mark.parametrize("site", AGREEING)
def test_each_site_passes_where_the_published_value_is_the_computed_one(monkeypatch, site):
    run, item_id, key, value = AGREEING[site]
    assert run(monkeypatch)[item_id].status == DISCREPANCY
    item = run(monkeypatch, key, value)[item_id]
    assert item.status == PASS and item.note == ""
    if site == "table":
        assert item.computed == item.expected == "zeta18"
    else:
        assert item.computed == item.expected == ""


DISAGREEING = {
    # (site, item id, published key, perturbed value, computed, published, note)
    "lift": (
        _lift_site, "lift:H_X1", "X1", lambda chart, d: d["X1"] + 1,
        "-x2*r12 - x3*r13 - x4*r14 + y1*s + p1", "-x2*r12 - x3*r13 - x4*r14 + y1*s + p1 + 1", LIFT_NOTE,
    ),
    # the z-dot note names the z equation only
    "sharp": (_sharp_site, "sharp:s-dot", "s", lambda chart, d: d["s"] + 1, "0", "1", ""),
    "expansion": (
        _expansion_site, "expansion:(f2|f3)", ("f2", "f3"), lambda chart, d: {**d[("f2", "f3")], ("z17",): 1},
        "z21*z31 - 2*z24*z35 - 2*z25 + 2*z36", "z21*z31 - 2*z24*z35 - 2*z25 + z17 + 2*z36", "",
    ),
    "table": (_table_site, "table:[z1,z2]", (1, 2), lambda chart, d: {5: Fraction(2)}, "zeta5", "2*zeta5", TABLE_NOTE),
}


@pytest.mark.parametrize("site", DISAGREEING)
def test_each_site_reports_a_perturbed_published_value_with_both_values(monkeypatch, site):
    run, item_id, key, value, computed, published, note = DISAGREEING[site]
    assert run(monkeypatch)[item_id].status == PASS
    item = run(monkeypatch, key, value)[item_id]
    assert (item.status, item.computed, item.expected, item.note) == (DISCREPANCY, computed, published, note)


def test_every_discrepancy_of_verify_all_shows_both_values(cartan_run, control_run, nullflag_run, prolong_run, roots_run):
    items = [i for run in (cartan_run, control_run, nullflag_run, prolong_run, roots_run) for i in run[0]]
    found = discrepancies(items)
    assert len(found) == 12
    assert all(i.computed and i.expected for i in found), [i.id for i in found if not (i.computed and i.expected)]


def test_the_two_pass_formats_of_the_published_comparisons(control_run, nullflag_run, prolong_run):
    items = control_run[0] + nullflag_run[0] + prolong_run[0]
    passes = [i for i in items if i.status == PASS]
    bare = [i for i in passes if i.id.startswith(("lift:", "sharp:", "expansion:"))]
    assert len(bare) == 41
    assert all(i.computed == i.expected == i.note == "" for i in bare)
    shown = [i for i in passes if i.id.startswith("table:") and "published" in i.description]
    assert len(shown) == 81
    for i in shown:
        key = tuple(int(n) for n in i.id[len("table:[z") : -1].split(",z"))
        assert i.computed == i.expected == prolong._fmt_combo(prolong.PRINTED_TABLE[key]) and i.note == ""
