"""The 15-dimensional model: frame, coframe, brackets, foliations, growth."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import by_id, discrepancies, failures
from f4prolong import cartan
from f4prolong.cartan import (
    PAIRS,
    build_model,
    even_complement,
    expected_bracket,
    type_f4_frame_check,
    verify_bracket_table,
    verify_duality,
)
from f4prolong.fields import derived_flag, lie_bracket, origin, pair, random_point


@pytest.fixture(scope="module")
def model():
    return build_model()


def test_even_complement():
    assert even_complement(1, 2) == (3, 4)
    assert even_complement(1, 3) == (4, 2)
    assert even_complement(1, 4) == (2, 3)
    assert even_complement(2, 3) == (1, 4)
    assert even_complement(2, 4) == (3, 1)
    assert even_complement(3, 4) == (1, 2)


def test_distribution_annihilated_by_pfaff_forms(model):
    # D = ker(omega, omega_ij): the seven annihilator forms kill X_i and Y_i
    ann = model.coframe_order[:7]
    for g in model.distribution.generators:
        for cname in ann:
            assert pair(model.coframe[cname], g).is_zero()


def test_spot_brackets(model):
    f = model.frame
    assert lie_bracket(f["X1"], f["X2"]) == expected_bracket(model, "X1", "X2")
    assert expected_bracket(model, "X1", "X2") == f["X12"] * Fraction(2)
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


def test_growth_vector_8_15(model):
    rng = random.Random(1)
    for p in [origin(model.chart)] + [random_point(model.chart, rng) for _ in range(3)]:
        assert derived_flag(model.distribution, p).ranks == (8, 15)


def test_f4_frame_check_evaluates_the_distribution_once_per_point(model, monkeypatch):
    calls = []
    real = cartan.span_at
    monkeypatch.setattr(cartan, "span_at", lambda fs, p: calls.append(fs) or real(fs, p))
    items = type_f4_frame_check(model.frame, model.distribution)
    # the origin and 5 sample points, after the rank check of the frame
    assert calls.count(model.distribution.generators) == 6
    assert len(items) == 22
    assert not failures(items)
    # with Y1 and Y2 swapped, [X1, Y1] = 0 while [X3, Y3] = Z lies outside D
    swapped = dict(model.frame, Y1=model.frame["Y2"], Y2=model.frame["Y1"])
    ids = by_id(type_f4_frame_check(swapped, model.distribution))
    assert ids["f4:[X1,Y1]~[X3,Y3]"].status == "fail"


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
