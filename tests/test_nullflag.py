"""Null flags: completion, the Lambda-to-V correspondence, nullity, dimensions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import by_id, discrepancies, failures
from f4prolong import nullflag
from f4prolong.control import bilinear_Q, bilinear_R
from f4prolong.nullflag import (
    DEPENDENT_COORDS,
    FREE_COORDS,
    LambdaFlagFrame,
    VFlagFrame,
    complete_null_flag,
    eta_frames,
    lambda_to_v,
    random_coords,
    verify_flag_nullity,
)


def _coords(rng):
    return random_coords(rng)


def test_completion_is_r_null():
    rng = random.Random(4)
    for _ in range(20):
        frame = complete_null_flag(_coords(rng))
        for fa in (frame.f1, frame.f2, frame.f3):
            for fb in (frame.f1, frame.f2, frame.f3):
                assert bilinear_R(list(fa), list(fb)) == 0


def test_completion_pivot_structure():
    rng = random.Random(9)
    frame = complete_null_flag(_coords(rng))
    assert frame.f1[1] == 1
    assert frame.f2[1] == 0 and frame.f2[2] == 1
    assert frame.f3[1] == 0 and frame.f3[2] == 0 and frame.f3[3] == 1


def test_lambda_to_v_is_q_null():
    rng = random.Random(7)
    for _ in range(20):
        v = lambda_to_v(complete_null_flag(_coords(rng)))
        for a in range(4):
            for b in range(a, 4):
                assert bilinear_Q(v.etas[a], v.etas[b]) == 0


def test_base_point_etas():
    coords = {n: Fraction(0) for n in FREE_COORDS}
    v = lambda_to_v(complete_null_flag(coords))

    def e(k):
        return tuple(Fraction(1 if i == k else 0) for i in range(8))

    assert v.eta1 == e(4)
    assert v.eta2 == e(3)
    assert v.eta3 == e(2)
    assert v.eta4 == e(5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=9, max_size=9))
def test_closed_form_matches_kernel_solve(vals):
    coords = dict(zip(FREE_COORDS, vals))
    v = lambda_to_v(complete_null_flag(coords))
    # the published pivots over (u1, u2, u3, u4, v1, v2, v3, v4)
    assert v.eta1[4] == 1
    assert (v.eta2[3], v.eta2[4]) == (1, 0)
    assert (v.eta3[2], v.eta3[3], v.eta3[4], v.eta3[5]) == (1, 0, 0, 0)
    assert (v.eta4[2], v.eta4[3], v.eta4[4], v.eta4[5]) == (0, 0, 0, 1)
    assert v.etas == eta_frames(coords).etas


def _unit(k):
    return tuple(Fraction(int(i == k)) for i in range(7))


@pytest.mark.parametrize(
    "slots, message",
    [
        # f1 = f2 = f3 = r34: the kernels do not shrink
        ((6, 6, 6), "unexpected kernel dimensions"),
        # (r34, r24, r14) is a totally R-null flag, but not in the echelon patch
        ((6, 5, 3), "outside the echelon normalization patch"),
    ],
    ids=["kernels-do-not-shrink", "outside-the-patch"],
)
def test_lambda_to_v_rejects_a_frame_off_the_patch(slots, message):
    frame = LambdaFlagFrame(*(_unit(k) for k in slots), {})
    for a in (frame.f1, frame.f2, frame.f3):
        for b in (frame.f1, frame.f2, frame.f3):
            assert bilinear_R(a, b) == 0
    with pytest.raises(ValueError, match=message):
        lambda_to_v(frame)


def test_nullity_report_passes():
    rng = random.Random(21)
    items = verify_flag_nullity(lambda_to_v(complete_null_flag(_coords(rng))))
    assert not failures(items)


def test_lambda_to_v_rejects_non_null_frame():
    rng = random.Random(2)
    frame = complete_null_flag(_coords(rng))
    broken = type(frame)(
        tuple(list(frame.f1[:-1]) + [frame.f1[-1] + 1]), frame.f2, frame.f3, frame.coords
    )
    with pytest.raises(ValueError):
        lambda_to_v(broken)


def test_coordinate_partition():
    assert len(FREE_COORDS) == 9
    assert len(DEPENDENT_COORDS) == 6
    assert not set(FREE_COORDS) & set(DEPENDENT_COORDS)


def test_suite_statuses(nullflag_run):
    items, _ = nullflag_run
    assert not failures(items)
    assert {i.id for i in discrepancies(items)} == {"expansion:(f1|f1)"}
    ids = by_id(items)
    assert ids["dim:lambda-fiber"].status == "pass"
    assert ids["dim:v-fiber"].status == "pass"
    assert ids["samples:closed-form-crosscheck"].computed.startswith("0 ")


def _z17_off_by_one(real):
    """complete_null_flag with the dependent coordinate z17 off by 1."""

    def complete(coords):
        f = real(coords)
        return LambdaFlagFrame(f.f1[:-1] + (f.f1[-1] + 1,), f.f2, f.f3, f.coords)

    return complete


def _eta1_plus_u1(real):
    """lambda_to_v with e_u1 added to eta1: Q(eta1, eta1) = v1 = 1, while
    eta2..eta4 have v1 = 0 and stay Q-orthogonal to it."""

    def to_v(frame):
        v = real(frame)
        return VFlagFrame((v.eta1[0] + 1,) + v.eta1[1:], v.eta2, v.eta3, v.eta4)

    return to_v


@pytest.mark.parametrize(
    "name, defect, item_id, computed",
    [
        # (f1|f1) picks up -4 at every sample, the other pairings do not move
        ("complete_null_flag", _z17_off_by_one, "samples:r-null", "5 nonzero pairings"),
        ("lambda_to_v", _eta1_plus_u1, "samples:q-null", "5 nonzero pairings"),
        # every kernel of the zero matrix is everything
        ("build_A", lambda real: lambda lam: [[0] * 8] * 8, "samples:dims", "5 failures"),
    ],
    ids=["r-null", "q-null", "dims"],
)
def test_sampled_checks_can_fail(monkeypatch, name, defect, item_id, computed):
    monkeypatch.setattr(nullflag, name, defect(getattr(nullflag, name)))
    item = by_id(nullflag.verify_samples(seed=3, samples=5))[item_id]
    assert (item.status, item.computed) == ("fail", computed)
