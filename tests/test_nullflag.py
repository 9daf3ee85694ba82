"""Null flags: completion, the Lambda-to-V correspondence, nullity, dimensions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import by_id, discrepancies, failures
from f4prolong import nullflag
from f4prolong.control import bilinear_Q, bilinear_R, build_A
from f4prolong.linalg import mat_rank
from f4prolong.nullflag import (
    DEPENDENT_COORDS,
    FREE_COORDS,
    LambdaFlagFrame,
    VFlagFrame,
    complete_null_flag,
    eta_frames,
    lambda_to_v,
    verify_flag_nullity,
)


def _coords(rng):
    return {n: Fraction(rng.randint(-2, 2)) for n in FREE_COORDS}


def test_seeded_flags_agree_with_the_chart_certificates():
    # the oracle of the samples:* items: each seeded flag completes to an
    # R-null frame whose kernels have the profile (4, 2, 1), and the frame
    # lambda_to_v solves is the Q-null closed form
    rng = random.Random(0)
    for _ in range(100):
        coords = _coords(rng)
        frame = complete_null_flag(coords)
        fs = (frame.f1, frame.f2, frame.f3)
        assert all(bilinear_R(a, b) == 0 for a in fs for b in fs)
        rows = [row for f in fs for row in build_A(f)]
        assert [8 - mat_rank(rows[:n]) for n in (8, 16, 24)] == [4, 2, 1]
        v = lambda_to_v(frame)
        assert v.etas == eta_frames(coords).etas
        assert all(bilinear_Q(a, b) == 0 for a in v.etas for b in v.etas)


def test_completion_is_r_null():
    rng = random.Random(4)
    for _ in range(20):
        frame = complete_null_flag(_coords(rng))
        for fa in (frame.f1, frame.f2, frame.f3):
            for fb in (frame.f1, frame.f2, frame.f3):
                assert bilinear_R(list(fa), list(fb)) == 0


def test_int_coordinates_complete_like_fractions():
    # int coordinates are read into the Fractions, so the frame, its entry
    # types and the eta frame are those of the same Fraction coordinates
    rng = random.Random(5)
    for _ in range(10):
        ints = {n: rng.randint(-2, 2) for n in FREE_COORDS}
        by_int = complete_null_flag(ints)
        by_frac = complete_null_flag({n: Fraction(x) for n, x in ints.items()})
        assert by_int == by_frac
        for got, want in zip(by_int.f1 + by_int.f2 + by_int.f3, by_frac.f1 + by_frac.f2 + by_frac.f3):
            assert type(got) is type(want) is Fraction
        assert lambda_to_v(by_int) == lambda_to_v(by_frac)


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
    """kernel_frame with e_u1 added to eta1 (u1 leads PIVOT_ORDER): Q(eta1,
    eta1) = v1 = 1, while eta2..eta4 have v1 = 0 and stay Q-orthogonal to it."""

    def solve(*args):
        witness, etas = real(*args)
        return witness, [[etas[0][0] + 1] + etas[0][1:]] + etas[1:]

    return solve


def _certificates():
    """verify_flag_certificates on the flag9 chart, both item lists by id."""
    symbolic, samples = nullflag.verify_flag_certificates(*nullflag.symbolic_flag())
    return by_id(symbolic), by_id(samples)


@pytest.mark.parametrize(
    "name, defect, item_id, computed",
    [
        # (f1|f1) picks up -4, the other pairings do not move
        ("complete_null_flag", _z17_off_by_one, "samples:r-null",
         "1 nonzero pairings; (f1|f1) = -4"),
        ("kernel_frame", _eta1_plus_u1, "samples:q-null",
         "1 nonzero pairings; Q(eta1, eta1) = 1"),
        # every minor of the zero matrix is 0
        ("build_A", lambda real: lambda lam: [[0] * 8] * 8, "samples:dims",
         "minor on rows (0, 1, 6, 7) = 0"),
    ],
    ids=["r-null", "q-null", "dims"],
)
def test_sampled_checks_can_fail(monkeypatch, name, defect, item_id, computed):
    monkeypatch.setattr(nullflag, name, defect(getattr(nullflag, name)))
    item = _certificates()[1][item_id]
    assert (item.status, item.computed) == ("fail", computed)


def _typo(monkeypatch, eta, slot):
    """eta_frames with one coefficient of one published eta off by 1."""
    real = nullflag.eta_frames

    def typo(coords):
        etas = [list(e) for e in real(coords).etas]
        etas[eta][slot] = etas[eta][slot] + 1
        return VFlagFrame(*map(tuple, etas))

    monkeypatch.setattr(nullflag, "eta_frames", typo)


@pytest.mark.parametrize("eta, slot", [(0, 0), (0, 7), (1, 6), (3, 2)])
def test_a_closed_form_typo_is_counted(monkeypatch, eta, slot):
    # the kernel-solved frame does not move, so only the cross-check sees
    # the typo, as one mismatch
    _typo(monkeypatch, eta, slot)
    items = _certificates()[1]
    assert [items[f"samples:{n}"].status for n in ("r-null", "dims", "q-null")] == ["pass"] * 3
    cross = items["samples:closed-form-crosscheck"]
    assert (cross.status, cross.computed) == ("paper-discrepancy", "1 coefficient mismatches")


# the symbolic kernel items that read eta1..eta4: A(f1) reads all four,
# A(f2) eta1 and eta2, A(f3) eta1 (eta4's slot 2 is u3, in its free part)
@pytest.mark.parametrize(
    "eta, slot, kernels",
    [(0, 0, "123"), (0, 7, "123"), (1, 6, "12"), (3, 2, "1")],
)
def test_a_closed_form_typo_fails_the_symbolic_items_that_read_it(monkeypatch, eta, slot, kernels):
    _typo(monkeypatch, eta, slot)
    symbolic, samples = _certificates()
    failed = {f"symbolic:A(f{i})-kernel" for i in kernels} | {"symbolic:eta-q-null"}
    assert {i for i, item in symbolic.items() if item.status == "fail"} == failed
    assert symbolic["symbolic:flag-null"].status == "pass"
    assert [samples[f"samples:{n}"].status for n in ("r-null", "dims", "q-null")] == ["pass"] * 3


def _counting(monkeypatch, module, names):
    """Wrap module.<name> for each name; returns {name: [argument texts]},
    with the chart of each argument's first entry, if it has one."""
    seen = {name: [] for name in names}
    for name in names:
        real = getattr(module, name)

        def spy(*args, _real=real, _seen=seen[name]):
            chart = getattr(args[0][0], "chart", None)
            _seen.append((chart and chart.id, repr([[str(x) for x in a] for a in args])))
            return _real(*args)

        monkeypatch.setattr(module, name, spy)
    return seen


def test_each_shared_fact_is_computed_once(monkeypatch):
    # the symbolic and samples items share the six R-pairings of the
    # completed flag, the closed forms' residuals and their ten Q-pairings;
    # the printed expansions and the nullity equations share the six
    # R-pairings of the flag15 vectors
    seen = _counting(monkeypatch, nullflag, ("mat_vec", "bilinear_R", "bilinear_Q"))
    items = nullflag.verify_suite()
    assert not failures(items)
    assert {name: len(calls) for name, calls in seen.items()} == {
        "mat_vec": 4, "bilinear_R": 39, "bilinear_Q": 20
    }
    # on the flag9 chart of the completion and the closed forms, and on the
    # flag15 chart, no two vectors are paired twice
    for name, on in (("bilinear_R", "flag9"), ("bilinear_Q", "flag9"), ("bilinear_R", "flag15")):
        pairings = [args for chart, args in seen[name] if chart == on]
        assert len(set(pairings)) == len(pairings) > 0, (name, on)


@pytest.mark.parametrize(
    "name, value, computed",
    [
        ("NULLITY_EQUATIONS", nullflag.NULLITY_EQUATIONS[:5],
         "5 equations in 6 dependent coordinates"),
        # z35 twice: two equal Jacobian columns
        ("DEPENDENT_COORDS", ("z35",) + DEPENDENT_COORDS[:5], "15 slots, Jacobian det 0"),
    ],
    ids=["dropped-equation", "duplicated-coordinate"],
)
def test_lambda_fiber_check_can_fail(monkeypatch, name, value, computed):
    monkeypatch.setattr(nullflag, name, value)
    item = by_id(nullflag.verify_dimensions(nullflag.flag15_pairings()))["dim:lambda-fiber"]
    assert (item.status, item.computed) == ("fail", computed)
