"""Hamiltonian lifts, matrix identities, the singular-velocity cone, integrator."""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import by_id, dense_evaluate, discrepancies, failures
from f4prolong import cartan, cli, control, fields
from f4prolong.cartan import BASE_VARIABLES, GENERATOR_ORDER, build_model
from f4prolong.control import (
    CONJUGATE_PAIRS,
    CONTROL_VARIABLES,
    COV7_VARIABLES,
    FIBER_VARIABLES,
    R_NAMES,
    ControlVector,
    CovectorFiber,
    bilinear_Q,
    bilinear_R,
    build_A,
    build_A11,
    build_A22,
    build_U,
    bracket_lifts,
    cotangent_chart,
    form_Q,
    form_R,
    gram_R,
    hamiltonian_lift,
    integrate_extremal,
    lift_table,
    poisson_bracket,
    standard_initial_data,
    svc_membership,
    twisted_gram,
)
from f4prolong.linalg import integer_vector, mat_rank, mat_rank_kernel, mat_vec, solve_exact
from f4prolong.poly import Chart, MultiPoly


def _sym_skew_blocks():
    s = sympy.Symbol("s")
    r = sympy.symbols("r12 r13 r14 r23 r24 r34")
    a11 = build_A11(list(r))
    a22 = build_A22(list(r))
    return s, r, a11, a22


def test_det_A11_A22_sympy_oracle():
    _, r, a11, a22 = _sym_skew_blocks()
    r12, r13, r14, r23, r24, r34 = r
    pf = r12 * r34 - r13 * r24 + r14 * r23
    assert sympy.expand(sympy.Matrix(a11).det() - (4 * pf) ** 2) == 0
    assert sympy.expand(sympy.Matrix(a22).det() - (4 * pf) ** 2) == 0


def test_A11_A22_commute_to_scalar_sympy_oracle():
    _, r, a11, a22 = _sym_skew_blocks()
    r12, r13, r14, r23, r24, r34 = r
    pf = r12 * r34 - r13 * r24 + r14 * r23
    prod = sympy.Matrix(a11) * sympy.Matrix(a22)
    assert sympy.simplify(prod + 4 * pf * sympy.eye(4)) == sympy.zeros(4)


def test_det_twisted_gram_sympy_oracle():
    u = sympy.symbols("u1 u2 u3 u4")
    v = sympy.symbols("v1 v2 v3 v4")
    g = sympy.Matrix(twisted_gram(list(u + v)))
    q = sum(a * b for a, b in zip(u, v))
    assert sympy.expand(g.det() - 8192 * q**7) == 0


def _diagonal_gram(entry):
    """A stand-in for twisted_gram: diag(entry(w), 1, 1, 1, 1, 1, 1)."""

    def gram(w):
        one = MultiPoly.constant(w[0].chart, 1)
        diag = [entry(w)] + [one] * 6
        return [[diag[i] if i == j else one * 0 for j in range(7)] for i in range(7)]

    return gram


@pytest.mark.parametrize(
    "entry, status, computed",
    [
        # det = u1 v1 has the degree of Q and the coefficient of Q's first
        # monomial, yet it is not c * Q^k
        (lambda w: w[0] * w[4], "fail", "u1*v1"),
        (lambda w: w[0] * 0, "pass", "c = 0, k = 0"),
        # Q / 2 is c * Q^k, but c is not an integer
        (lambda w: (w[0] * w[4] + w[1] * w[5] + w[2] * w[6] + w[3] * w[7]) * Fraction(1, 2),
         "fail", "c = 1/2, k = 1"),
    ],
    ids=["not-a-power-of-Q", "zero-determinant", "non-integer-multiple"],
)
def test_det_form_item_reads_the_determinant(monkeypatch, entry, status, computed):
    monkeypatch.setattr(control, "twisted_gram", _diagonal_gram(entry))
    item = by_id(control.verify_matrix_identities())["matrix:det-tUU-form"]
    assert (item.status, item.computed) == (status, computed)


def test_gram_R_matches_form():
    g = gram_R()
    rng = random.Random(2)
    for _ in range(10):
        c = CovectorFiber(
            Fraction(rng.randint(-3, 3)),
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(6)),
        )
        vec = list(c.as_seq())
        quad = sum(
            g[i][j] * vec[i] * vec[j] for i in range(7) for j in range(7)
        )
        assert quad == form_R(c)


def test_poisson_pins_convention():
    chart = cotangent_chart()
    model = build_model()
    h1 = hamiltonian_lift(model.fields["X1"], chart)
    h2 = hamiltonian_lift(model.fields["X2"], chart)
    assert poisson_bracket(h1, h2) == MultiPoly.variable(chart, "r12") * 2 == bracket_lifts(chart)[("X1", "X2")]


def test_lifts_are_linear_in_the_fiber():
    chart = cotangent_chart()
    model = build_model()
    fiber = [chart.index(v) for v in FIBER_VARIABLES]
    assert len(model.fields) == 15
    for name in model.fields:
        h = hamiltonian_lift(model.fields[name], chart)
        assert not h.is_zero()
        assert all(sum(e[k] for k in fiber) == 1 for e, _ in h.exponents()), name


def test_poisson_bracket_sympy_oracle():
    chart = cotangent_chart()
    model = build_model()
    base = chart.variables[:15]
    fiber = chart.variables[15:]
    syms = {n: sympy.Symbol(n) for n in chart.variables}

    def to_sympy(p):
        out = 0
        for e, c in p.exponents():
            term = sympy.Rational(c.numerator, c.denominator)
            for n, k in zip(chart.variables, e):
                term *= syms[n] ** k
            out += term
        return out

    for a, b in [("X1", "Y1"), ("Y2", "Y3"), ("X3", "Y4")]:
        f = hamiltonian_lift(model.fields[a], chart)
        g = hamiltonian_lift(model.fields[b], chart)
        fs, gs = to_sympy(f), to_sympy(g)
        oracle = sum(
            sympy.diff(fs, syms[fv]) * sympy.diff(gs, syms[bv])
            - sympy.diff(fs, syms[bv]) * sympy.diff(gs, syms[fv])
            for bv, fv in zip(base, fiber)
        )
        assert sympy.expand(to_sympy(poisson_bracket(f, g)) - oracle) == 0


def _diff_poisson(f, g):
    """The bracket as four diffs and two products per conjugate pair, summed
    one polynomial at a time: the oracle for the partials-based kernel."""
    out = MultiPoly.zero(f.chart)
    for fib, base in CONJUGATE_PAIRS:
        out = out + f.diff(fib) * g.diff(base) - f.diff(base) * g.diff(fib)
    return out


@st.composite
def chart_polys(draw, chart):
    """Up to six terms of degree at most four with rational coefficients;
    some terms read only base or only fiber variables."""
    n = chart.dimension
    reach = draw(st.sampled_from([range(n), range(15), range(15, 30)]))
    exps = st.lists(st.sampled_from(list(reach)), max_size=4).map(
        lambda picks: tuple(picks.count(i) for i in range(n))
    )
    coeff = st.fractions(-4, 4, max_denominator=6)
    return MultiPoly(chart, draw(st.dictionaries(exps, coeff, max_size=6)))


@st.composite
def poisson_pairs(draw):
    chart = draw(st.sampled_from([cotangent_chart(), control.phase_control_chart()]))
    return draw(chart_polys(chart)), draw(chart_polys(chart))


@settings(max_examples=80, deadline=None)
@given(poisson_pairs())
def test_poisson_bracket_equals_the_diff_formula(pair):
    f, g = pair
    got = poisson_bracket(f, g)
    assert got == _diff_poisson(f, g)
    assert poisson_bracket(g, f) == -got
    # a second bracket reads the cached partials and gives the same result
    assert poisson_bracket(f, g) == got and f.partials() is f.partials()


def test_each_lift_builds_its_partials_once_per_control_suite(monkeypatch):
    real = MultiPoly.partials
    built = []

    def spy(p):
        if not hasattr(p, "_partials"):
            built.append(p)
        return real(p)

    lift_table.cache_clear()
    bracket_lifts.cache_clear()
    monkeypatch.setattr(MultiPoly, "partials", spy)
    items = control.verify_suite()
    assert not failures(items)
    # built keeps every polynomial alive, so equal ids mean one object built twice
    assert len({id(p) for p in built}) == len(built)
    for chart in (cotangent_chart(), control.phase_control_chart()):
        lifts = lift_table(chart)
        assert all(sum(p is lifts[name] for p in built) == 1 for name in GENERATOR_ORDER), chart


def test_rank_dichotomy_examples():
    # Q(w) = u . v; rank 7 off the cone, rank 4 on it
    u = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    v_on = [Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
    v_off = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    assert mat_rank(build_U(u + v_on)) == 4
    assert mat_rank(build_U(u + v_off)) == 7


def _random_control(rng: random.Random, null: bool) -> ControlVector:
    """A random rational control vector; when null, with Q = 0 exactly."""
    while True:
        u = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
        w = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
        if not null:
            return ControlVector(u, w)
        uu = sum(a * a for a in u)
        if uu == 0:
            continue
        dot = sum(a * b for a, b in zip(u, w))
        v = tuple(b - dot / uu * a for a, b in zip(u, w))
        return ControlVector(u, v)


def test_U_rank_dichotomy_on_seeded_controls():
    # the oracle of matrix:U-rank-dichotomy: rank 7 off the cone, 4 on it and
    # 0 at w = 0, on w scaled to integers
    rng = random.Random(0)
    for k in range(100):
        w = _random_control(rng, null=k % 2 == 0)
        want = 0 if w.is_zero() else 4 if form_Q(w) == 0 else 7
        assert mat_rank(build_U(integer_vector(w.as_seq())[0])) == want
    assert mat_rank(build_U([0] * 8)) == 0


def test_svc_witnesses_on_seeded_controls():
    # the oracle of svc:samples: membership iff Q = 0, and every witness is a
    # nonzero R-null covector in ker A(witness)·w, checked on integer multiples
    rng = random.Random(0)
    witnesses = 0
    for k in range(200):
        w = _random_control(rng, null=k % 2 == 0)
        member, witness = svc_membership(w)
        assert member == (form_Q(w) == 0)
        if member:
            assert witness is not None and not witness.is_zero()
            c, _ = integer_vector(witness.as_seq())
            assert bilinear_R(c, c) == 0
            assert not any(mat_vec(build_A(c), integer_vector(w.as_seq())[0]))
            witnesses += 1
    assert witnesses >= 100


def test_svc_membership_and_witness():
    rng = random.Random(11)
    for _ in range(30):
        u = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
        v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
        w = ControlVector(u, v)
        member, witness = svc_membership(w)
        assert member == (form_Q(w) == 0)
        if member and not w.is_zero():
            assert witness is not None
            assert form_R(witness) == 0
            assert not any(mat_vec(build_A(witness.as_seq()), w.as_seq()))


def test_records_refuse_components_of_the_wrong_length():
    zero = Fraction(0)
    assert CovectorFiber(zero, (zero,) * 6).is_zero()
    for r in ((zero,) * 5, (zero,) * 7):
        with pytest.raises(ValueError, match="need six r components"):
            CovectorFiber(zero, r)
    assert ControlVector((zero,) * 4, (zero,) * 4).is_zero()
    for u, v in (((zero,) * 3, (zero,) * 4), ((zero,) * 4, (zero,) * 5)):
        with pytest.raises(ValueError, match="need u, v of length 4"):
            ControlVector(u, v)


def test_bilinear_Q_polarizes():
    w1 = ControlVector(
        (Fraction(1), Fraction(2), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(1), Fraction(3)),
    )
    assert bilinear_Q(w1.as_seq(), w1.as_seq()) == form_Q(w1)
    w2 = ControlVector(
        (Fraction(2), Fraction(0), Fraction(-1), Fraction(1, 2)),
        (Fraction(1), Fraction(1), Fraction(0), Fraction(-2)),
    )
    s = ControlVector(
        tuple(a + b for a, b in zip(w1.u, w2.u)), tuple(a + b for a, b in zip(w1.v, w2.v))
    )
    # polarization identity: Q(w1 + w2) = Q(w1) + 2 (w1, w2) + Q(w2)
    assert form_Q(s) == form_Q(w1) + 2 * bilinear_Q(w1.as_seq(), w2.as_seq()) + form_Q(w2)
    # and over polynomials, with the 1/2 of the integer Gram terms applied once
    chart = Chart("ctrl8", CONTROL_VARIABLES)
    w = [MultiPoly.variable(chart, n) for n in CONTROL_VARIABLES]
    assert bilinear_Q(w, w) == form_Q(ControlVector(tuple(w[:4]), tuple(w[4:])))


rationals = st.fractions(-4, 4, max_denominator=6)
nonzero_ints = st.integers(-6, 6).filter(bool)


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=8, max_size=8), st.lists(rationals, min_size=8, max_size=8))
def test_pairings_of_integer_representatives(a, b):
    for form, n in ((bilinear_R, 7), (bilinear_Q, 8)):
        (ia, da), (ib, db) = integer_vector(a[:n]), integer_vector(b[:n])
        assert form(a[:n], b[:n]) == Fraction(form(ia, ib)) / (da * db)


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=7, max_size=7), nonzero_ints)
def test_kernel_of_A_is_unchanged_by_scaling(lam, c):
    # move lam onto the cone R = 0 through r34, where ker A has dimension 4
    s, r12, r13, r14, r23, r24, _ = lam
    if r12:
        lam[6] = (s * s / 4 + r13 * r24 - r14 * r23) / r12
    rank, basis = mat_rank_kernel(build_A(lam))
    assert len(basis) == 4 or not r12
    assert mat_rank_kernel(build_A([c * x for x in lam])) == (rank, basis)


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=8, max_size=8), nonzero_ints)
def test_svc_witness_is_unchanged_by_scaling(x, c):
    u, y = x[:4], x[4:]
    uu = sum(a * a for a in u)
    dot = sum(a * b for a, b in zip(u, y))
    v = [b - dot / uu * a for a, b in zip(u, y)] if uu else y
    w = ControlVector(tuple(u), tuple(v))
    scaled = ControlVector(tuple(c * a for a in u), tuple(c * a for a in v))
    member, witness = svc_membership(w)
    assert member and witness is not None and form_R(witness) == 0
    assert svc_membership(scaled) == (member, witness)


def test_integrator_standard_data_zero_drift():
    init, controls = standard_initial_data()
    _, drift = integrate_extremal(init, controls, 1e-3, 0.1)
    assert drift.max_constraint_drift < 1e-8
    assert drift.max_sr_drift < 1e-8


def test_integrator_rejects_bad_input():
    init, controls = standard_initial_data()
    with pytest.raises(ValueError):
        integrate_extremal(init, controls, -1.0, 1.0)
    zero_cov = dict(init)
    zero_cov["r12"] = Fraction(0)
    with pytest.raises(ValueError):
        integrate_extremal(zero_cov, controls, 1e-3, 1.0)
    bad_controls = ControlVector(
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(0), Fraction(0)),
    )
    with pytest.raises(ValueError):
        integrate_extremal(init, bad_controls, 1e-3, 1.0)
    off_constraint = dict(init)
    off_constraint["p1"] = Fraction(1)
    with pytest.raises(ValueError):
        integrate_extremal(off_constraint, controls, 1e-3, 1.0)
    for step, t_max in ((float("nan"), 1.0), (float("inf"), 1.0), (0.5, float("inf")),
                        (0.5, float("nan")), (0.5, -1.0), (0.5, 0.0)):
        with pytest.raises(ValueError):
            integrate_extremal(init, controls, step, t_max)


@pytest.mark.parametrize("step, t_max", [(0.3, 1.0), (1.0, 1e-300), (1.0, 0.5), (1e-3, 0.0105)])
def test_integrator_rejects_a_horizon_that_is_not_a_whole_number_of_steps(step, t_max):
    init, controls = standard_initial_data()
    with pytest.raises(ValueError, match=f"t_max = {t_max!r} .* steps of {step!r}"):
        integrate_extremal(init, controls, step, t_max)


def test_integrator_constraints_are_exact():
    # an exact violation far below any float tolerance is still a violation
    init, controls = standard_initial_data()
    init["p1"] = Fraction(1, 10**15)
    with pytest.raises(ValueError, match="H_X1"):
        integrate_extremal(init, controls, 0.5, 1.0)


def test_integrator_rejects_a_trajectory_that_leaves_the_floats():
    # three steps of 1e300 overflow the state; the drift used to read 2.38e285
    init, _ = standard_initial_data()
    covector = "9/5 -1/200 109/200 81/100 1 0 0".split()
    for name, x in zip(["s"] + [f"r{n}" for n in R_NAMES], covector):
        init[name] = Fraction(x)
    c = [Fraction(x) for x in "-2 1 1 -2 -6/5 11/10 1/10 9/5".split()]
    controls = ControlVector(tuple(c[:4]), tuple(c[4:]))
    integrate_extremal(init, controls, 1e-3, 3e-3)  # finite at a small step
    with pytest.raises(ValueError, match="RK4 state is not finite"):
        integrate_extremal(init, controls, 1e300, 3e300)


def test_integrator_rejects_a_constraint_value_beyond_the_floats():
    # every state entry is finite, but H_X1 = -x2*r12 - x4*r14 + ... is
    # -inf + inf = nan in floats; max() used to pass over it and report 0.0
    init, _ = standard_initial_data()
    big = Fraction(10) ** 160
    init.update(x2=big, x4=-big, r12=big, r14=big)
    zero = Fraction(0)
    controls = ControlVector((zero, zero, Fraction(1), zero), (zero,) * 4)
    with pytest.raises(ValueError, match="drift is not finite at t = 0"):
        integrate_extremal(init, controls, 1e-2, 3e-2)


def test_integrator_rejects_an_initial_state_beyond_the_floats():
    init, controls = standard_initial_data()
    init["r12"] = Fraction(10) ** 400
    with pytest.raises(ValueError, match="does not fit in floats"):
        integrate_extremal(init, controls, 1e-3, 3e-3)


def _reference_rhs(controls):
    """The constant-control right-hand sides in chart order, built from the
    frame fields."""
    chart = cotangent_chart()
    model = build_model()
    h = MultiPoly.zero(chart)
    for name, c in zip(GENERATOR_ORDER, controls.as_seq()):
        h = h + hamiltonian_lift(model.fields[name], chart) * c
    by_var = {}
    for fib, base in CONJUGATE_PAIRS:
        by_var[base] = h.diff(fib)
        by_var[fib] = -h.diff(base)
    return [by_var[v] for v in chart.variables]


def _reference_step(rhs, state, step):
    """One list-based RK4 step with every right-hand side evaluated by the
    dense Fraction walk."""

    def f(state):
        return [float(dense_evaluate(p, state)) for p in rhs]

    k1 = f(state)
    k2 = f([x + step / 2 * d for x, d in zip(state, k1)])
    k3 = f([x + step / 2 * d for x, d in zip(state, k2)])
    k4 = f([x + step * d for x, d in zip(state, k3)])
    return [
        x + step / 6 * (a + 2 * b + 2 * c + d)
        for x, a, b, c, d in zip(state, k1, k2, k3, k4)
    ]


def _reference_rk4(init, controls, step, n_steps):
    """The integrator's RK4 by `_reference_step`."""
    rhs = _reference_rhs(controls)
    state = [float(init[v]) for v in cotangent_chart().variables]
    states = [list(state)]
    for _ in range(n_steps):
        state = _reference_step(rhs, state, step)
        states.append(list(state))
    return states


def _seeded_null_data(seed):
    """A Q-null control with all eight components nonzero, and its SVC
    witness as the covector over the origin."""
    rng = random.Random(seed)
    controls = _random_control(rng, null=True)
    while not all(controls.as_seq()):
        controls = _random_control(rng, null=True)
    member, witness = svc_membership(controls)
    assert member and witness is not None
    return control.initial_state(covector=witness.as_seq()), controls


@pytest.mark.parametrize("data", ["standard", "seeded"])
def test_integrator_states_match_the_dense_reference_bit_for_bit(data):
    init, controls = standard_initial_data() if data == "standard" else _seeded_null_data(4)
    traj, _ = integrate_extremal(init, controls, 1e-3, 0.05)
    want = _reference_rk4(init, controls, 1e-3, 50)
    assert len(traj.states) == 51
    assert [[x.hex() for x in st] for st in traj.states] == [[x.hex() for x in st] for st in want]
    if data == "seeded":
        assert traj.states[-1] != traj.states[0]


def _reference_drift(checks, states):
    """The drift loop by the dense Fraction walk: the largest |check| over all
    states."""
    return max((abs(float(dense_evaluate(p, st))) for st in states for p in checks), default=0.0)


def _assert_run_matches_the_reference(run, rhs, checks, state, h, n):
    """`run` from `state` matches `_reference_step` iterated n times and the
    reference drift loop bit for bit."""
    states, max_c, bad = run(list(state), n)
    want = [list(state)]
    for _ in range(n):
        want.append(_reference_step(rhs, want[-1], h))
    assert [[x.hex() for x in st] for st in states] == [[x.hex() for x in st] for st in want]
    assert max_c.hex() == _reference_drift(checks, want).hex()
    assert bad == -1
    return states


def test_integrator_evaluates_no_zero_right_hand_side():
    _, controls = _seeded_null_data(4)
    rhs = _reference_rhs(controls)
    state = [float(k + 1) / 7 for k in range(30)]
    states, *_ = control.rk4_run(rhs, 1e-3, [])(state, 3)
    variables = cotangent_chart().variables
    live = [k for k, p in enumerate(rhs) if not p.is_zero()]
    assert [variables[k] for k in range(30) if k not in live] == list(COV7_VARIABLES)
    assert len(live) == 23 and len(states) == 4
    # a dead slot hands back its own float object at every step: nothing is computed for it
    assert all((st[k] is state[k]) == (k not in live) for st in states[1:] for k in range(30))


def test_rk4_run_rounds_as_the_list_step_on_seeded_states():
    # off the standard straight-line run, a reordered sum shows in the last bit;
    # one run serves every state, since its frozen slots are evaluated from s
    _, controls = _seeded_null_data(4)
    rhs = _reference_rhs(controls)
    chart = cotangent_chart()
    checks = [lift_table(chart)[n] for n in GENERATOR_ORDER]
    run = control.rk4_run(rhs, 0.37, checks)
    rng = random.Random(5)
    for _ in range(100):
        state = [rng.uniform(-10, 10) for _ in rhs]
        states = _assert_run_matches_the_reference(run, rhs, checks, state, 0.37, 3)
        assert states[-1] != states[-2]


# unit, negative and non-dyadic coefficients, and one whose float is -0.0
STEP_COEFFS = [1, -1, 2, Fraction(-3, 7), Fraction(5, 3), Fraction(-1, 10**400)]


def _random_system(rng, n=12):
    """Right-hand sides on n slots, each dead, constant, frozen (reading only
    dead slots) or moving (reading a live slot, some only live slots), and
    the kind of each slot. In about half the systems no moving slot reads a
    moving one, so that RK4's stage c has the inputs of stage b."""
    chart = Chart("rk4", tuple(f"u{k}" for k in range(n)))
    kinds = ["dead", "constant", "frozen", "moving", "moving"]
    kinds += [rng.choice(["dead", "constant", "frozen", "moving"]) for _ in range(n - len(kinds))]
    rng.shuffle(kinds)
    dead = [k for k in range(n) if kinds[k] == "dead"]
    live = [k for k in range(n) if kinds[k] != "dead"]
    # the live slots that a moving slot may read
    feeds = live if rng.random() < 0.5 else [k for k in live if kinds[k] != "moving"]

    def monomial(slots):
        e = [0] * n
        for _ in range(rng.randint(1, 3)):
            e[rng.choice(slots)] += 1
        return tuple(e)

    rhs = []
    for kind in kinds:
        terms = {}
        if kind == "constant" or (kind == "frozen" and rng.random() < 0.3):
            terms[(0,) * n] = rng.choice(STEP_COEFFS)
        if kind == "frozen":
            terms.update({monomial(dead): rng.choice(STEP_COEFFS) for _ in range(rng.randint(1, 4))})
        if kind == "moving":
            terms[monomial(feeds)] = rng.choice(STEP_COEFFS)
            for _ in range(rng.randint(0, 3)):
                terms[monomial(rng.choice([dead, feeds, dead + feeds]))] = rng.choice(STEP_COEFFS)
        rhs.append(MultiPoly(chart, terms))
    return rhs, kinds


@pytest.mark.parametrize("seed", range(20))
def test_rk4_run_rounds_as_the_list_step_on_random_systems(seed):
    rng = random.Random(seed)
    rhs, kinds = _random_system(rng)
    checks = _random_system(rng)[0][:4]  # from a second system
    for _ in range(4):
        h = rng.choice([rng.uniform(1e-4, 0.5), 0.37, 1e-3])
        run = control.rk4_run(rhs, h, checks)
        for _ in range(10):
            # a dead slot keeps its x, so only a live slot may start at -0.0
            state = [
                rng.choice([rng.uniform(-2, 2), 0.0] + ([-0.0] if kind != "dead" else []))
                for kind in kinds
            ]
            _assert_run_matches_the_reference(run, rhs, checks, state, h, 3)


def _some_fed_slot_moves(rhs, kinds):
    """Whether a moving slot reads a moving slot, so that stage c's inputs
    differ from stage b's."""
    return any(kinds[k] == "moving" for j, p in enumerate(rhs) if kinds[j] == "moving" for k in p.support())


def test_random_systems_draw_both_stage_c_cases():
    # the bit-for-bit tests against _reference_step cover stage c computed and reused
    draws = [_random_system(random.Random(seed)) for seed in range(20)]
    assert {_some_fed_slot_moves(rhs, kinds) for rhs, kinds in draws} == {True, False}


def test_rk4_run_emits_no_frozen_slot_and_a_moving_slot_three_or_four_times(monkeypatch):
    emitted, evaluated = [], []
    emit, evaluate = MultiPoly.float_lines, MultiPoly.evaluate_seq

    def counting(self, names, target):
        emitted.append(self)
        return emit(self, names, target)

    def evaluating(self, values):
        evaluated.append(self)
        return evaluate(self, values)

    def counts(rhs, checks=()):
        """How many times rk4_run emits each right-hand side into the run and a
        3-step run evaluates it by evaluate_seq, and how many times each check
        is emitted."""
        emitted.clear()
        evaluated.clear()
        run = control.rk4_run(rhs, 1e-3, checks)
        lines = Counter(map(id, emitted))
        run([0.5] * len(rhs), 3)
        calls = Counter(map(id, evaluated))
        return [(lines[id(p)], calls[id(p)]) for p in rhs], [lines[id(p)] for p in checks]

    monkeypatch.setattr(MultiPoly, "float_lines", counting)
    monkeypatch.setattr(MultiPoly, "evaluate_seq", evaluating)
    init, controls = _seeded_null_data(4)
    variables = cotangent_chart().variables
    got, _ = counts(_reference_rhs(controls))
    got = dict(zip(variables, got))
    # no moving slot reads a moving one, so stage c is stage b
    assert {v for v, n in got.items() if n == (3, 0)} == {"z", "x12", "x13", "x14", "x23", "x24", "x34"}
    assert sorted(got.values()) == [(0, 0)] * 7 + [(0, 1)] * 16 + [(3, 0)] * 7
    rng = random.Random(7)
    kind_counts = {"dead": (0, 0), "constant": (0, 1), "frozen": (0, 1)}
    stage_c = set()
    for _ in range(10):
        rhs, kinds = _random_system(rng)
        checks = _random_system(rng)[0][:3]
        moves = _some_fed_slot_moves(rhs, kinds)
        stage_c.add(moves)
        kind_counts["moving"] = (4 if moves else 3, 0)
        assert counts(rhs, checks) == ([kind_counts[kind] for kind in kinds], [1, 1, 1])
    assert stage_c == {True, False}
    # a whole run, whatever its length, emits each moving slot three times and
    # each constraint once, and evaluates each of the 16 frozen slots once
    lifts = lift_table(cotangent_chart())
    for t_max in (1e-3, 0.05):
        emitted.clear()
        evaluated.clear()
        integrate_extremal(init, controls, 1e-3, t_max)
        lines = Counter(map(id, emitted))
        assert sorted(lines.values()) == [1] * 8 + [3] * 7
        assert all(lines[id(lifts[name])] == 1 for name in GENERATOR_ORDER)
        assert sorted(Counter(map(id, evaluated)).values()) == [1] * 16


def test_finite_values_whose_sum_overflows_are_finite():
    # the run tests a sum of values first; an overflowing sum of finite values
    # must fall back to each value, and a value beyond the floats must not
    chart = Chart("big", ("u0", "u1"))
    rate = MultiPoly(chart, {(0, 0): 10**307})
    u0, u1 = MultiPoly.variable(chart, "u0"), MultiPoly.variable(chart, "u1")
    states, max_c, bad = control.rk4_run([rate, rate], 1.0, [u0, u1])([1e308, 1e308], 3)
    assert len(states) == 4 and bad == -1
    assert all(math.isfinite(x) for st in states for x in st) and math.isinf(sum(states[-1]))
    assert max_c == states[-1][0] and max_c > 1.2e308
    _, _, bad = control.rk4_run([rate, rate], 1.0, [u0 * u1])([1e308, 1e308], 3)
    assert bad == 0
    states, _, _ = control.rk4_run([rate, rate], 1.0, [])([1e308, 1.7e308], 3)
    assert len(states) == 1


def _overflowing_drift_data():
    """Seeded null data with the covector scaled so far that, at step 1, the
    constraint sums leave the floats at t = 3 and the state itself at t = 8."""
    init, controls = _seeded_null_data(0)
    for name in COV7_VARIABLES:
        init[name] *= 2 * Fraction(10) ** 306
    return init, controls


def test_the_drift_names_the_first_time_it_leaves_the_floats():
    init, controls = _overflowing_drift_data()
    integrate_extremal(init, controls, 1.0, 2.0)  # finite through t = 2
    with pytest.raises(ValueError, match="drift is not finite at t = 3$"):
        integrate_extremal(init, controls, 1.0, 4.0)


def test_a_state_beyond_the_floats_wins_over_an_earlier_drift_beyond_them():
    init, controls = _overflowing_drift_data()
    with pytest.raises(ValueError, match="RK4 state is not finite at t = 8$"):
        integrate_extremal(init, controls, 1.0, 10.0)


def _flow_check_values(seed):
    """The flow check's eight constraints, their eight flow rates, and seeded
    states with zeros of both signs."""
    chart = cotangent_chart()
    lifts = lift_table(chart)
    _, controls = _seeded_null_data(4)
    flow = control.flow_rhs(chart, dict(zip(GENERATOR_ORDER, controls.as_seq())))
    rng = random.Random(seed)
    states = [[rng.choice([rng.uniform(-10, 10), 0.0, -0.0]) for _ in range(30)] for _ in range(100)]
    return [lifts[name] for name in GENERATOR_ORDER], [flow[name] for name in GENERATOR_ORDER], states


def _walked_deviation(constraints, rates, states, h):
    """The oracle for flow_deviation: values by evaluate_seq, each state
    between its two neighbours, folded by max()."""
    values = [[p.evaluate_seq(state) for p in constraints] for state in states]
    max_dev = 0.0
    for k in range(1, len(states) - 1):
        for b, a, rate in zip(values[k - 1], values[k + 1], rates):
            max_dev = max(max_dev, abs((a - b) / (2 * h) - rate.evaluate_seq(states[k])))
    return max_dev


def _assert_folds_as_the_walk(constraints, rates, states):
    for h in (1e-3, 0.3):
        got = control.flow_deviation(constraints, rates, len(states[0]), h)(states)
        assert float(got).hex() == float(_walked_deviation(constraints, rates, states, h)).hex()


def test_the_shared_constraint_values_round_as_evaluate_seq():
    # with zero rates the fold reads the constraints' central differences alone
    constraints, rates, states = _flow_check_values(11)
    _assert_folds_as_the_walk(constraints, [MultiPoly.zero(cotangent_chart())] * len(rates), states)
    _assert_folds_as_the_walk(constraints, rates, states)


def test_the_constraint_values_are_compiled_once_for_every_run_and_flow_check(monkeypatch):
    # each run and each flow check emits the eight constraints into its own
    # code once, and each flow check its eight flow rates once
    emitted, rates = [], []
    emit, flow_rhs = MultiPoly.float_lines, control.flow_rhs

    def counting(self, names, target):
        emitted.append(self)
        return emit(self, names, target)

    def recording(chart, w):
        rates.append(flow_rhs(chart, w))
        return rates[-1]

    monkeypatch.setattr(MultiPoly, "float_lines", counting)
    monkeypatch.setattr(control, "flow_rhs", recording)
    init, controls = standard_initial_data()
    lifts = lift_table(cotangent_chart())

    def emitted_counts(*tables):
        calls = Counter(map(id, emitted))
        emitted.clear()
        return [[calls[id(table[name])] for name in GENERATOR_ORDER] for table in tables]

    for _ in range(2):
        traj, _ = integrate_extremal(init, controls, 1e-3, 0.01)
        assert emitted_counts(lifts) == [[1] * 8]
        control.verify_flow_lemma_numeric(traj)
        assert emitted_counts(lifts, rates.pop()) == [[1] * 8] * 2


def test_the_flow_rates_round_as_evaluate_seq():
    # with zero constraints the fold reads the largest |rate| alone; a NaN
    # deviation is passed over, as max() from 0.0 passes it over
    constraints, rates, states = _flow_check_values(12)
    _assert_folds_as_the_walk([MultiPoly.zero(cotangent_chart())] * len(constraints), rates, states)
    _assert_folds_as_the_walk(constraints, rates, states)
    chart = Chart("xy", ("x", "y"))
    x, y = MultiPoly.variable(chart, "x"), MultiPoly.variable(chart, "y")
    nan, inf = math.nan, math.inf
    _assert_folds_as_the_walk([x], [y], [[0.0, 0.0], [1.0, 0.5], [3.0, -0.0], [4.0, nan], [5.0, 1.0]])
    _assert_folds_as_the_walk([x], [y], [[inf, 0.0], [1.0, 0.5], [inf, 2.0], [2.0, 0.0]])


def test_a_flow_check_walks_the_states_in_one_call():
    # the compiled fold walks every state, so the Python calls of a flow
    # check do not grow with the number of states
    init, controls = standard_initial_data()
    runs = [integrate_extremal(init, controls, 1e-3, t_max)[0] for t_max in (0.01, 0.01, 0.05)]
    counts = []
    for traj in runs:
        calls = Counter()
        sys.setprofile(lambda frame, event, arg: calls.update([event]))
        try:
            control.verify_flow_lemma_numeric(traj)
        finally:
            sys.setprofile(None)
        counts.append(calls["call"])
    assert counts[1] == counts[2] > 0


def test_the_flow_rates_read_only_dead_slots_and_vanish():
    # in ker A(lambda), each rate sum_j w_j H_[xi_j, xi] is a combination of
    # lifts of central fields, which read only s and r12..r34: slots whose
    # right-hand sides are zero, so the rates are 0 and flow:numeric sees
    # only the constraints' drift
    chart = cotangent_chart()
    dead = {chart.index(v) for v in COV7_VARIABLES}
    for seed in range(1, 9):
        init, controls = _seeded_null_data(seed)
        flow = control.flow_rhs(chart, dict(zip(GENERATOR_ORDER, controls.as_seq())))
        for name in GENERATOR_ORDER:
            assert set(flow[name].support()) <= dead
            assert flow[name].evaluate(init) == 0


def test_the_s_r_right_hand_sides_vanish_for_seeded_controls():
    # no frame field depends on z or on x12..x34, so s and r12..r34 are conserved
    lifts = lift_table(cotangent_chart())
    rng = random.Random(13)
    for k in range(20):
        w = dict(zip(GENERATOR_ORDER, _random_control(rng, null=k % 2 == 0).as_seq()))
        equations = control.hamilton_equations(control.hamiltonian(lifts, w))
        assert all(equations[v].is_zero() for v in COV7_VARIABLES)


def test_a_moving_s_r_slot_is_refused(monkeypatch, capsys):
    real = control.hamilton_equations

    def moving_s(h):
        equations = real(h)
        equations["s"] = equations["s"] + MultiPoly.variable(equations["s"].chart, "z")
        return equations

    monkeypatch.setattr(control, "hamilton_equations", moving_s)
    init, controls = standard_initial_data()
    with pytest.raises(ValueError, match=r"^\(s, r\) is not conserved: s' = z$"):
        integrate_extremal(init, controls, 1e-3, 0.01)
    assert cli.run(["integrate"]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith("error: (s, r) is not conserved: s' = ") and "Traceback" not in err


@pytest.mark.parametrize("seed", range(1, 9))
def test_the_last_state_holds_every_states_s_r(seed):
    init, controls = _seeded_null_data(seed)
    traj, drift = integrate_extremal(init, controls, 1e-3, 0.05)
    sr = [traj.chart.index(v) for v in COV7_VARIABLES]
    first = traj.states[0]
    assert drift.max_sr_drift == max(abs(st[k] - first[k]) for st in traj.states for k in sr)
    assert all(st[k] is first[k] for st in traj.states for k in sr)


def test_control_lifts_brackets_from_the_model_table(monkeypatch):
    build_model().table  # filled on first use, here or by an earlier suite
    # an earlier suite may have filled the caches; rebuild both charts under the patch
    lift_table.cache_clear()
    bracket_lifts.cache_clear()

    def forbidden(*args):
        raise AssertionError("control bracketed two frame fields")

    monkeypatch.setattr(cartan, "lie_bracket", forbidden)
    monkeypatch.setattr(fields, "lie_bracket", forbidden)
    assert not failures(control.verify_poisson_lift_table())
    assert not failures(control.verify_flow_lemma_symbolic())


def test_constraints_vanish_on_standard_data():
    init, _ = standard_initial_data()
    lifts = lift_table(cotangent_chart())
    for name in GENERATOR_ORDER:
        assert lifts[name].evaluate(init) == 0


def test_the_constraints_fix_their_own_p_q_slots():
    # the premise of initial_state: the (p, q) Jacobian of the eight lifts is the identity
    chart = cotangent_chart()
    lifts = lift_table(chart)
    zero = MultiPoly.zero(chart)
    slots = FIBER_VARIABLES[1:9]
    jacobian = [[lifts[name].diff(u) for u in slots] for name in GENERATOR_ORDER]
    assert jacobian == [[zero + (i == j) for j in range(8)] for i in range(8)]


@pytest.mark.parametrize("seed", range(8))
def test_initial_state_is_the_exact_solve_of_the_constraints(seed):
    rng = random.Random(seed)

    def rational():
        d = rng.randint(1, 5)
        return Fraction(rng.randint(-2 * d, 2 * d), d)

    point = [rational() for _ in BASE_VARIABLES]
    covector = [rational() for _ in COV7_VARIABLES]
    init = control.initial_state(point, covector)
    assert [init[v] for v in BASE_VARIABLES + COV7_VARIABLES] == point + covector
    # the oracle: the 8x8 exact solve for (p, q), affine in them
    lifts = lift_table(cotangent_chart())
    slots = FIBER_VARIABLES[1:9]
    start = {**init, **dict.fromkeys(slots, Fraction(0))}
    rows = [[lifts[name].diff(u).evaluate(start) for u in slots] for name in GENERATOR_ORDER]
    rhs = [-lifts[name].evaluate(start) for name in GENERATOR_ORDER]
    assert solve_exact(rows, rhs) == [init[u] for u in slots]
    assert any(init[u] for u in slots)
    assert all(lifts[name].evaluate(init) == 0 for name in GENERATOR_ORDER)


def test_the_default_initial_state_is_the_standard_one():
    want = dict.fromkeys(control.COTANGENT_VARIABLES, Fraction(0))
    want["r12"] = Fraction(1)
    assert control.initial_state() == want
    assert standard_initial_data()[0] == want


@pytest.mark.parametrize("point, covector", [([0] * 14, None), ([0] * 16, None), (None, [1] * 6), (None, [1] * 8)])
def test_initial_state_rejects_wrong_lengths(point, covector):
    with pytest.raises(ValueError, match="point of 15 and a covector of 7"):
        control.initial_state(point, covector)


def test_the_suite_lifts_each_frame_field_once_per_chart(monkeypatch):
    lift_table.cache_clear()
    bracket_lifts.cache_clear()
    calls = []
    real = control.hamiltonian_lift

    def counting(field, chart):
        calls.append((field.name, chart.id))
        return real(field, chart)

    monkeypatch.setattr(control, "hamiltonian_lift", counting)
    assert not failures(control.verify_suite())
    # the 15 frame fields on cotangent30 and on phase38, each lifted once
    assert len(calls) == 30 and len(set(calls)) == 30


@pytest.mark.parametrize("table", [lift_table, bracket_lifts])
def test_the_lift_tables_are_shared_read_only(table):
    chart = cotangent_chart()
    assert table(chart) is table(cotangent_chart())
    key = next(iter(table(chart)))
    with pytest.raises(TypeError):
        table(chart)[key] = MultiPoly.zero(chart)


def test_the_flow_check_can_fail_on_a_perturbed_state():
    init, controls = standard_initial_data()
    traj, _ = integrate_extremal(init, controls, 1e-3, 1.0)
    (item,) = control.verify_flow_lemma_numeric(traj)
    assert item.status == "pass"
    traj.states[500] = list(traj.states[500])
    traj.states[500][traj.chart.index("x1")] += 1e-3
    (item,) = control.verify_flow_lemma_numeric(traj)
    assert item.status == "fail"
    # H_X2 carries x1 r12 with r12 = 1: a central difference of 1e-3 / 2e-3
    assert float(item.computed) == pytest.approx(0.5, rel=1e-3)


def test_suite_statuses(control_run):
    items, _ = control_run
    assert not failures(items)
    found = {i.id for i in discrepancies(items)}
    assert found == {
        "lift:H_Y2",
        "sharp:z-dot",
        "sharp:q4-label",
        "sharp:ellipsis",
        "matrix:det-tUU-exponent",
        "flow:published-order",
    }
    ids = by_id(items)
    assert ids["matrix:U-rank-dichotomy"].status == "pass"
    assert ids["svc:samples"].status == "pass"
    assert ids["integrate:drift"].status == "pass"


@pytest.mark.parametrize(
    "premise",
    # an R-null witness rests on B A = R I8, a witness in ker A on U(w)·lam =
    # A(lam)·w
    ["matrix:BA-R-identity", "matrix:U-A-bilinear"],
    ids=["not-R-null", "not-in-ker-A"],
)
def test_svc_samples_check_can_fail(premise):
    items = control.verify_matrix_identities()
    by_id(items)[premise].status = "fail"
    (item,) = control.verify_svc(items)
    assert (item.status, item.computed) == ("fail", f"failing premise: {premise}")


def test_svc_samples_reads_a_defect_of_A(monkeypatch):
    # the upper-right -sI block of A with a flipped sign: U(w)·lam = A(lam)·w fails
    real = control.build_A

    def build_A(lam):
        return [[-x if i < 4 <= j else x for j, x in enumerate(r)] for i, r in enumerate(real(lam))]

    monkeypatch.setattr(control, "build_A", build_A)
    (item,) = control.verify_svc(control.verify_matrix_identities())
    assert (item.status, item.computed) == ("fail", "failing premise: matrix:U-A-bilinear")


def _U_with_entry_1_1_plus_v2(real):
    def build_U(w):
        m = real(w)
        m[1][1] = m[1][1] + w[5]
        return m

    return build_U


@pytest.mark.parametrize(
    "defect, computed",
    [
        # -2 u1 + v2 in row 1, column 1: the minor of u1 picks up a v2 term
        (_U_with_entry_1_1_plus_v2, "minor on rows (1, 2, 3, 4), cols (0, 1, 2, 3) = "),
        # U of the zero vector at every w: every minor is 0
        (lambda real: lambda w: [[w[0] * 0] * 7 for _ in range(8)],
         "minor on rows (1, 2, 3, 4), cols (0, 1, 2, 3) = 0"),
    ],
    ids=["one-entry-changed", "zero-vector"],
)
def test_U_rank_dichotomy_check_can_fail(monkeypatch, defect, computed):
    monkeypatch.setattr(control, "build_U", defect(control.build_U))
    item = by_id(control.verify_matrix_identities())["matrix:U-rank-dichotomy"]
    assert item.status == "fail"
    assert item.computed.startswith(computed)


def test_s0_rank_A11_check_can_fail(monkeypatch):
    # A22 with a flipped sign: adj(A11) = -4p A22 fails in its first
    # off-diagonal entry
    real = control.build_A22
    monkeypatch.setattr(control, "build_A22", lambda r: [[-x for x in row] for row in real(r)])
    item = by_id(control.verify_matrix_identities())["matrix:s0-rank-A11"]
    assert item.status == "fail"
    assert item.computed.startswith("adj(A11)[0][1] = ")
