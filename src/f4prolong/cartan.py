"""The rank-8 model distribution on a 15-variable chart: frame, coframe, checks."""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Tuple

from .fields import Frame, OneForm, StructureTable, VectorField, lie_bracket, pair
from .linalg import Echelon, det_cofactor
from .poly import Chart, MultiPoly
from .report import Item, check

PAIRS = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

BASE_VARIABLES = (
    "z",
    "x1", "x2", "x3", "x4",
    "y1", "y2", "y3", "y4",
    "x12", "x13", "x14", "x23", "x24", "x34",
)


def base_chart() -> Chart:
    return Chart("base15", BASE_VARIABLES)


def _parity(perm: Tuple[int, ...]) -> int:
    inv = sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )
    return -1 if inv % 2 else 1


def even_complement(i: int, j: int) -> Tuple[int, int]:
    """The ordered pair (h, k) with (i, j, h, k) an even permutation of (1,2,3,4)."""
    rest = [t for t in (1, 2, 3, 4) if t not in (i, j)]
    h, k = rest
    if _parity((i, j, h, k)) == 1:
        return h, k
    return k, h


Coordinates = Dict[str, MultiPoly]  # {frame field: coefficient}, frame order, no zeros


class FrameTable(NamedTuple):
    fields: Dict[str, Coordinates]  # the frame coordinates of each named field
    brackets: Dict[Tuple[str, str], Coordinates]  # of [a, b], a named before b

    def bracket(self, a: str, b: str) -> Coordinates:
        """The coordinates of [a, b], with [a, a] = 0 and [b, a] = -[a, b]."""
        if a == b:
            return {}
        if (a, b) in self.brackets:
            return self.brackets[(a, b)]
        return {k: -c for k, c in self.brackets[(b, a)].items()}


class CartanModel(Frame):
    """The frame in frame order, triangular in LEAD_ORDER, with its `coframe`
    listed dual to it; `table` is cached like `triangular`."""

    coframe: Mapping[str, OneForm]

    @cached_property
    def table(self) -> FrameTable:
        """The frame table of the whole frame, computed on first use."""
        return frame_table(self, self.fields)


@cache
def build_model() -> CartanModel:
    """The model frame and coframe on the 15-variable chart, built once per
    process and shared read-only.

    The (h, k) companion pair of each omega_ij is computed from permutation
    parity, then the frame is assembled so that duality with the coframe is an
    exact polynomial identity (verified separately).
    """
    chart = base_chart()
    var = lambda name: MultiPoly.variable(chart, name)

    # both in frame order: Z, X_ij, X_i, Y_i and their duals
    frame: Dict[str, VectorField] = {}
    coframe: Dict[str, OneForm] = {}

    frame["Z"] = VectorField.coordinate(chart, "z", "Z")
    for i, j in PAIRS:
        frame[f"X{i}{j}"] = VectorField.coordinate(chart, f"x{i}{j}", f"X{i}{j}")

    # omega = dz - sum y_i dx_i
    coframe["omega"] = OneForm.from_dict(
        chart,
        {"z": MultiPoly.constant(chart, 1), **{f"x{i}": -var(f"y{i}") for i in range(1, 5)}},
        "omega",
    )
    # omega_ij = dx_ij - (x_i dx_j - x_j dx_i + y_h dy_k - y_k dy_h)
    for i, j in PAIRS:
        h, k = even_complement(i, j)
        coframe[f"omega{i}{j}"] = OneForm.from_dict(
            chart,
            {
                f"x{i}{j}": MultiPoly.constant(chart, 1),
                f"x{j}": -var(f"x{i}"),
                f"x{i}": var(f"x{j}"),
                f"y{k}": -var(f"y{h}"),
                f"y{h}": var(f"y{k}"),
            },
            f"omega{i}{j}",
        )
    for v in [f"{c}{i}" for c in "xy" for i in range(1, 5)]:
        coframe[f"d{v}"] = OneForm.differential(chart, v)

    # X_i: unit dx_i direction, y_i dz correction, and the x_ij corrections
    # dual to the omega_ij above.
    xcomp: Dict[int, Dict[str, MultiPoly]] = {
        i: {f"x{i}": MultiPoly.constant(chart, 1), "z": var(f"y{i}")} for i in range(1, 5)
    }
    ycomp: Dict[int, Dict[str, MultiPoly]] = {
        i: {f"y{i}": MultiPoly.constant(chart, 1)} for i in range(1, 5)
    }
    for i, j in PAIRS:
        h, k = even_complement(i, j)
        xcomp[j][f"x{i}{j}"] = var(f"x{i}")
        xcomp[i][f"x{i}{j}"] = -var(f"x{j}")
        ycomp[k][f"x{i}{j}"] = var(f"y{h}")
        ycomp[h][f"x{i}{j}"] = -var(f"y{k}")
    for name, comps in (("X", xcomp), ("Y", ycomp)):
        for i in range(1, 5):
            frame[f"{name}{i}"] = VectorField.from_dict(chart, comps[i], f"{name}{i}")
    return CartanModel(chart, MappingProxyType(frame), LEAD_ORDER, coframe=MappingProxyType(coframe))


GENERATOR_ORDER = ("X1", "X2", "X3", "X4", "Y1", "Y2", "Y3", "Y4")

# the frame fields outside D: their coordinates of v vanish iff v = 0 mod D
CENTER = ("Z",) + tuple(f"X{i}{j}" for i, j in PAIRS)


# the frame fields in an order in which the frame is triangular with unit pivots
LEAD_ORDER = ("X1", "Y1", "X2", "Y2", "X3", "Y3", "X4", "Z", "X14", "X24", "X34", "Y4", "X12", "X13", "X23")


def frame_table(m: CartanModel, fields: Mapping[str, VectorField]) -> FrameTable:
    """The frame coordinates of each named field and of [a, b] for each a
    named before b, in the model's triangular frame: the one place where
    frame fields are bracketed."""
    names = list(fields)
    coordinates = m.triangular.coordinates
    return FrameTable(
        {a: coordinates(fields[a]) for a in names},
        {
            (a, b): coordinates(lie_bracket(fields[a], fields[b]))
            for i, a in enumerate(names)
            for b in names[i + 1 :]
        },
    )


def expected_bracket(m: CartanModel, a: str, b: str) -> Coordinates:
    """The bracket table's value for [a, b] over the full 15-field frame, as
    frame coordinates."""
    if a in CENTER or b in CENTER:
        return {}
    term = lambda name, c: {name: MultiPoly.constant(m.chart, c)}
    ta, ia = a[0], int(a[1])
    tb, ib = b[0], int(b[1])
    if ta == tb:
        if ia == ib:
            return {}
        i, j = min(ia, ib), max(ia, ib)
        sign = 1 if ia < ib else -1
        # [X_i, X_j] = 2 X_ij and [Y_i, Y_j] = 2 X_hk, (h, k) the even complement
        if ta == "Y":
            i, j = even_complement(i, j)
            if i > j:
                i, j = j, i
                sign = -sign
        return term(f"X{i}{j}", 2 * sign)
    # mixed: [Y_i, X_i] = Z, zero otherwise
    if ia != ib:
        return {}
    return term("Z", 1 if ta == "Y" else -1)


def verify_bracket_table(m: CartanModel) -> List[Item]:
    """Check every pairwise bracket of the 15 frame fields against the table."""
    items = []
    for (a, b), got in m.table.brackets.items():
        want = expected_bracket(m, a, b)
        ok = got == want
        items.append(
            check(
                f"bracket:[{a},{b}]",
                f"[{a}, {b}] matches the model bracket table",
                ok,
                computed=repr(got) if not ok else "as expected",
                expected=repr(want) if not ok else "",
            )
        )
    return items


def verify_duality(m: CartanModel) -> Tuple[int, int]:
    """Count (checked, mismatched) of the 225 coframe/frame pairings, each
    computed here: the frame table's coordinates do not read the coframe."""
    dual = list(zip(m.fields, m.coframe.values()))
    grid = [(pair(form, field), int(a == b)) for b, field in m.fields.items() for a, form in dual]
    return len(grid), sum(p != want for p, want in grid)


def constant_coordinates(m: CartanModel, label: str, row: Coordinates) -> Dict[str, Fraction]:
    """The values of the frame coordinates of the field named label. Raises
    ValueError naming the first coordinate that is not constant."""
    out = {}
    for name, value in row.items():
        if not value.is_constant():
            form = dict(zip(m.fields, m.coframe))[name]
            raise ValueError(f"<{form}, {label}> = {value} is not constant")
        out[name] = value.constant_value()
    return out


def contact_foliation_check(m: CartanModel, i: int, j: int) -> List[Item]:
    """Integrability of D_ij plus nondegeneracy of its contact form, read
    from the model's frame table."""
    if not (1 <= i < j <= 4):
        raise ValueError("need 1 <= i < j <= 4")
    h, k = even_complement(i, j)
    names = [f"X{i}", f"X{j}", f"Y{h}", f"Y{k}", f"X{i}{j}"]
    dual = dict(zip(m.fields, m.coframe))
    # Frobenius: D_ij is involutive iff no bracket of its generators has a
    # coordinate along the other ten frame fields
    obstructions = [
        f"<{dual[n]}, [{a}, {b}]> = {x}"
        for p, a in enumerate(names)
        for b in names[p + 1 :]
        for n, x in m.table.bracket(a, b).items()
        if n not in names
    ]
    items = [
        check(
            f"foliation:D{i}{j}:integrable",
            f"D_{i}{j} is completely integrable (Frobenius)",
            not obstructions,
            computed="; ".join(obstructions) or "True",
            expected="True",
        )
    ]
    # <omega_ij, frame> is constant, so d(omega_ij)(a, b) = -<omega_ij, [a, b]>;
    # a nonzero constant determinant on the chart is one on every leaf
    zero = MultiPoly.zero(m.chart)
    complement = names[:4]
    mat = [
        [-m.table.bracket(a, b).get(f"X{i}{j}", zero) for b in complement]
        for a in complement
    ]
    det = det_cofactor(mat)
    nondeg = det.is_constant() and det.constant_value() != 0
    items.append(
        check(
            f"foliation:D{i}{j}:contact",
            f"d(omega{i}{j}) is nondegenerate on the leaf complement of X{i}{j}",
            nondeg,
            computed=str(det),
            expected="nonzero constant",
        )
    )
    return items


F4_SKEW_RELATIONS = [
    # ((i, j), (a, b), sign): [X_i, X_j] == sign * [Y_a, Y_b] mod D
    ((1, 2), (3, 4), 1),
    ((1, 3), (2, 4), -1),
    ((1, 4), (2, 3), 1),
    ((2, 3), (1, 4), 1),
    ((2, 4), (1, 3), -1),
    ((3, 4), (1, 2), 1),
]


def type_f4_frame_check(m: CartanModel, table: FrameTable) -> List[Item]:
    """Check the defining congruences of a type-F4 adapted frame modulo D, the
    distribution of the model m, on the whole chart, from the frame table of
    the adapted frame: v = 0 mod D when v has no Z or X_ij coordinate."""
    br = table.bracket
    congruences = []  # (item id, description, c, d, sign) with v = c - sign * d
    for (i, j), (a, b), sign in F4_SKEW_RELATIONS:
        minus = "" if sign == 1 else "-"
        congruences.append((
            f"f4:[X{i},X{j}]~{minus}[Y{a},Y{b}]",
            f"[X{i},X{j}] = {minus}[Y{a},Y{b}] mod D",
            br(f"X{i}", f"X{j}"), br(f"Y{a}", f"Y{b}"), sign,
        ))
    for i in range(2, 5):
        congruences.append((
            f"f4:[X1,Y1]~[X{i},Y{i}]",
            f"[X1,Y1] = [X{i},Y{i}] mod D",
            br("X1", "Y1"), br(f"X{i}", f"Y{i}"), 1,
        ))
    for i in range(1, 5):
        for j in range(1, 5):
            if i != j:
                congruences.append(
                    (f"f4:[X{i},Y{j}]~0", f"[X{i},Y{j}] = 0 mod D", br(f"X{i}", f"Y{j}"), {}, 1)
                )
    dual = dict(zip(m.fields, m.coframe))
    zero = MultiPoly.zero(m.chart)
    items = []
    for item_id, description, c, d, sign in congruences:
        v = {n: c.get(n, zero) - d.get(n, zero) * sign for n in CENTER}
        witness = "; ".join(f"<{dual[n]}, v> = {x}" for n, x in v.items() if not x.is_zero())
        items.append(check(item_id, description, not witness, computed=witness))
    induced = {name: table.fields[name] for name in GENERATOR_ORDER}
    for i, j in PAIRS:
        induced[f"[X{i},X{j}]/2"] = {n: x * Fraction(1, 2) for n, x in br(f"X{i}", f"X{j}").items()}
    induced["[Y1,X1]"] = br("Y1", "X1")
    span = Echelon()
    try:
        for label, row in induced.items():
            span.add(constant_coordinates(m, label, row))
        rank = span.rank
        computed = str(rank)
    except ValueError as exc:
        rank, computed = None, str(exc)
    items.append(
        check(
            "f4:induced-frame-rank",
            "frame + half-brackets + [Y1,X1] have constant frame coordinates of rank 15",
            rank == 15,
            computed=computed,
            expected="15",
        )
    )
    return items


def verify_suite() -> List[Item]:
    """The full frame-level suite: brackets, duality, foliations, growth, F4
    check. Every check but duality:225 reads the model's frame table, and
    each holds on the whole chart: none draws a point."""
    m = build_model()
    checked, mism = verify_duality(m)
    duality = check(
        "duality:225",
        "all 225 coframe/frame pairings equal the Kronecker delta",
        checked == 225 and mism == 0,
        computed=f"checked={checked}, mismatched={mism}",
        expected="checked=225, mismatched=0",
    )
    # D's flag closed over the constant frame coordinates of [generator,
    # frame field]; at rank 15, D^(2) = D + [D, D] is the whole tangent space
    try:
        table = StructureTable(tuple(m.fields), GENERATOR_ORDER, {
            (g, e): constant_coordinates(m, f"[{g},{e}]", m.table.bracket(g, e))
            for g in GENERATOR_ORDER
            for e in m.fields
        })
        growth = table.flag[0]
        computed = str(growth)
    except ValueError as exc:
        growth, computed = None, str(exc)
    growth = check("growth:D", "growth vector of D is (8, 15) on the whole chart", growth == (8, 15), computed, "(8, 15)")
    try:
        m.triangular
    except ValueError:
        # a frame that is not triangular has no coordinates to read, and
        # growth:D, which holds on the whole chart only on a frame, says why
        return [duality, growth]
    foliations = [item for i, j in PAIRS for item in contact_foliation_check(m, i, j)]
    return verify_bracket_table(m) + [duality] + foliations + [growth] + type_f4_frame_check(m, m.table)
