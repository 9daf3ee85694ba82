"""The 24-dimensional prolonged space W, the rank-4 distribution E, its full
bracket table, growth vector, and graded symbol structure.

`build_zeta_generators()` returns the one shared zeta system, and its `table`
is the bracket table, a `fields.StructureTable` over zeta_1..zeta_24 with
generators zeta_1..zeta_4; growth, symbol and roots read its one flag."""

from __future__ import annotations

from collections import Counter
from functools import cache, cached_property
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from .cartan import BASE_VARIABLES, GENERATOR_ORDER, build_model
from .fields import Frame, OneForm, StructureTable, VectorField, extend_field, lie_bracket, pair
from .nullflag import FREE_COORDS, eta_frames
from .poly import Chart, MultiPoly, from_terms
from .report import DISCREPANCY, Item, against_paper, check

PROLONGED_VARIABLES = BASE_VARIABLES + FREE_COORDS

EXPECTED_GROWTH = (4, 7, 10, 13, 16, 18, 20, 21, 22, 23, 24)

DEFINING_BRACKETS: Dict[int, Tuple[int, int]] = {
    5: (1, 2), 6: (2, 3), 7: (3, 4),
    8: (1, 6), 9: (2, 7), 10: (3, 6),
    11: (1, 9), 12: (1, 10), 13: (3, 9),
    14: (1, 13), 15: (2, 12), 16: (4, 13),
    17: (2, 14), 18: (4, 14),
    19: (2, 18), 20: (3, 17),
    21: (3, 19), 22: (3, 21), 23: (2, 22), 24: (1, 23),
}

# the published relation list: (i, j) -> {k: coefficient} meaning
# [zeta_i, zeta_j] = sum coeff * zeta_k (empty dict = printed zero)
PRINTED_TABLE: Dict[Tuple[int, int], Dict[int, Fraction]] = {
    (1, 2): {5: Fraction(1)}, (1, 3): {}, (1, 4): {},
    (2, 3): {6: Fraction(1)}, (2, 4): {}, (3, 4): {7: Fraction(1)},
    (1, 5): {}, (1, 6): {8: Fraction(1)}, (1, 7): {},
    (2, 5): {}, (2, 6): {}, (2, 7): {9: Fraction(1)},
    (3, 5): {8: Fraction(-1)}, (3, 6): {10: Fraction(1)}, (3, 7): {},
    (4, 5): {}, (4, 6): {9: Fraction(-1)}, (4, 7): {},
    (1, 8): {}, (1, 9): {11: Fraction(1)}, (1, 10): {12: Fraction(1)},
    (2, 8): {}, (2, 9): {}, (2, 10): {},
    (3, 8): {12: Fraction(1)}, (3, 9): {13: Fraction(1)}, (3, 10): {},
    (4, 8): {11: Fraction(-1)}, (4, 9): {}, (4, 10): {13: Fraction(-2)},
    (1, 11): {}, (1, 12): {}, (1, 13): {14: Fraction(1)},
    (2, 11): {}, (2, 12): {15: Fraction(1)}, (2, 13): {},
    (3, 11): {14: Fraction(1)}, (3, 12): {}, (3, 13): {},
    (4, 11): {}, (4, 12): {14: Fraction(-2)}, (4, 13): {16: Fraction(1)},
    (1, 14): {}, (1, 15): {}, (1, 16): {},
    (2, 14): {17: Fraction(1)}, (2, 15): {}, (2, 16): {},
    (3, 14): {}, (3, 15): {}, (3, 16): {},
    (4, 14): {18: Fraction(1)}, (4, 15): {17: Fraction(-2)}, (4, 16): {},
    (1, 17): {}, (1, 18): {}, (2, 17): {}, (2, 18): {19: Fraction(1)},
    (3, 17): {20: Fraction(1)}, (3, 18): {}, (4, 17): {19: Fraction(1)}, (4, 18): {},
    (1, 19): {}, (1, 20): {}, (2, 19): {}, (2, 20): {},
    (3, 19): {21: Fraction(1)}, (3, 20): {}, (4, 19): {}, (4, 20): {21: Fraction(1, 2)},
    (1, 21): {}, (2, 21): {}, (3, 21): {22: Fraction(1)}, (4, 21): {},
    (1, 22): {}, (2, 22): {23: Fraction(1)}, (3, 22): {}, (4, 22): {},
    (1, 23): {24: Fraction(1)}, (2, 23): {}, (3, 23): {}, (4, 23): {},
}


def prolonged_chart() -> Chart:
    return Chart("prolonged24", PROLONGED_VARIABLES)


class ZetaSystem(Frame):
    """zeta1..zeta24, labelled by name (zeta1..zeta4 span E); `table` is
    cached like `triangular`."""

    @cached_property
    def table(self) -> StructureTable:
        """The bracket table of the zeta frame, computed on first use."""
        return compute_bracket_table(self)


def zeta4_coefficients(chart: Chart) -> Dict[str, MultiPoly]:
    """The published zeta_4 coefficients over (X1..X4, Y1..Y4), transcribed."""
    h = Fraction(1, 2)
    q = Fraction(1, 4)
    return {
        "X1": from_terms(chart, {
            ("z11", "z25"): -h, ("z15", "z21"): h, ("z16", "z31"): h,
            ("z11", "z21", "z31"): Fraction(1, 8), ("z15", "z24", "z31"): -h,
        }),
        "X2": from_terms(chart, {
            ("z11",): h, ("z13", "z21"): -h, ("z14", "z31"): -h,
            ("z13", "z24", "z31"): h,
        }),
        "X3": from_terms(chart, {("z21",): h, ("z24", "z31"): -h}),
        "X4": from_terms(chart, {("z31",): h}),
        "Y1": MultiPoly.constant(chart, 1),
        "Y2": from_terms(chart, {("z25",): Fraction(1), ("z21", "z31"): -q}),
        "Y3": from_terms(chart, {
            ("z15",): Fraction(-1), ("z11", "z31"): q,
            ("z13", "z25"): Fraction(1), ("z13", "z21", "z31"): -q,
        }),
        "Y4": from_terms(chart, {
            ("z16",): Fraction(-1), ("z11", "z21"): -q, ("z14", "z25"): Fraction(1),
            ("z11", "z24", "z31"): q, ("z14", "z21", "z31"): -q,
        }),
    }


@cache
def lifted_frame(chart: Chart) -> Mapping[str, VectorField]:
    """The model frame extended to the chart, built once per chart, read-only."""
    return MappingProxyType({n: extend_field(f, chart) for n, f in build_model().fields.items()})


@cache
def build_zeta_generators() -> ZetaSystem:
    """zeta_1..zeta_24, built once per process and shared read-only."""
    chart = prolonged_chart()
    var = lambda n: MultiPoly.variable(chart, n)
    one = MultiPoly.constant(chart, 1)
    z1 = VectorField.from_dict(
        chart,
        {
            "z13": one,
            "z11": var("z21"),
            "z14": var("z24"),
            "z15": var("z25"),
            "z16": var("z24") * var("z25") - var("z21") * var("z21") * Fraction(1, 4),
        },
        "zeta1",
    )
    z2 = VectorField.from_dict(
        chart,
        {
            "z24": one,
            "z21": var("z31"),
            "z25": var("z31") * var("z31") * Fraction(1, 4),
        },
        "zeta2",
    )
    z3 = VectorField.coordinate(chart, "z31", "zeta3")
    frame = lifted_frame(chart)
    z4 = VectorField.zero(chart)
    for name, coeff in zeta4_coefficients(chart).items():
        z4 = z4 + frame[name] * coeff
    z4.name = "zeta4"
    zeta = {"zeta1": z1, "zeta2": z2, "zeta3": z3, "zeta4": z4}
    for k, (i, j) in DEFINING_BRACKETS.items():
        zeta[f"zeta{k}"] = field = lie_bracket(zeta[f"zeta{i}"], zeta[f"zeta{j}"])
        field.name = f"zeta{k}"
    return ZetaSystem(chart, MappingProxyType(zeta))


def pfaff_forms(chart: Chart) -> List[OneForm]:
    var = lambda n: MultiPoly.variable(chart, n)
    one = MultiPoly.constant(chart, 1)
    data = [
        ("z11", {"z13": -var("z21")}),
        ("z21", {"z24": -var("z31")}),
        ("z14", {"z13": -var("z24")}),
        ("z25", {"z24": -(var("z31") * var("z31") * Fraction(1, 4))}),
        ("z15", {"z13": -var("z25")}),
        ("z16", {"z13": -(var("z24") * var("z25") - var("z21") * var("z21") * Fraction(1, 4))}),
    ]
    forms = []
    for lead, rest in data:
        coeffs = {lead: one, **rest}
        forms.append(OneForm.from_dict(chart, coeffs, f"pfaff-d{lead}"))
    return forms


def verify_pfaff_conditions(zs: ZetaSystem) -> List[Item]:
    items = []
    for form in pfaff_forms(zs.chart):
        for k in (1, 2, 3, 4):
            val = pair(form, zs.fields[f"zeta{k}"])
            items.append(
                check(
                    f"pfaff:{form.name}:zeta{k}",
                    f"<{form.name}, zeta{k}> = 0 identically",
                    val.is_zero(),
                    computed="" if val.is_zero() else str(val),
                )
            )
    # zeta_4's frame coefficients must reproduce eta_1 of the flag correspondence
    coords = {n: MultiPoly.variable(zs.chart, n) for n in FREE_COORDS}
    eta1 = eta_frames(coords).eta1
    frame = lifted_frame(zs.chart)
    rebuilt = VectorField.zero(zs.chart)
    for name, coeff in zip(GENERATOR_ORDER, eta1):
        rebuilt = rebuilt + frame[name] * coeff
    items.append(
        check(
            "pfaff:zeta4-eta1",
            "zeta4 equals the eta1-direction lift, symbolically in 9 flag variables",
            rebuilt == zs.fields["zeta4"],
        )
    )
    return items


def compute_bracket_table(zs: ZetaSystem) -> StructureTable:
    """Expand all 92 brackets [zeta_i, zeta_j] (i in 1..4, j in 1..23) in the
    zeta frame: the coordinates of each in `zs.triangular`, as rational
    constants, or None when one is not constant. The 20 defining brackets are
    zeta_5..zeta_24 themselves, so their entries are read off
    DEFINING_BRACKETS, not bracketed again. Raises ValueError with the
    witness of `zs.triangular` when the zetas are not a triangular frame.

    E's flag closes at full rank, so it never reads [zeta_i, zeta_24], which
    the table omits."""
    coordinates = zs.triangular.coordinates
    zeta = dict(enumerate(zs.fields.values(), start=1))
    number = dict(zip(zs.fields, zeta))
    defined = {ij: k for k, ij in DEFINING_BRACKETS.items()}
    entries: Dict[Tuple[int, int], Optional[Dict[int, Fraction]]] = {}
    for i in range(1, 5):
        for j in range(1, 24):
            if (i, j) in defined:
                entries[(i, j)] = {defined[(i, j)]: Fraction(1)}
                continue
            combo = coordinates(lie_bracket(zeta[i], zeta[j]))
            constant = all(c.is_constant() for c in combo.values())
            entries[(i, j)] = {number[n]: c.constant_value() for n, c in combo.items()} if constant else None
    return StructureTable(range(1, 25), (1, 2, 3, 4), entries)


def verify_bracket_table(table: StructureTable) -> List[Item]:
    items: List[Item] = []
    for (i, j), combo in sorted(table.entries.items()):
        item_id = f"table:[z{i},z{j}]"
        if combo is None:
            item = check(
                item_id,
                f"[zeta{i}, zeta{j}] expands with constant rational coefficients",
                False,
                computed="non-constant",
                expected="constant combination of zeta_1..zeta_24",
            )
        elif j < i:
            # below the diagonal: consistency with antisymmetry only
            mirror = table.entries.get((j, i))
            ok = mirror is not None and combo == {k: -c for k, c in mirror.items()}
            item = check(item_id, f"[zeta{i}, zeta{j}] is minus [zeta{j}, zeta{i}]", ok, computed=_fmt_combo(combo))
        elif i == j:
            item = check(item_id, f"[zeta{i}, zeta{i}] = 0", combo == {}, computed=_fmt_combo(combo), expected="0")
        elif (i, j) not in PRINTED_TABLE:
            item = check(
                item_id,
                f"[zeta{i}, zeta{j}] has a published relation to compare with",
                False,
                computed=_fmt_combo(combo),
                note=f"PRINTED_TABLE has no transcription of the published [zeta{i}, zeta{j}]",
            )
        else:
            item = against_paper(
                item_id,
                f"[zeta{i}, zeta{j}] matches the published relation",
                f"[zeta{i}, zeta{j}] vs the published relation",
                _fmt_combo(combo),
                _fmt_combo(PRINTED_TABLE[(i, j)]),
                note="computed bracket is authoritative; the defining brackets come from the same derivation",
                shown=True,
            )
        items.append(item)
    return items


def _fmt_combo(combo: Dict[int, Fraction]) -> str:
    if not combo:
        return "0"
    return " + ".join(
        (f"zeta{k}" if c == 1 else f"{c}*zeta{k}") for k, c in sorted(combo.items())
    )


def static_discrepancy_items(zs: ZetaSystem) -> List[Item]:
    """Published-text defects in the relation list and its proof."""
    z_coeff = zs.fields["zeta18"].components[zs.chart.index("z")]
    # built by hand: defects of the text itself, with no printed value to compare
    return [
        Item(
            "text:duplicated-E8-block",
            "the published relation list prints the E^(8) block twice verbatim",
            DISCREPANCY,
            computed="single block used",
            expected="one block",
            note="treated as a duplication, not as extra relations",
        ),
        Item(
            "text:zeta18-z12-term",
            'the published zeta_18 display contains "1/4 z_12 Z" with z12 not a'
            " chart variable",
            DISCREPANCY,
            computed=f"computed [zeta4, zeta14] has Z-coefficient {z_coeff}",
            expected="published display shows 1/4 z12",
            note="the computed bracket is authoritative",
        ),
        Item(
            "text:missing-equals",
            'a proof line reads "z14\' - z24 z13\' 0" with a missing "="',
            DISCREPANCY,
            computed="interpreted as = 0 (what the derivation requires)",
            expected="published text lacks the sign",
        ),
    ]


def lift_weights(zs: ZetaSystem, weights: Dict[int, int]) -> Dict[str, Optional[int]]:
    """The weight of each lifted base generator v: v lies in E^(w) at every
    point for w the largest weight of a zeta_k along which v has a nonzero
    coordinate (None when one has no weight). Raises ValueError when the zeta
    frame is not triangular or v is not in its span."""
    frame = lifted_frame(zs.chart)
    labelled = {f"zeta{k}": w for k, w in weights.items()}
    out: Dict[str, Optional[int]] = {}
    for name in GENERATOR_ORDER:
        used = [labelled.get(label) for label in zs.triangular.coordinates(frame[name])]
        out[name] = None if None in used else max(used)
    return out


def verify_growth(zs: ZetaSystem, table: StructureTable) -> List[Item]:
    """The growth vector of E, and pi_*^{-1}(D) inside E^(7), read from E's
    flag closed over the bracket table; with the global zeta frame both hold
    on the whole chart."""
    growth = lifts = None
    witness = ""
    try:
        zs.triangular  # the global frame, without which neither holds on the whole chart
        growth, weights = table.flag
        lifts = lift_weights(zs, weights)
    except ValueError as exc:
        witness = str(exc)
    return [
        check(
            "growth:E",
            f"growth vector of E is {EXPECTED_GROWTH} on the whole chart",
            growth == EXPECTED_GROWTH,
            computed=str(growth) if growth else witness,
            expected=str(EXPECTED_GROWTH),
        ),
        check(
            "growth:pi-lift-in-E7",
            "the lifts of the eight base generators lie in E^(7) on the whole chart",
            lifts is not None and all(w is not None and w <= 7 for w in lifts.values()),
            computed=", ".join(f"{n}: {w}" for n, w in lifts.items()) if lifts else witness,
            expected="weight <= 7 each",
        ),
    ]


def symbol_weights(table: StructureTable) -> Dict[int, int]:
    """Weight of each zeta_k: the first stage of E's flag, closed over the
    table, that holds it. Raises ValueError if the flag does not hold it."""
    _, weights = table.flag
    missing = [f"zeta{k}" for k in range(1, 25) if k not in weights]
    if missing:
        raise ValueError(f"{', '.join(missing)} not in the derived flag closed over the table")
    return weights


def graded_dimensions(weights: Mapping[object, int]) -> Tuple[int, ...]:
    """The number of keys (zeta_k, or roots) of each weight, by ascending weight."""
    counts = Counter(weights.values())
    return tuple(counts[w] for w in sorted(counts))


def verify_symbol(zs: ZetaSystem, table: StructureTable) -> List[Item]:
    """Symbol checks on E's flag closed over the table."""
    witness = ""
    try:
        zs.triangular
    except ValueError as exc:
        witness = str(exc)
    frame = check(
        "symbol:point-independence",
        "zeta1..zeta24 is a global frame (triangular with constant pivots), so the"
        " weights and the graded constants hold at every point",
        not witness,
        computed=witness,
    )
    try:
        weights = symbol_weights(table)
    except ValueError as exc:
        return [check("symbol:weights", "weight assignment well-defined", False, computed=str(exc)), frame]
    return [
        check(
            "symbol:graded-dims",
            "graded dimensions are (4,3,3,3,3,2,2,1,1,1,1)",
            graded_dimensions(weights) == (4, 3, 3, 3, 3, 2, 2, 1, 1, 1, 1),
            computed=str(graded_dimensions(weights)),
            expected="(4, 3, 3, 3, 3, 2, 2, 1, 1, 1, 1)",
        ),
        check(
            "symbol:weights-spot",
            "weight(zeta7) = 2 and weight(zeta24) = 11",
            weights[7] == 2 and weights[24] == 11,
            computed=f"w(zeta7)={weights[7]}, w(zeta24)={weights[24]}",
            expected="2 and 11",
        ),
        frame,
    ]


def verify_suite() -> List[Item]:
    """All prolong checks, on the shared zeta system and its bracket table,
    whose flag (`StructureTable.flag`) they close. Every check holds on the
    whole chart: none draws a point."""
    zs = build_zeta_generators()
    try:
        table = zs.table
    except ValueError:
        # zetas that are not a triangular frame have no coordinates, so no
        # table: growth and symbol close an empty one, and say why
        table = StructureTable(range(1, 25), (1, 2, 3, 4), {})
    return (
        verify_pfaff_conditions(zs)
        + verify_bracket_table(table)
        + static_discrepancy_items(zs)
        + verify_growth(zs, table)
        + verify_symbol(zs, table)
    )
