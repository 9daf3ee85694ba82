"""Command-line front end: the verification suites (`SUITES`, each a module with
a zero-argument `verify_suite`), the extremal integrator, flag completion,
model export, and the root listing."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from functools import cache
from fractions import Fraction
from typing import List, Optional, Sequence

from . import cartan, control, f4roots, nullflag, prolong
from .report import Report

# each suite's module, in report order; `verify all` runs every one
SUITES = dict(cartan=cartan, control=control, nullflag=nullflag, prolong=prolong, roots=f4roots)
# the largest `verify --samples` accepted; no suite draws samples
MAX_SAMPLES = 100_000


class CliError(Exception):
    """Bad command-line input; maps to exit code 2."""


def _printable(x, what: str) -> str:
    """str(x); the interpreter refuses an int with more digits than its limit."""
    try:
        return str(x)
    except ValueError as exc:
        raise CliError(f"{what} has more than {sys.get_int_max_str_digits()} digits") from exc


def _fraction(text: str) -> Fraction:
    limit = sys.get_int_max_str_digits()
    try:
        # Fraction builds 10**exponent before any digit check could run
        exponent = text.lower().partition("e")[2]
        if limit and exponent and abs(int(exponent)) > limit:
            raise CliError(f"rational {text!r} has more than {limit} as its decimal exponent")
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"malformed rational {text!r}: {exc}") from exc
    _printable(value, f"rational {text!r}")
    return value


def _fraction_csv(text: str, expect: int, what: str) -> List[Fraction]:
    vals = [_fraction(t) for t in text.split(",")]
    if len(vals) != expect:
        raise CliError(f"{what} needs {expect} comma-separated rationals, got {len(vals)}")
    return vals


@cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    # --seed only where a report or an output records it
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="reported only; no check reads it")
    parser = argparse.ArgumentParser(
        prog="f4prolong",
        description="Exact verification of the rank-8 model distribution, its"
        " singular-velocity cone, null-flag prolongation, and F4 root"
        " correspondence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[seeded], help="run a verification suite")
    p_verify.add_argument("suite", choices=[*SUITES, "all"])
    p_verify.add_argument(
        "--samples", type=int, default=None, help="checked against 1..100000; no suite samples"
    )

    p_int = sub.add_parser(
        "integrate", parents=[seeded], help="RK4 on the constrained Hamiltonian system"
    )
    p_int.add_argument("--step", type=float, default=1e-3)
    p_int.add_argument("--tmax", type=float, default=1.0)
    p_int.add_argument(
        "--covector",
        type=str,
        default=None,
        help="7 rationals s,r12,r13,r14,r23,r24,r34 (default 0,1,0,0,0,0,0)",
    )
    p_int.add_argument(
        "--controls",
        type=str,
        default=None,
        help="8 rationals u1..u4,v1..v4 (default 0,0,1,0,1,0,0,0)",
    )
    p_int.add_argument(
        "--point",
        type=str,
        default=None,
        help="15 rationals z,x1..x4,y1..y4,x12..x34: the initial base point",
    )
    p_int.add_argument("--csv", type=str, default=None, help="write the trajectory as CSV")

    p_flag = sub.add_parser(
        "flag", parents=[seeded], help="complete and check a null flag from free coordinates"
    )
    p_flag.add_argument(
        "--coords",
        type=str,
        required=True,
        help="9 rationals z11,z13,z14,z15,z16,z21,z24,z25,z31",
    )

    sub.add_parser("export-model", parents=[common], help="emit the frame and coframe")

    sub.add_parser("roots", parents=[common], help="positive root utilities")

    return parser


def _emit_report(report: Report, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_json(), indent=2))
        return
    for item in report.items:
        line = f"[{item.status}] {item.id}: {item.description}"
        if item.status != "pass" and (item.computed or item.expected):
            line += f" (computed: {item.computed}; expected: {item.expected})"
        print(line)
    c = report.counts()
    print(
        f"suite {report.suite}: {c['pass']} pass, {c['fail']} fail,"
        f" {c['paper-discrepancy']} paper-discrepancy ({report.elapsed_ms} ms)"
    )


def _run_suite(name: str, seed: int, samples: Optional[int]) -> Report:
    if samples is not None and not 1 <= samples <= MAX_SAMPLES:
        raise CliError(
            f"--samples must be at least 1 and at most {MAX_SAMPLES}, got {samples}"
        )
    t0 = time.monotonic()
    report = Report(name, seed=seed)
    for suite in SUITES if name == "all" else [name]:
        items = SUITES[suite].verify_suite()  # read at each call: a patched one runs
        if name == "all":
            for item in items:
                item.id = f"{suite}:{item.id}"
        report.extend(items)
    report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return report


def _cmd_integrate(args) -> int:
    base = _fraction_csv(args.point, 15, "--point") if args.point is not None else None
    cov = _fraction_csv(args.covector, 7, "--covector") if args.covector is not None else None
    init = control.initial_state(base, cov)
    if args.controls is not None:
        c = _fraction_csv(args.controls, 8, "--controls")
        controls = control.ControlVector(tuple(c[:4]), tuple(c[4:]))
    else:
        _, controls = control.standard_initial_data()
    # opened before the run: a bad path fails at once, a failed run leaves it empty
    try:
        with open(args.csv, "w") if args.csv is not None else nullcontext() as fh:
            try:
                traj, drift = control.integrate_extremal(
                    init, controls, args.step, args.tmax, keep_states=fh is not None  # only --csv reads them
                )
            except ValueError as exc:
                raise CliError(str(exc)) from exc
            if fh is not None:
                fh.write("time," + ",".join(traj.chart.variables) + "\n")
                for t, st in zip(traj.times, traj.states):
                    fh.write(f"{t!r}," + ",".join(repr(x) for x in st) + "\n")
    except OSError as exc:
        raise CliError(f"cannot write --csv {args.csv}: {exc.strerror or exc}") from exc
    if args.json:
        out = drift.to_json()
        out["seed"] = args.seed
        out["steps"] = traj.steps
        print(json.dumps(out, indent=2))
    else:
        print(
            f"integrated {traj.steps} steps to t = {args.tmax}"
            f" (step {args.step})"
        )
        print(f"max constraint drift: {drift.max_constraint_drift!r}")
        print(f"max (s, r) drift:     {drift.max_sr_drift!r}")
        if args.csv is not None:
            print(f"trajectory written to {args.csv}")
    return 0


def _cmd_flag(args) -> int:
    vals = _fraction_csv(args.coords, 9, "--coords")
    frame = nullflag.complete_null_flag(dict(zip(nullflag.FREE_COORDS, vals)))
    try:
        v = nullflag.lambda_to_v(frame)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    vectors = (frame.f1, frame.f2, frame.f3) + v.etas
    entries = [[_printable(x, "a frame entry") for x in f] for f in vectors]
    report = Report("flag", seed=args.seed, items=nullflag.verify_flag_nullity(v))
    if args.json:
        out = report.to_json()
        out.update(lambda_frame=entries[:3], v_frame=entries[3:])
        print(json.dumps(out, indent=2))
    else:
        labels = ("f1", "f2", "f3", "eta1", "eta2", "eta3", "eta4")
        for label, row in zip(labels, entries):
            print(f"{label} = ({', '.join(row)})")
        _emit_report(report, False)
    return 0 if report.ok else 1


def _cmd_export_model(args) -> int:
    model = cartan.build_model()
    out = {
        "schema": "f4prolong/1",
        "chart": list(model.chart.variables),
        "frame": {name: f.to_json() for name, f in model.fields.items()},
        "coframe": {name: form.to_json() for name, form in model.coframe.items()},
    }
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        for f in [*model.fields.values(), *model.coframe.values()]:
            print(repr(f))
    return 0


def _cmd_roots(args) -> int:
    roots = f4roots.generate_positive_roots()
    rows = [
        {"root": list(r), "height": f4roots.height(r), "alpha4": r[3]} for r in roots
    ]
    if args.json:
        print(json.dumps({"schema": "f4prolong/1", "positive_roots": rows}, indent=2))
    else:
        for row in rows:
            print(
                f"{tuple(row['root'])}  height {row['height']:2d}"
                f"  alpha4-coefficient {row['alpha4']}"
            )
    return 0


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            report = _run_suite(args.suite, args.seed, args.samples)
            _emit_report(report, args.json)
            return 0 if report.ok else 1
        if args.command == "integrate":
            return _cmd_integrate(args)
        if args.command == "flag":
            return _cmd_flag(args)
        if args.command == "export-model":
            return _cmd_export_model(args)
        if args.command == "roots":
            return _cmd_roots(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe fails here, inside the try
    except BrokenPipeError:
        # the reader has gone: the flush at exit writes to devnull, not the pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
