"""One benchmark sample: a fresh interpreter that runs f4prolong CLI calls.

Usage: python3 bench/worker.py SPEC

SPEC is a JSON object {"ops": [argv, ...], "rk4": argv or null, "trace": bool}.
SPEC also carries "launched", the parent's time.monotonic() just before it
started this interpreter.  The worker imports f4prolong from the checkout's
src/, takes set-up time as the interval from "launched" until the package can
take its first call, then runs each argv through ``f4prolong.cli.run`` in
order, with stdout captured.  It prints one JSON line with set-up time and,
for every call, its wall time, exit code, traceback if any, and a summary of
its JSON output.  Set-up and each call also carry the speed probe's ticks.  "rk4", if given, is an integrate
call run after the ops.  With "trace" on, the ops run under the layer tracer
and without the speed probe.  An empty "ops" list only measures set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ELAPSED = re.compile(r'"elapsed_ms": \d+')

PERIOD_S = 0.025  # how often the speed probe interrupts a timed call

# fixed inputs of the reference loop: a 12x12-term sparse product over
# Fraction and a float evaluation, the two kinds of work the library does
_A = {(i, 3 - i % 4, i % 2): Fraction(i + 1, 2 + i % 3) for i in range(12)}
_B = {(i % 3, i, 1): Fraction(1, i + 1) for i in range(12)}
_V = (0.5, 1.5, 2.5)


def reference_loop() -> float:
    """A fixed piece of pure-Python work, independent of f4prolong."""
    prod: dict = {}
    for e1, c1 in _A.items():
        for e2, c2 in _B.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            prod[e] = prod.get(e, 0) + c1 * c2
    total = 0.0
    for e, c in prod.items():
        term = float(c)
        for v, k in zip(_V, e):
            if k:
                term = term * v**k
        total += term
    return total


class SpeedProbe:
    """Samples how fast this CPU runs Python while a call is timed.

    On a shared host the same code can take twice as long from one second to
    the next.  Every PERIOD_S a timer signal runs `reference_loop` inside the
    timed call and records its duration, so the mean duration tracks the
    machine's speed over exactly the interval the call ran.
    """

    def __init__(self) -> None:
        self.durations: list = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def load_package():
    """Import f4prolong from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import f4prolong
    import f4prolong.cli

    where = Path(f4prolong.__file__).resolve().parent
    if where != SRC / "f4prolong":
        raise ImportError(f"f4prolong imported from {where}, expected {SRC / 'f4prolong'}")
    return f4prolong.cli


def summarize(text: str) -> dict:
    """What the checks need from one JSON output: status counts, drift, digest.

    The digest is over the exact output bytes with the elapsed_ms value
    blanked, so two same-seed reports match only if byte-identical otherwise.
    """
    data = json.loads(text)
    out = {"digest": hashlib.sha256(ELAPSED.sub('"elapsed_ms": 0', text).encode()).hexdigest()}
    if "items" in data:
        counts: dict = {}
        for item in data["items"]:
            counts[item["status"]] = counts.get(item["status"], 0) + 1
        out["counts"] = counts
    if "max_constraint_drift" in data:
        out["drift"] = max(data["max_constraint_drift"], data["max_sr_drift"])
        out["steps"] = data["steps"]
    return out


def timing(seconds: float, probe: SpeedProbe) -> dict:
    ticks = probe.durations
    return {
        "seconds": seconds,
        "ticks": len(ticks),
        "ticks_s": sum(ticks),
        "tick_mean_s": sum(ticks) / len(ticks) if ticks else None,
    }


def run_call(cli, argv, sample_speed: bool) -> dict:
    buf = io.StringIO()
    error = None
    probe = SpeedProbe()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), probe if sample_speed else contextlib.nullcontext():
            rc = cli.run(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = None
        error = traceback.format_exc()
    out = {"argv": argv, "rc": rc, "error": error}
    out.update(timing(time.perf_counter() - t0, probe))
    if error is None:
        try:
            out.update(summarize(buf.getvalue()))
        except (ValueError, KeyError, TypeError) as exc:
            out["error"] = f"unreadable output: {exc!r}"
    if out["error"]:
        print(out["error"], file=sys.stderr)
    return out


def main(argv) -> int:
    spec = json.loads(argv[1])
    with SpeedProbe() as probe:
        cli = load_package()
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's launch time and
    # this reading are on one clock
    setup = timing(time.monotonic() - spec["launched"], probe)
    if not spec["ops"]:
        print(json.dumps({"setup": setup}))
        return 0
    # imported after set-up is timed so that setup_s is the package's alone
    from layers import TARGETS
    from tracer import Tracer, count_wrapped

    tracer = Tracer() if spec["trace"] else None
    wrapped = tracer.install("f4prolong", TARGETS) if tracer else 0
    ops = [run_call(cli, a, not tracer) for a in spec["ops"]]
    if tracer:
        tracer.uninstall()
    else:
        wrapped = count_wrapped("f4prolong")
    rk4 = run_call(cli, spec["rk4"], True) if spec["rk4"] else None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup": setup,
        "ops": ops,
        "rk4": rk4,
        "wrapped": wrapped,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if tracer is not None:
        result["stats"] = {
            name: {"calls": s.calls, "total_s": s.total, "self_s": s.own}
            for name, s in tracer.stats.items()
        }
        result["counters"] = tracer.counters
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
