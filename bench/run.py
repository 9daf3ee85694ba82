"""f4prolong benchmark: time to verdict, RK4 throughput and per-layer cost.

Usage, from the root of a checkout (nothing to build: the package is pure
Python and is imported from src/):

    python3 bench/run.py --workload {verify-all,base-suites,integrate} \\
        --seed N --seconds S --trace {0,1}

Each workload is a closed loop with one client.  Every sample is a fresh
interpreter running bench/worker.py, started only after the previous one has
ended, from this single process and without threads.  The seed is an
argument here; the program receives only the inputs generated from it.

With --trace 0 the run reports the end-to-end metrics, each the median over
the run's samples:

- setup_s: interpreter launch until f4prolong is imported and ready for its
  first call (a warm-up launch first writes the bytecode caches and is not
  counted).
- verdict_s: first library call until the complete JSON report exists.
- rk4_steps_per_s: RK4 steps over the time of one `integrate --json` call at
  the workload's stated step count.  On the verify workloads this call runs
  after the verdict, in the same interpreter, and is not part of verdict_s.
- peak_rss_mb: peak resident memory of the sample's process.

The three times are wall times rescaled to a fixed machine speed.  On a
shared host the same Python code runs up to twice as slow from one second to
the next, for reasons outside this process; the worker's speed probe
(worker.SpeedProbe) times a fixed reference loop every 25 ms during set-up
and inside each call, and the wall time, less the probe's own ticks, is
multiplied by REFERENCE_S over the mean tick.  The raw wall times are kept in
the detail line as setup_wall_s, verdict_wall_s and rk4_wall_steps_per_s.

With --trace 1 it runs one untraced and one traced sample of the same seed
and reports the per-layer metrics of bench/layers.py, the tracing overhead
(the traced sample's wall time to verdict minus the untraced one's) and the
share of failed operations.

Every sample's output is checked.  An operation is one report item of a
verify call or one integrate call.  An item fails on a `fail` status, and all
items of a sample fail on a nonzero exit, a traceback, status counts other
than the expected ones, or a report that differs from the run's first
same-seed report once elapsed_ms is blanked.  An integrate call fails on the
same exit, traceback and identity checks, on a non-finite or over-bound
drift, or on a step count other than the stated one.  The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
environment, the inputs and every sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from layers import layer_values, metric_units
from worker import load_package

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_LAUNCHES = 15  # set-up-only launches per run, besides one per sample
MIN_SAMPLES = 2  # the byte-identity check needs two same-seed reports
STEP = 1e-3
DRIFT_BOUND = 1e-8  # criterion 10 of the acceptance tests
# nominal duration of worker.reference_loop: rescaled times read as seconds
# on a machine that runs the loop in this time (it took 0.6-1.3 ms on the
# 2-core 2.1 GHz x86-64 host, CPython 3.11, on which the bounds were set)
REFERENCE_S = 1e-3

WORKLOADS = {
    "verify-all": {
        "why": "the headline certification, about 85% prolong: derived flags, span"
        " membership on 24-field systems, fields_matrix at sample points",
        "suites": [("all", None)],
        "expect": {"pass": 374, "fail": 0, "paper-discrepancy": 12},
        "tmax": 1.0,
    },
    "base-suites": {
        "why": "cartan, control and nullflag: poly mul/diff on 15-38 variables,"
        " polynomial det/pfaffian and many small dense ranks, little 24-field elimination",
        # each suite with its own default sample count
        "suites": [("cartan", 5), ("control", 200), ("nullflag", 100)],
        "expect": {"pass": 244, "fail": 0, "paper-discrepancy": 7},
        "tmax": 1.0,
    },
    "integrate": {
        "why": "a long RK4 run from a seeded Q-null control with nonzero drift:"
        " all float evaluate_seq, none of the exact elimination",
        "suites": [],
        "expect": None,
        "tmax": 3.0,
    },
}

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "rk4_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def integrate_inputs(seed: int) -> dict:
    """A seeded Q-null control and its svc_membership witness as the covector.

    The control is (u, v) with v the part of a random w orthogonal to u, so
    Q(u, v) = u.v = 0 exactly; the witness covector makes it lie in ker A.
    All eight control components are nonzero, so that every seed integrates
    a Hamiltonian with the same terms and the step cost does not depend on it.
    """
    from f4prolong.control import ControlVector, svc_membership

    rng = random.Random(seed)
    while True:
        u = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        w = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        uu = sum(a * a for a in u)
        if not uu:
            continue
        dot = sum(a * b for a, b in zip(u, w))
        v = [b - dot / uu * a for a, b in zip(u, w)]
        if all(u + v):
            break
    member, witness = svc_membership(ControlVector(tuple(u), tuple(v)))
    if not member or witness is None:
        raise RuntimeError(f"seed {seed}: Q-null control {u + v} has no SVC witness")
    return {
        "controls": ",".join(str(x) for x in u + v),
        "covector": ",".join(str(x) for x in (witness.s,) + tuple(witness.r)),
    }


def plan(workload: str, seed: int) -> dict:
    """The CLI calls of one sample and the integrate inputs behind them."""
    spec = WORKLOADS[workload]
    inputs = integrate_inputs(seed)
    inputs.update(seed=seed, step=STEP, tmax=spec["tmax"], steps=round(spec["tmax"] / STEP))
    integrate = [
        "integrate", "--json", "--seed", str(seed),
        f"--covector={inputs['covector']}", f"--controls={inputs['controls']}",
        "--step", repr(STEP), "--tmax", repr(spec["tmax"]),
    ]  # fmt: skip
    calls = [
        ["verify", suite, "--json", "--seed", str(seed)]
        + (["--samples", str(n)] if n is not None else [])
        for suite, n in spec["suites"]
    ]
    if not calls:
        return {"ops": [integrate], "rk4": None, "inputs": inputs}
    return {"ops": calls, "rk4": integrate, "inputs": inputs}


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------


def launch(spec: dict, deadline: float) -> dict:
    """Run one worker to completion and return its result line."""
    spec = dict(spec, launched=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(timeout=max(0.1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "worker ran past the run's deadline"}
    if proc.returncode != 0:
        return {"error": f"worker exited {proc.returncode}"}
    sample = json.loads(out.strip().splitlines()[-1])
    sample["lifetime_s"] = time.monotonic() - spec["launched"]
    return sample


def check_drift(call: dict, steps: int) -> list:
    drift = call.get("drift", math.nan)
    if not (math.isfinite(drift) and drift < DRIFT_BOUND):
        return [f"integrate: drift {drift!r}, expected finite and < {DRIFT_BOUND}"]
    if call["steps"] != steps:
        return [f"integrate: {call['steps']} steps, expected {steps}"]
    return []


def score(workload: str, spec: dict, sample: dict, reference: dict, steps: int) -> tuple:
    """(attempted, failed, problems) for one sample.

    `reference` maps each call's position to the first digest seen for it in
    this run, all of one seed, and is filled on first sight.  A wrong report
    fails all its items; a wrong integration run fails that run.
    """
    expect = WORKLOADS[workload]["expect"]
    items = sum(expect.values()) if expect else 0
    runs = 1 if spec["rk4"] or spec["ops"][-1][0] == "integrate" else 0
    attempted = items + runs
    if "error" in sample:
        return attempted, attempted, [sample["error"]]
    report, run = [], []
    for k, call in enumerate(sample["ops"] + ([sample["rk4"]] if sample["rk4"] else [])):
        is_run = call["argv"][0] == "integrate"
        bucket = run if is_run else report
        name = " ".join(call["argv"][:2])
        if call["error"] or call["rc"] != 0:
            bucket.append(f"{name}: exit {call['rc']}, error {call['error']!r}")
            continue
        if reference.setdefault(k, call["digest"]) != call["digest"]:
            bucket.append(f"{name}: output differs from the same-seed output")
        if is_run:
            bucket += check_drift(call, steps)
    if expect:
        counts: dict = {}
        for call in sample["ops"]:
            for status, n in call.get("counts", {}).items():
                counts[status] = counts.get(status, 0) + n
        if counts != {status: n for status, n in expect.items() if n}:
            report.append(f"status counts {counts}, expected {expect}")
    failed = (items if report else 0) + (runs if run else 0)
    if (sample["wrapped"] > 0) != spec["trace"]:
        report.append(f"{sample['wrapped']} tracer wrappers bound, trace={spec['trace']}")
        failed = attempted
    return attempted, failed, report + run


def wall_s(call: dict) -> float:
    """Wall time of a call, or of set-up, without the speed probe's own ticks."""
    return call["seconds"] - call["ticks_s"]


def scaled_s(call: dict) -> float:
    """Wall time rescaled to a machine on which reference_loop takes REFERENCE_S."""
    if not call["ticks"]:
        return wall_s(call)
    return wall_s(call) * REFERENCE_S / call["tick_mean_s"]


def verdict_s(sample: dict, seconds=scaled_s) -> float:
    return sum(seconds(call) for call in sample["ops"])


def steps_per_s(sample: dict, seconds=scaled_s) -> float:
    call = sample["rk4"] or sample["ops"][-1]
    return call["steps"] / seconds(call)


def summary(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values),
            "min": min(values), "max": max(values)}  # fmt: skip


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    work = plan(workload, seed)
    steps = work["inputs"]["steps"]
    reference: dict = {}
    attempted = failed = 0
    problems: list = []
    samples: list = []

    def take(traced: bool) -> dict:
        nonlocal attempted, failed
        spec = {"ops": work["ops"], "rk4": None if trace else work["rk4"], "trace": traced}
        sample = launch(spec, deadline)
        a, f, p = score(workload, spec, sample, reference, steps)
        attempted, failed = attempted + a, failed + f
        problems.extend(p)
        samples.append(sample)
        return sample

    idle = {"ops": [], "rk4": None, "trace": False}
    launch(idle, deadline)  # warm-up: writes bytecode caches, not counted
    setups = [launch(idle, deadline) for _ in range(0 if trace else SETUP_LAUNCHES)]

    if trace:
        plain, traced = take(False), take(True)
    else:
        while len(samples) < MIN_SAMPLES or time.monotonic() - start < seconds:
            last = samples[-1].get("lifetime_s", 0.0) if samples else 0.0
            if time.monotonic() + last > deadline:
                if len(samples) < MIN_SAMPLES:
                    problems.append(f"fewer than {MIN_SAMPLES} samples fit in {DEADLINE_S} s")
                    failed = attempted
                break
            take(False)

    # samples whose every call ran to a readable output carry timings
    good = [
        s for s in samples
        if "ops" in s and not any(c["error"] for c in s["ops"] + [s["rk4"] or s["ops"][0]])
    ]  # fmt: skip
    if not good:
        raise SystemExit("no sample produced a result: " + "; ".join(problems))
    if trace:
        if "stats" not in traced or "ops" not in plain:
            raise SystemExit("the traced pair did not complete: " + "; ".join(problems))
        units = metric_units()
        values = layer_values(traced["stats"], traced["counters"])
        values["proc.cpu_s"] = traced["cpu_s"]
        values["trace_overhead_s"] = verdict_s(traced, wall_s) - verdict_s(plain, wall_s)
        values["fail_share"] = failed / attempted
        metrics = {k: {"value": values[k], "unit": units[k][0]} for k in units}
        dist = {}
    else:
        series = {
            "setup_s": [scaled_s(s["setup"]) for s in setups + samples if "setup" in s],
            "verdict_s": [verdict_s(s) for s in good],
            "rk4_steps_per_s": [steps_per_s(s) for s in good],
            "peak_rss_mb": [s["peak_rss_mb"] for s in good],
            "setup_wall_s": [wall_s(s["setup"]) for s in setups + samples if "setup" in s],
            "verdict_wall_s": [verdict_s(s, wall_s) for s in good],
            "rk4_wall_steps_per_s": [steps_per_s(s, wall_s) for s in good],
        }
        dist = {k: summary(v) for k, v in series.items()}
        metrics = {k: {"value": dist[k]["median"], "unit": u} for k, u in END_TO_END.items()}

    detail = {
        "workload": workload,
        "why": WORKLOADS[workload]["why"],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "inputs": work["inputs"],
        "distribution": dist,
        "samples": [
            {k: v for k, v in s.items() if k not in ("stats", "counters")} for s in samples
        ],
        "problems": problems,
        "run_s": time.monotonic() - start,
    }
    print(json.dumps({"detail": detail}))
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "f4prolong" / "__init__.py").is_file():
        print(f"error: no f4prolong package under {SRC}", file=sys.stderr)
        return 2
    load_package()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
