"""Tests of the benchmark's own machinery.  Run: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import types
from pathlib import Path

from tracer import Tracer, count_wrapped

HERE = Path(__file__).resolve().parent


class Clock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _fake_package(clock: Clock):
    """pkg.work: outer() spends 1 s itself around two inner() calls of 2 s each;
    pkg.user holds a from-import copy of inner; Box aliases it as a method."""
    pkg = types.ModuleType("pkg")
    work = types.ModuleType("pkg.work")

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 0.5
        work.inner()
        work.inner()
        clock.now += 0.5

    work.inner, work.outer = inner, outer
    user = types.ModuleType("pkg.user")
    user.inner = inner
    box = type("Box", (), {"step": inner, "__module__": "pkg.user"})
    user.Box = box
    return {"pkg": pkg, "pkg.work": work, "pkg.user": user}


def test_self_time_of_nested_spans(monkeypatch):
    clock = Clock()
    for name, module in _fake_package(clock).items():
        monkeypatch.setitem(sys.modules, name, module)
    work, user = sys.modules["pkg.work"], sys.modules["pkg.user"]
    original = work.inner
    tracer = Tracer(clock)
    bound = tracer.install(
        "pkg", [("work", "outer", "outer", None), ("work", "inner", "inner", None)]
    )
    assert bound == 4  # work.outer, work.inner, user.inner, Box.step
    assert count_wrapped("pkg") == 4
    work.outer()
    user.inner()  # a top-level call through the copied binding
    outer, inner = tracer.stats["outer"], tracer.stats["inner"]
    assert (outer.calls, outer.total, outer.own) == (1, 5.0, 1.0)
    assert (inner.calls, inner.total, inner.own) == (3, 6.0, 6.0)
    assert tracer.stack == []
    tracer.uninstall()
    assert count_wrapped("pkg") == 0
    assert user.inner is original and user.Box.step is original


def _worker(trace: bool) -> dict:
    spec = {"ops": [["integrate", "--json", "--tmax", "0.01"]], "rk4": None, "trace": trace,
            "launched": time.monotonic()}  # fmt: skip
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=120, check=True,
    )  # fmt: skip
    return json.loads(done.stdout.splitlines()[-1])


def test_untraced_run_installs_no_wrapper():
    plain = _worker(trace=False)
    assert plain["wrapped"] == 0 and "stats" not in plain
    traced = _worker(trace=True)
    assert traced["wrapped"] > 0
    assert traced["stats"]["poly.evaluate_seq"]["calls"] > 0
    assert traced["ops"][0]["digest"] == plain["ops"][0]["digest"]
