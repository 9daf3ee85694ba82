"""Session-scoped fixtures sharing the expensive suite computations."""

from __future__ import annotations

import time

import pytest

from f4prolong import cartan, control, f4roots, nullflag, prolong
from f4prolong.fields import origin


def by_id(items):
    return {i.id: i for i in items}


def failures(items):
    return [i for i in items if i.status == "fail"]


def discrepancies(items):
    return [i for i in items if i.status == "paper-discrepancy"]


@pytest.fixture(scope="session")
def cartan_run():
    t0 = time.monotonic()
    items = cartan.verify_suite(seed=0, samples=5)
    return items, time.monotonic() - t0


@pytest.fixture(scope="session")
def control_run():
    t0 = time.monotonic()
    items = control.verify_suite(seed=0, svc_samples=200, rank_samples=50)
    return items, time.monotonic() - t0


@pytest.fixture(scope="session")
def nullflag_run():
    t0 = time.monotonic()
    items = nullflag.verify_suite(seed=0, samples=100)
    return items, time.monotonic() - t0


@pytest.fixture(scope="session")
def prolong_run():
    t0 = time.monotonic()
    items, zs, table = prolong.verify_suite(seed=0, samples=5)
    return items, zs, table, time.monotonic() - t0


@pytest.fixture(scope="session")
def roots_run(prolong_run):
    _, zs, table, _ = prolong_run
    t0 = time.monotonic()
    items = f4roots.verify_suite(table, prolong.symbol_weights(zs, origin(zs.chart)))
    return items, time.monotonic() - t0
