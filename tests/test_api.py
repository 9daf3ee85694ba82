"""The names that callers outside the library bind: the public API and the
benchmark tracer's targets."""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import f4prolong
from f4prolong import cli

LAYERS_PY = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _bench_targets():
    """The (module, qualname, span name, hook) targets of bench/layers.py,
    loaded by path and only read."""
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TARGETS


@pytest.mark.parametrize("module, qualname", [t[:2] for t in _bench_targets()])
def test_every_traced_target_resolves(module, qualname):
    # the tracer looks each part up in the namespace itself, as here
    obj = importlib.import_module(f"f4prolong.{module}")
    for part in qualname.split("."):
        assert part in vars(obj), f"f4prolong.{module}.{qualname} is gone"
        obj = vars(obj)[part]
    assert callable(obj)


@pytest.mark.parametrize("name", f4prolong.__all__)
def test_every_public_name_imports(name):
    namespace: dict = {}
    exec(f"from f4prolong import {name}", namespace)
    assert namespace[name] is getattr(f4prolong, name)


@pytest.mark.parametrize("name", list(cli.SUITES))
def test_every_registered_suite_runs_without_arguments(name):
    # `verify` calls each module's verify_suite with no argument; bind raises
    # TypeError on a required parameter
    inspect.signature(cli.SUITES[name].verify_suite).bind()


def test_verify_offers_exactly_the_registered_suites_and_all():
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in commands.choices["verify"]._actions if a.dest == "suite")
    assert list(suite.choices) == [*cli.SUITES, "all"]
