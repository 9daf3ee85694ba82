"""In-memory span tracer that wraps library functions from outside the library.

`Tracer.install` replaces every binding of each named function: the defining
module's global, copies made by ``from .linalg import solve_exact`` in other
modules of the package, and class aliases such as ``MultiPoly.__rmul__``.
Each call opens a span; when it closes, its duration is folded into the
per-function totals (calls, total seconds, self seconds), so memory stays flat
however many calls a run makes.  Nothing is written until the caller reads
`Tracer.stats` at the end of the run.

Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional

MARK = "__bench_traced__"

# A counter hook runs after a wrapped call returns:
# hook(tracer, args, result) -> None.
Hook = Callable[["Tracer", tuple, object], None]


class Stat:
    __slots__ = ("calls", "total", "own")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.own = 0.0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: Dict[str, Stat] = {}
        self.counters: Dict[str, float] = {}
        # open spans: [name, start, time covered by closed children]
        self.stack: List[list] = []
        self._undo: List[tuple] = []

    # -- counters used by hooks ---------------------------------------

    def add(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def high(self, key: str, v: float) -> None:
        if v > self.counters.get(key, 0):
            self.counters[key] = v

    @property
    def parent(self) -> Optional[str]:
        """Name of the innermost open span, or None at top level."""
        return self.stack[-1][0] if self.stack else None

    # -- spans ---------------------------------------------------------

    def wrap(self, fn: Callable, name: str, hook: Optional[Hook] = None) -> Callable:
        stat = self.stats.setdefault(name, Stat())
        stack = self.stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - span[1]
                stat.calls += 1
                stat.total += dur
                stat.own += dur - span[2]
                if stack:
                    stack[-1][2] += dur
            if hook is not None:
                hook(self, args, result)
            return result

        setattr(traced, MARK, True)
        return traced

    # -- installation --------------------------------------------------

    def install(self, package: str, targets) -> int:
        """Wrap each (module, qualname, span name, hook) target everywhere it is bound.

        Returns the number of bindings replaced.  Raises if a target is missing
        or bound nowhere, since a wrapper that never runs would report zero
        calls without saying why.
        """
        spaces = _namespaces(package)
        replaced = 0
        for module, qualname, name, hook in targets:
            original = sys.modules[f"{package}.{module}"]
            for part in qualname.split("."):
                original = vars(original)[part]
            wrapper = self.wrap(original, name, hook)
            hits = 0
            for ns in spaces:
                for attr, v in list(vars(ns).items()):
                    if v is original:
                        self._undo.append((ns, attr, original))
                        setattr(ns, attr, wrapper)
                        hits += 1
            if not hits:
                raise LookupError(f"{module}.{qualname} is bound nowhere")
            replaced += hits
        return replaced

    def uninstall(self) -> None:
        while self._undo:
            ns, attr, original = self._undo.pop()
            setattr(ns, attr, original)


def _in_package(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def _namespaces(package: str) -> list:
    """The package's loaded modules and the classes they define, each once."""
    seen = {}
    for name, m in sorted(sys.modules.items()):
        if m is None or not _in_package(name, package):
            continue
        seen[id(m)] = m
        for v in vars(m).values():
            if isinstance(v, type) and _in_package(v.__module__, package):
                seen[id(v)] = v
    return list(seen.values())


def count_wrapped(package: str) -> int:
    """Number of tracer wrappers bound anywhere in the package's namespaces."""
    return sum(
        1
        for ns in _namespaces(package)
        for v in vars(ns).values()
        if getattr(v, MARK, False)
    )
