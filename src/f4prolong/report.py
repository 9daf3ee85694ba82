"""Verification report containers shared by the library and the CLI."""

from __future__ import annotations

from typing import List, Optional

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "paper-discrepancy"


class Item:
    def __init__(self, id: str, description: str, status: str, computed: str = "", expected: str = "", note: str = ""):
        self.id, self.description, self.status = id, description, status
        self.computed, self.expected, self.note = computed, expected, note

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "status": self.status,
            "computed": self.computed,
            "expected": self.expected,
            "note": self.note,
        }


def check(item_id: str, description: str, ok: bool, computed="", expected="", note="") -> Item:
    return Item(item_id, description, PASS if ok else FAIL, str(computed), str(expected), note)


def against_paper(item_id: str, matches: str, versus: str, computed, published, note="", shown=False) -> Item:
    """A computed value checked against its published display: a pass
    described by `matches` when the two are equal (showing both values only
    if `shown`, never the note), else a paper-discrepancy described by
    `versus` that shows both values and the note."""
    if computed == published:
        return check(item_id, matches, True, *((computed, published) if shown else ()))
    return Item(item_id, versus, DISCREPANCY, str(computed), str(published), note)


class Report:
    def __init__(self, suite: str, seed: int = 0, elapsed_ms: int = 0, items: Optional[List[Item]] = None):
        self.suite, self.seed, self.elapsed_ms = suite, seed, elapsed_ms
        self.items = [] if items is None else items

    def extend(self, items) -> None:
        self.items.extend(items)

    @property
    def ok(self) -> bool:
        return all(i.status != FAIL for i in self.items)

    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, DISCREPANCY: 0}
        for i in self.items:
            out[i.status] = out.get(i.status, 0) + 1
        return out

    def to_json(self) -> dict:
        return {
            "schema": "f4prolong/1",
            "suite": self.suite,
            "seed": self.seed,
            "elapsed_ms": self.elapsed_ms,
            "items": [i.to_json() for i in self.items],
        }
