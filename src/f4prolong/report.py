"""Verification report containers shared by the library and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "paper-discrepancy"


@dataclass
class Item:
    id: str
    description: str
    status: str
    computed: str = ""
    expected: str = ""
    note: str = ""

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


@dataclass
class Report:
    suite: str
    seed: int = 0
    elapsed_ms: int = 0
    items: List[Item] = field(default_factory=list)

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
