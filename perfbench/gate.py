"""Behaviour gate: a benchmark run counts only if the program's output is right.

At the default seed a workload's outcome (timeline digest and report
figures) must equal the one pinned in pins.json, and each fixture pair's
`to_csv()` must hash to its pinned SHA-256. Any other seed is checked by
invariants that hold for every seed. Within one run every iteration must
reproduce the first iteration's outcome exactly.

The pins were recorded from the program as it stood when the benchmark was
added. A change that alters behaviour on purpose re-pins from the
`outcomes` in a default-seed result file and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

from workloads import DEFAULT_SEED, Workload

PINS = Path(__file__).resolve().parent / "pins.json"


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


def outcome_digest(outcomes: list[dict]) -> str:
    """One hash over every pass's outcome, for comparing two commits."""
    text = json.dumps(outcomes, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fixture_errors(name: str, csv_text: str, pins: dict) -> list[str]:
    digest = hashlib.sha256(csv_text.encode("utf-8")).hexdigest()
    pinned = pins["fixtures"][name]
    if digest != pinned:
        return [f"fixture {name}: to_csv() sha256 {digest} != pinned {pinned}"]
    return []


def pass_errors(name: str, p) -> list[str]:
    """Invariants of one pass that hold at every seed."""
    errors = []
    if not p.times_sorted:
        errors.append(f"{name}: timeline times decrease")
    expected_total = sum(p.outcome["expected"].values())
    if p.world_emits != expected_total:
        errors.append(f"{name}: {p.world_emits} world emits but report expects {expected_total}")
    if p.parsed_entries != p.outcome["entries"]:
        errors.append(f"{name}: CSV round trip read {p.parsed_entries} of "
                      f"{p.outcome['entries']} entries")
    return errors


def iteration_errors(wl: Workload, passes: list, reference: Optional[list[dict]],
                     pins: dict) -> list[str]:
    """Every check on one iteration; an empty list means it is correct."""
    outcomes = normalised([p.outcome for p in passes])
    errors = [e for p in passes for e in pass_errors(wl.name, p)]
    if wl.seed == DEFAULT_SEED and outcomes != pins["workloads"][wl.name]:
        errors.append(f"{wl.name}: outcome at seed {wl.seed} differs from pins.json "
                      f"(digest {outcome_digest(outcomes)})")
    if reference is not None and outcomes != reference:
        errors.append(f"{wl.name}: outcome differs from the run's first iteration")
    return errors


def normalised(outcomes: list[dict]) -> list[dict]:
    """The JSON form, so outcomes compare equal to pins read from disk."""
    return json.loads(json.dumps(outcomes, sort_keys=True))
