"""Structured verdict explanations.

Every solver verdict — SAT or not — says *why* in a machine-readable way:
which constraint class pruned the last candidate, over which item, with
enough detail to act on (retry later, relax a constraint, grow the pool).
The control plane threads these into :class:`~repro.control.requests.Rejected`
outcomes, trace records and metrics instead of free-text strings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["PruneCode", "Explanation"]


class PruneCode(enum.Enum):
    """Which constraint class killed the last candidate (or the model)."""

    CAPACITY = "capacity"              # no host has the cpu/memory free
    AFFINITY = "affinity"              # co-location anchor unreachable
    ANTI_AFFINITY = "anti-affinity"    # exclusion group exhausted the hosts
    ATTRIBUTE = "attribute"            # required host attribute missing
    COMPONENT_CAP = "component-cap"    # per-host instance cap reached
    PIN = "pin"                        # pinned host absent or full
    SITE = "site"                      # site-level eligibility (avoid/trust)
    QUOTA = "quota"                    # tenant quota ceiling
    BUDGET = "budget"                  # search budget exhausted (no verdict)
    UNSUPPORTED = "unsupported"        # constraint type the model can't encode


@dataclass(frozen=True)
class Explanation:
    """One structured verdict: the dominant prune code, a human-readable
    message, and a detail payload (per-code prune tallies, the item that
    had no candidates left, nodes spent, ...)."""

    code: PruneCode
    message: str
    detail: dict = field(default_factory=dict)

    def render(self) -> str:
        extras = ", ".join(f"{k}={v}" for k, v in sorted(self.detail.items())
                           if k != "tallies")
        return (f"[{self.code.value}] {self.message}"
                + (f" ({extras})" if extras else ""))


def from_tallies(item_label: str, tallies: dict, **detail) -> Explanation:
    """Build an explanation from a per-code prune tally: the dominant code
    (most candidates pruned; deterministic tie-break on code value) wins."""
    if not tallies:
        return Explanation(PruneCode.CAPACITY,
                           f"no candidate hosts at all for {item_label}",
                           dict(detail))
    code = max(sorted(tallies, key=lambda c: c.value),
               key=lambda c: tallies[c])
    payload = {"item": item_label,
               "tallies": {c.value: n for c, n in sorted(
                   tallies.items(), key=lambda kv: kv[0].value)}}
    payload.update(detail)
    return Explanation(
        code,
        f"{code.value} pruned the last candidate host for {item_label}",
        payload)
