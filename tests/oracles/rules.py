"""The full-pass rule engine: the oracle for incremental evaluation.

:class:`FullPassInterpreter` is §4.2.2's ``evaluateRules()`` read
literally: every pass evaluates every installed rule, and conditions are
evaluated by walking the expression tree (``Expression.interpret``). The
rule differential suite replays random measurement streams through it and
through :class:`~repro.core.service_manager.rules.RuleInterpreter` and compares
firing journals, traces and per-rule statistics.
"""

from __future__ import annotations

from math import inf

from repro.core.service_manager.rules import RuleInterpreter

__all__ = ["FullPassInterpreter"]


class FullPassInterpreter(RuleInterpreter):
    """Evaluates every rule on every pass; no pass is skipped and no idle
    tick is jumped.

    ``compiled=True`` keeps the production engine's compiled conditions,
    isolating the cost of the full pass from that of tree walking.
    """

    def __init__(self, *args, compiled: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self._compiled = compiled

    def install(self, rule) -> None:
        super().install(rule)
        if not self._compiled:
            self._rules[rule.name].cond = rule.trigger.expression.interpret

    def _candidates(self) -> list:
        return list(self._rules.values())

    def _due(self) -> float:
        return -inf
