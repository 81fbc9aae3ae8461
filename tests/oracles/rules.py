"""The full-pass rule engine: the oracle for incremental evaluation.

:class:`FullPassInterpreter` is §4.2.2's ``evaluateRules()`` read
literally: every pass evaluates every installed rule, conditions are
evaluated by walking the expression tree (:func:`tests.oracles.expressions.interpret`),
and window operations read a journal of every sample the engine was notified
of. The rule differential suite replays random measurement streams through
it and through :class:`~repro.core.service_manager.rules.RuleInterpreter`
(whose windows keep only what a window can still reach) and compares
firing journals, traces and per-rule statistics.
"""

from __future__ import annotations

import functools
from math import inf

from repro.core.service_manager.rules import RuleInterpreter
from repro.monitoring.consumers import MeasurementJournal
from tests.oracles.expressions import interpret

__all__ = ["FullPassInterpreter"]


class FullPassInterpreter(RuleInterpreter):
    """Evaluates every rule on every pass; no pass is skipped, no idle
    tick is jumped and no sample is dropped.

    ``compiled=True`` keeps the production engine's compiled conditions,
    isolating the cost of the full pass from that of tree walking.
    """

    def __init__(self, *args, compiled: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self._compiled = compiled
        #: every sample of the service, in arrival order
        self.journal = MeasurementJournal()

    def install(self, rule) -> None:
        super().install(rule)
        if not self._compiled:
            self._rules[rule.name].cond = functools.partial(
                interpret, rule.trigger.expression)

    def notify(self, measurement) -> None:
        super().notify(measurement)
        if measurement.service_id == self.service_id:
            self.journal.notify(measurement)

    def _window(self, name: str, window_s: float, op: str):
        now = self.env.now
        return self.journal.aggregate(self.service_id, name,
                                      now - window_s, now, op)

    def _candidates(self) -> list:
        return list(self._rules.values())

    def _due(self) -> float:
        return -inf
