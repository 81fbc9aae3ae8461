"""The full-pass rule engine: the oracle for incremental evaluation.

:class:`FullPassInterpreter` is §4.2.2's ``evaluateRules()`` read
literally: every pass evaluates every installed rule, conditions are
evaluated by walking the expression tree (:func:`tests.oracles.expressions.interpret`),
and window operations read a journal of every sample the engine was notified
of (:class:`JournalBindings`, the production bindings with that one read
replaced). The rule differential suite replays random measurement streams
through it and through
:class:`~repro.core.service_manager.rules.RuleInterpreter` (whose windows
keep only what a window can still reach) and compares firing journals,
traces and per-rule statistics.
"""

from __future__ import annotations

import functools
from math import inf

from repro.core.service_manager.rules import RuleInterpreter
from repro.monitoring.consumers import MeasurementJournal, ServiceBindings
from tests.oracles.expressions import interpret

__all__ = ["FullPassInterpreter", "JournalBindings"]


class JournalBindings(ServiceBindings):
    """:class:`ServiceBindings` whose window operations read a journal of
    every sample notified, never dropping one."""

    def __init__(self, clock, service_id, defaults=None):
        super().__init__(clock, service_id, defaults)
        #: every sample of the service, in arrival order
        self.journal = MeasurementJournal()

    def notify(self, measurement):
        self.journal.notify(measurement)
        return super().notify(measurement)

    def aggregate(self, name, window_s, op):
        now = self.clock.now
        return self.journal.aggregate(self.service_id, name,
                                      now - window_s, now, op)


class FullPassInterpreter(RuleInterpreter):
    """Evaluates every rule on every pass; no pass is skipped, no idle
    tick is jumped and no sample is dropped.

    ``compiled=True`` keeps the production engine's compiled conditions,
    isolating the cost of the full pass from that of tree walking.
    """

    def __init__(self, *args, compiled: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self._compiled = compiled
        self.bindings = JournalBindings(self.env, self.service_id,
                                        kwargs.get("kpi_defaults"))
        self.journal = self.bindings.journal

    def install(self, rule) -> None:
        super().install(rule)
        if not self._compiled:
            self._rules[rule.name].cond = functools.partial(
                interpret, rule.trigger.expression)

    def _candidates(self) -> list:
        return list(self._rules.values())

    def _due(self) -> float:
        return -inf
