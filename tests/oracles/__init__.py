"""Executable contracts the differential suites check the system against.

Each oracle is the plainest implementation of one component's observable
behaviour, kept beside the tests rather than inside the shipping package:

* :class:`~tests.oracles.kernel.HeapEnvironment` — the binary-heap event
  kernel, ordered by an explicit ``(time, priority, seq)`` key;
* :class:`~tests.oracles.broker.ReferenceBroker` — the publish/subscribe
  broker that decodes every packet and scans every subscription;
* :class:`~tests.oracles.rules.FullPassInterpreter` — the rule engine that
  evaluates every installed rule on every pass with tree-walking
  conditions (the §4.2.2 ``evaluateRules()`` transcription).

The production implementations must be observationally identical to them
on any seeded workload; the suites replay the same inputs through both.
"""
