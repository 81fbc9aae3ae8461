"""Executable contracts the differential suites check the system against.

Each oracle is the plainest implementation of one component's observable
behaviour, kept beside the tests rather than inside the shipping package:

* :class:`~tests.oracles.kernel.HeapEnvironment` — the binary-heap event
  kernel, ordered by an explicit ``(time, priority, seq)`` key;
* :class:`~tests.oracles.broker.ReferenceBroker` — the publish/subscribe
  broker that decodes every packet and scans every subscription;
* :class:`~tests.oracles.rules.FullPassInterpreter` — the rule engine that
  evaluates every installed rule on every pass with tree-walking
  conditions (the §4.2.2 ``evaluateRules()`` transcription);
* :func:`~tests.oracles.packer.pack` — first-fit-decreasing with one
  object per bin, the packer capacity planning and admission must match.

The production implementations must be observationally identical to them
on any seeded workload; the suites replay the same inputs through both.
:mod:`~tests.oracles.solver` holds the independent checks of what the
solver and the defrag planner produce (``validate_assignment``,
``replay_safe``).
"""
