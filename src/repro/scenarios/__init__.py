"""Scenario factory: workloads, chaos, invariants, experiments (§16).

Four cooperating parts:

* :mod:`.workloads` — composable, seeded workload generators (diurnal
  curves, flash crowds, heavy-tailed session lengths, tenant mixes)
  emitting the session streams the scale harness drives services with;
* :mod:`.chaos` — fault injection (host crashes, spot preemption,
  correlated site outages, network partitions) as first-class DES events
  with recovery hooks and ``chaos.*`` trace records;
* :mod:`.invariants` — the post-cell system checks (no oversubscription,
  requests settled, accounting consistent, no orphan spans);
* :mod:`.runner` — the sweep-driven experiment runner behind
  ``python -m repro experiment``.
"""
