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

This package does not import ``runner``: it depends on
:mod:`repro.experiments.scale`, which itself imports this package's
generators — import :mod:`repro.scenarios.runner` directly.
"""

from .chaos import (
    ChaosEvent,
    HostCrash,
    NetworkPartition,
    Oversubscribe,
    SiteOutage,
    SpotPreemption,
    install_chaos,
    restrict_event,
    sites_of,
)
from .invariants import (
    Violation,
    check_accounting,
    check_all,
    check_no_orphan_spans,
    check_no_oversubscription,
    check_requests_settled,
)
from .workloads import (
    LOAD_UNIT,
    SessionProfile,
    WorkloadError,
    WORKLOADS,
    draw_profiles,
    workload,
    workload_names,
)

__all__ = [
    "ChaosEvent",
    "HostCrash",
    "NetworkPartition",
    "Oversubscribe",
    "SiteOutage",
    "SpotPreemption",
    "install_chaos",
    "restrict_event",
    "sites_of",
    "Violation",
    "check_accounting",
    "check_all",
    "check_no_orphan_spans",
    "check_no_oversubscription",
    "check_requests_settled",
    "LOAD_UNIT",
    "SessionProfile",
    "WorkloadError",
    "WORKLOADS",
    "draw_profiles",
    "workload",
    "workload_names",
]

