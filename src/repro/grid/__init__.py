"""Condor-like grid substrate and BPEL-style orchestration.

The evaluation application's stack (§6.1.1): a scheduler maintaining a job
queue and matchmaking against registered execution nodes
(:mod:`~repro.grid.scheduler`), execution services whose registration is tied
to VM lifecycle (:mod:`~repro.grid.execution`), an orchestration engine
(:mod:`~repro.grid.workflow`) and the polymorph-search workload
(:mod:`~repro.grid.polymorph`).
"""

# perfbench/workload.py imports this name from the package.
from .polymorph import PolymorphSearchConfig  # noqa: F401
