"""Constraint-model placement solver (DESIGN §15).

The greedy :class:`~repro.cloud.placement.Placer` and the FFD admission
packer are fast but incomplete: a sequential first-fit can paint itself
into a corner that a joint assignment escapes. This package encodes
placement as an explicit constraint model (:mod:`.model`, compiled from
manifests and live host state by :mod:`.encode`), solves it with budgeted
backtracking search (:mod:`.search`), and builds three capabilities on
top:

* **fallback placement** — the control plane re-plans a service whose
  greedy deployment raised :class:`~repro.cloud.errors.CapacityError`
  and retries with per-instance host pins;
* **what-if admission** (:mod:`.whatif`) — federation-wide "would this
  manifest fit, where, at what committed cost?" probes that never mutate
  any site;
* **defragmenting migration plans** (:mod:`.defrag`) — ordered,
  safety-checked ``vm.migrate`` batches that consolidate a fragmented
  fleet.

Every verdict carries a structured :class:`~.explain.Explanation` saying
which constraint pruned the last candidate.
"""
