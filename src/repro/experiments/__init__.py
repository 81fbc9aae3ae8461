"""Experiment harness reproducing the paper's evaluation (§6).

* :mod:`~repro.experiments.polymorph` — the Table 3 / Fig. 11 runs
  (dedicated vs. elastic polymorph search);
* :mod:`~repro.experiments.fig11` — series extraction and text rendering of
  Fig. 11;
* :mod:`~repro.experiments.weekly` — the §6.1.4 weekly-usage estimate;
* :mod:`~repro.experiments.scale` — the federation scale harness
  (``python -m repro scale``).

The package re-exports nothing: import from the module, so that a shard
worker, which unpickles :mod:`~repro.experiments.scale`, loads none of the
other three.
"""
