"""The polymorph-search (organic crystal structure prediction) workload.

§6: "The selected service is a grid based application responsible for the
computational prediction of organic crystal structures from the chemical
diagram" — MOLPAK/DMAREL-style Fortran programs orchestrated by BPEL.

§6.1.3 defines the shape for the evaluated input: "two long running jobs
will first be submitted, followed by an additional set of 200 jobs being
spawned with each completion to further refine the input. We must also take
into account the additional processing time involved in orchestrating the
service and gathering outputs."

The two seed jobs have deliberately different durations so the two 200-job
refinement batches land staggered, producing the two queue spikes visible in
Fig. 11.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.rng import RandomStreams, lognormal_from_mean_cv
from .jobs import Job
from .workflow import (
    ForEachCompletion,
    Invoke,
    Sequence,
    SubmitJobs,
    WaitForJobs,
    Workflow,
    WorkflowContext,
)

__all__ = ["PolymorphSearchConfig", "build_polymorph_workflow"]


@dataclass(frozen=True)
class PolymorphSearchConfig:
    """Workload parameters, calibrated so the dedicated 16-node baseline's
    turn-around lands near the paper's 8605 s (Table 3)."""

    #: durations of the two seed (MOLPAK coarse-search) jobs, seconds
    seed_durations_s: tuple[float, ...] = (3180.0, 4600.0)
    #: refinement (DMAREL minimisation) jobs spawned per seed completion
    refinements_per_seed: int = 200
    #: mean / coefficient-of-variation of refinement job duration
    refinement_mean_s: float = 195.0
    refinement_cv: float = 0.30
    #: input collection + workflow setup before the seeds are submitted
    setup_s: float = 60.0
    #: result processing / page rendering after the last job completes
    gather_s: float = 120.0
    #: per-batch generation service call before submitting refinements
    generate_s: float = 30.0
    #: file-transfer sizes (MB)
    seed_input_mb: float = 50.0
    refinement_input_mb: float = 8.0
    refinement_output_mb: float = 4.0
    #: RNG seed for refinement-duration sampling
    random_seed: int = 42

    def __post_init__(self) -> None:
        if not self.seed_durations_s:
            raise ValueError("need at least one seed job")
        if any(d <= 0 for d in self.seed_durations_s):
            raise ValueError("seed durations must be positive")
        if self.refinements_per_seed < 0:
            raise ValueError("refinements_per_seed must be non-negative")
        if self.refinement_mean_s <= 0 or self.refinement_cv < 0:
            raise ValueError("bad refinement duration parameters")

    @property
    def total_jobs(self) -> int:
        return len(self.seed_durations_s) * (1 + self.refinements_per_seed)


@dataclass
class PolymorphRun:
    """Handle returned by :func:`build_polymorph_workflow`."""

    workflow: Workflow
    config: PolymorphSearchConfig
    #: filled in as batches are generated, for assertions/diagnostics
    batches: list[list[Job]] = field(default_factory=list)


def build_polymorph_workflow(config: PolymorphSearchConfig | None = None,
                             ) -> PolymorphRun:
    """Assemble the §6 evaluation workflow as a BPEL-style activity tree.

    Structure::

        Sequence(
          Invoke(collect-inputs),
          SubmitJobs(seeds),
          ForEachCompletion(seed →
              Sequence(Invoke(generate-batch), SubmitJobs(batch), WaitForJobs)),
          WaitForJobs(seeds),            # seeds themselves must be done too
          Invoke(gather-results))
    """
    config = config or PolymorphSearchConfig()
    streams = RandomStreams(config.random_seed)
    run = PolymorphRun(workflow=None, config=config)  # type: ignore[arg-type]

    def make_seeds(ctx: WorkflowContext) -> list[Job]:
        return [
            Job(duration_s=d, name=f"seed-{i}",
                input_mb=config.seed_input_mb,
                tags={"phase": "seed", "seed_index": i})
            for i, d in enumerate(config.seed_durations_s)
        ]

    def make_refinements(seed: Job):
        rng = streams.stream(f"refine-{seed.tags['seed_index']}")

        def factory(ctx: WorkflowContext) -> list[Job]:
            batch = [
                Job(
                    duration_s=lognormal_from_mean_cv(
                        rng, config.refinement_mean_s, config.refinement_cv),
                    name=f"refine-{seed.tags['seed_index']}-{j}",
                    input_mb=config.refinement_input_mb,
                    output_mb=config.refinement_output_mb,
                    tags={"phase": "refine",
                          "seed_index": seed.tags["seed_index"]},
                )
                for j in range(config.refinements_per_seed)
            ]
            run.batches.append(batch)
            return batch

        batch_var = f"refinements-{seed.tags['seed_index']}"
        return Sequence(
            Invoke(f"generate-batch-{seed.tags['seed_index']}",
                   duration_s=config.generate_s),
            SubmitJobs(f"refinements-of-{seed.name}", factory,
                       result_var=batch_var),
            WaitForJobs(batch_var),
        )

    root = Sequence(
        Invoke("collect-inputs", duration_s=config.setup_s),
        SubmitJobs("seed-jobs", make_seeds, result_var="seeds"),
        ForEachCompletion("seeds", make_refinements),
        WaitForJobs("seeds"),
        Invoke("gather-results", duration_s=config.gather_s),
    )
    run.workflow = Workflow("polymorph-search", root)
    return run
