"""The paper's primary contribution: the manifest language
(:mod:`~repro.core.manifest`), its behavioural semantics as constraints
(:mod:`~repro.core.constraints`) and the Service Manager that enforces them
(:mod:`~repro.core.service_manager`)."""
