"""The service manifest language: abstract syntax, well-formedness rules and
concrete XML syntax (behavioural semantics live in
:mod:`repro.core.constraints` and are enforced by
:mod:`repro.core.service_manager`)."""
