"""Model-denotational constraint framework.

§4.2: "the semantics of the language can be expressed in the model
denotational style ... as constraints between the abstract syntax and domain
elements that model the operation of Cloud infrastructure components. These
constraints are formally defined using the Object Constraint Language (OCL)".

OCL itself is Java/Eclipse tooling in the original (UCL-MDA); here the same
role is played by *constraint objects*: side-effect-free predicates over
(manifest, infrastructure state) pairs that report violations rather than
change anything — exactly OCL's evaluation discipline ("OCL operations are
side effect free ... Nevertheless they can be used to verify that the dynamic
capacity adjustments have indeed taken place").

§4.2.2 on when to check: "it is not feasible in practice to continuously
check ... it is preferable to tie the verification to monitoring events or
specific actions, such as a new deployment" — hence
:meth:`ConstraintSuite.check` is explicit and cheap enough to call from
deployment hooks and periodic audits.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Violation", "Constraint", "ConstraintSuite", "CheckReport"]


@dataclass(frozen=True)
class Violation:
    """One failed constraint instance."""

    constraint: str
    message: str
    context: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"{self.constraint}: {self.message}"


class Constraint(abc.ABC):
    """A named, side-effect-free check over a domain object."""

    #: short identifier used in reports
    name: str = "constraint"

    @abc.abstractmethod
    def check(self, domain: Any) -> list[Violation]:
        """Return all violations (empty list = the invariant holds)."""

    def violation(self, message: str, **context: Any) -> Violation:
        return Violation(self.name, message, context)


@dataclass
class CheckReport:
    """Outcome of running a suite: which constraints ran, what failed."""

    checked: list[str] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        return f"{len(self.checked)} constraint(s) checked: {status}"


class ConstraintSuite:
    """An ordered collection of constraints evaluated together."""

    def __init__(self, constraints: Optional[list[Constraint]] = None):
        self.constraints: list[Constraint] = list(constraints or [])

    def check(self, domain: Any) -> CheckReport:
        report = CheckReport()
        for constraint in self.constraints:
            report.checked.append(constraint.name)
            report.violations.extend(constraint.check(domain))
        return report
