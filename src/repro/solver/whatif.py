"""What-if admission: "would this manifest fit, where, at what cost?"

A federation-wide probe over a :class:`~repro.control.plane.ControlPlane`
that replays the *decision* pipeline of ``submit()`` — eligibility
screens, tenant quota, per-site guaranteed-capacity packing, the ranked
site choice — without reserving anything, queueing anything, or touching
any site's admission tables. Where the FFD packer refuses, the exact
constraint solver gets a second opinion, so the report distinguishes
"submit would admit this now" from "a joint repack could fit it" from
"infeasible, and here is the constraint that kills it".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cloud.capacity import demand_envelope
from .encode import encode_admission
from .explain import Explanation, PruneCode
from .model import Solution
from .search import solve

__all__ = ["SiteVerdict", "WhatIfReport", "what_if"]


@dataclass(frozen=True)
class SiteVerdict:
    """One federation member's answer."""

    site: str
    eligible: bool
    #: would `submit()` admit here right now? (the FFD admission verdict)
    admits_now: bool
    #: could a joint repack fit it? None = solver not consulted
    solver_fits: Optional[bool]
    pool_hosts: int
    #: hosts committed to admitted worst cases before / after the candidate
    hosts_before: int
    hosts_after: Optional[int]
    explanation: Optional[Explanation] = None

    @property
    def fits(self) -> bool:
        return self.admits_now or bool(self.solver_fits)

    @property
    def committed_cost(self) -> Optional[int]:
        """Extra hosts the candidate's worst case commits on this site."""
        if self.hosts_after is None:
            return None
        return self.hosts_after - self.hosts_before


@dataclass(frozen=True)
class WhatIfReport:
    """The federation-wide answer, site by site."""

    service_name: str
    tenant: Optional[str]
    verdicts: tuple
    #: the site ``submit()`` would choose right now (None: would not admit)
    chosen: Optional[str]
    #: a site only the exact solver fits it on (None if admits_now exists)
    solver_only: Optional[str]
    explanation: Optional[Explanation] = None

    @property
    def fits(self) -> bool:
        return self.chosen is not None or self.solver_only is not None

    def render(self) -> str:
        lines = [f"what-if: {self.service_name}"
                 + (f" (tenant {self.tenant})" if self.tenant else "")]
        for v in self.verdicts:
            if not v.eligible:
                status = "ineligible"
            elif v.admits_now:
                status = (f"admits now (cost {v.committed_cost} host(s), "
                          f"{v.hosts_after}/{v.pool_hosts} committed)")
            elif v.solver_fits:
                status = "solver fit only (FFD admission would refuse)"
            else:
                status = "no fit"
                if v.explanation is not None:
                    status += f" — {v.explanation.render()}"
            lines.append(f"  {v.site}: {status}")
        if self.chosen is not None:
            lines.append(f"  => would admit on {self.chosen}")
        elif self.solver_only is not None:
            lines.append(f"  => joint repack fits on {self.solver_only} "
                         f"(greedy admission would refuse)")
        else:
            lines.append("  => would not admit"
                         + (f" — {self.explanation.render()}"
                            if self.explanation is not None else ""))
        return "\n".join(lines)


def what_if(plane, manifest, *, tenant: Optional[str] = None,
            exact: bool = True) -> WhatIfReport:
    """Probe every federation member without mutating any of them.

    ``tenant`` (optional) adds the quota screens ``submit()`` would apply;
    ``exact=False`` skips the solver second opinion on FFD refusals.
    """
    quota_explanation: Optional[Explanation] = None
    if tenant is not None:
        owner = plane.tenants.get(tenant)
        if owner is None:
            raise KeyError(f"unknown tenant {tenant!r}")
        envelope = demand_envelope(manifest)
        if not owner.quota.admits_alone(envelope):
            quota_explanation = Explanation(
                PruneCode.QUOTA,
                "worst case exceeds the tenant quota outright",
                {"tenant": tenant})
        elif owner.quota.violation(owner.usage, envelope) is not None:
            quota_explanation = Explanation(
                PruneCode.QUOTA,
                "worst case exceeds the tenant quota at current usage",
                {"tenant": tenant})

    verdicts = []
    for site in plane.sites:
        eligible = plane._eligible(site, manifest)
        admission = site.admission
        hosts_before = admission.committed_plan.hosts_for_ceiling
        if not eligible:
            verdicts.append(SiteVerdict(
                site=site.name, eligible=False, admits_now=False,
                solver_fits=None, pool_hosts=admission.pool_hosts,
                hosts_before=hosts_before, hosts_after=None,
                explanation=Explanation(
                    PruneCode.SITE,
                    f"site {site.name!r} is excluded by the manifest's "
                    f"placement section")))
            continue
        try:
            hosts_after = admission.probe(manifest)
        except Exception as exc:   # instance exceeds this site's host type
            verdicts.append(SiteVerdict(
                site=site.name, eligible=True, admits_now=False,
                solver_fits=False, pool_hosts=admission.pool_hosts,
                hosts_before=hosts_before, hosts_after=None,
                explanation=Explanation(
                    PruneCode.CAPACITY, str(exc))))
            continue
        admits_now = hosts_after <= admission.pool_hosts
        solver_fits: Optional[bool] = None
        explanation: Optional[Explanation] = None
        if not admits_now and exact:
            result = solve(encode_admission(admission, manifest))
            solver_fits = isinstance(result, Solution)
            if not solver_fits:
                explanation = result.explanation
        elif not admits_now:
            explanation = Explanation(
                PruneCode.CAPACITY,
                f"worst case needs {hosts_after} host(s) on a "
                f"{admission.pool_hosts}-host pool")
        verdicts.append(SiteVerdict(
            site=site.name, eligible=True, admits_now=admits_now,
            solver_fits=solver_fits, pool_hosts=admission.pool_hosts,
            hosts_before=hosts_before, hosts_after=hosts_after,
            explanation=explanation))

    chosen = solver_only = None
    if quota_explanation is None:
        # Replicate _best_site's ranking so "chosen" is the site submit()
        # would actually pick this instant.
        ranked = sorted(
            (plane._preference(site, manifest), -site.headroom, index)
            for index, site in enumerate(plane.sites)
            if verdicts[index].eligible
        )
        by_index = {index: v for index, v in enumerate(verdicts)}
        for _pref, _headroom, index in ranked:
            if by_index[index].admits_now:
                chosen = by_index[index].site
                break
        if chosen is None:
            for _pref, _headroom, index in ranked:
                if by_index[index].solver_fits:
                    solver_only = by_index[index].site
                    break

    explanation = quota_explanation
    if explanation is None and chosen is None and solver_only is None:
        candidates = [v.explanation for v in verdicts
                      if v.explanation is not None]
        explanation = candidates[0] if candidates else Explanation(
            PruneCode.SITE, "the federation has no sites")
    return WhatIfReport(
        service_name=manifest.service_name, tenant=tenant,
        verdicts=tuple(verdicts), chosen=chosen, solver_only=solver_only,
        explanation=explanation)
