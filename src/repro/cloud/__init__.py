"""Virtual-infrastructure substrate: VEEH hosts, VEEM manager, federation.

The bottom two layers of the RESERVOIR architecture (Fig. 1 of the paper),
simulated: hosts with hypervisor latencies and image caches
(:mod:`~repro.cloud.veeh`), VM lifecycle (:mod:`~repro.cloud.vm`), images
(:mod:`~repro.cloud.images`), virtual networks (:mod:`~repro.cloud.network`),
placement policies and constraints (:mod:`~repro.cloud.placement`), the VEEM
(:mod:`~repro.cloud.veem`) and cross-site federation
(:mod:`~repro.cloud.federation`).
"""
