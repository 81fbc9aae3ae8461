"""repro — reproduction of "Software architecture definition for on-demand
cloud provisioning" (Chapman, Emmerich, Galán Márquez, Clayman, Galis;
HPDC 2010 / Cluster Computing 15:79–100, 2012).

Package map
-----------
``repro.core``
    The paper's contribution: the OVF-based service manifest language
    (abstract syntax, well-formedness rules, XML concrete syntax), its
    behavioural semantics as OCL-style constraints, the generated validation
    instruments, and the Service Manager (parser, lifecycle manager, rule
    engine, accounting).
``repro.cloud``
    The simulated RESERVOIR infrastructure layers: VEEH hosts, VEEM,
    placement policies/constraints, images, virtual networks, federation.
``repro.control``
    The multi-tenant provisioning control plane: named tenants with quotas,
    fair admission queueing, backpressure, federated site selection.
``repro.monitoring``
    The monitoring framework: probes and data dictionaries, XDR wire codec,
    multicast / pub-sub distribution, DHT-backed information model, agents.
``repro.grid``
    The evaluation application substrate: Condor-like scheduler and
    execution services, BPEL-style workflow engine, polymorph-search
    workload.
``repro.apps``
    The SAP motivating-example application model.
``repro.experiments``
    The §6 evaluation harness: Table 3, Fig. 11 and the weekly estimate.
``repro.sim``
    The discrete-event simulation kernel everything runs on.

Importing ``repro`` loads none of these: import each name from the module
that defines it, so a process loads only what it runs (DESIGN §3).

Quickstart
----------
>>> from repro.sim import Environment
>>> from repro.cloud import Host, ImageRepository, VEEM
>>> from repro.core.manifest import ManifestBuilder
>>> from repro.core.service_manager import ServiceManager
>>> env = Environment()
>>> veem = VEEM(env, repository=ImageRepository())
>>> _ = veem.add_host(Host(env, "h0"))
>>> sm = ServiceManager(env, veem)
>>> manifest = (ManifestBuilder("hello")
...             .component("web", image_mb=512).build())
>>> service = sm.deploy(manifest)
>>> env.run(until=service.deployment)
>>> service.instance_count("web")
1
"""

__version__ = "1.0.0"
