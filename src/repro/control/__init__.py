"""Multi-tenant provisioning control plane (DESIGN.md §11).

The layer the paper leaves implicit between "a Service Provider" and "the
site": a front door that takes manifest submissions from *named tenants*,
runs guaranteed-capacity admission over the federated pool, queues what
does not fit, drains the queue fairly (weighted round-robin with
per-tenant quotas), and drives admitted deployments with retry-with-backoff
instead of the seed's fail-loudly contention.
"""
