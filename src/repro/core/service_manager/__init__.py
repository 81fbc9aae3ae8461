"""The Service Manager (§5.1): manifest parser, lifecycle manager, rule
engine, accounting and the provider-facing facade."""
