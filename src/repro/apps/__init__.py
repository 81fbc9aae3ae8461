"""Example application models exercising the manifest language's features."""
