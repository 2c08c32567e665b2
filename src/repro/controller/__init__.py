"""Centralized controller: stats aggregation, adaptivity, experiment harness."""
