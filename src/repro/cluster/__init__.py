"""Simulated distributed cluster: vertex placement + timing cost model."""
