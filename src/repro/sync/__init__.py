"""Barrier synchronization models (paper Section 3.3)."""
