"""CGA workload generation (hotspot SSSP / POI queries, Section 4.1)."""
