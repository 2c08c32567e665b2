"""Synthetic OSM-like road networks (substrate for the paper's BW/GY graphs)."""
