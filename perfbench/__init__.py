"""Steady, layer-attributed benchmark of the repro runtime (see README.md)."""
