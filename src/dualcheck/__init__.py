"""Exact diagnostics for generalized interior-point and closedness-type
regularity conditions in convex duality."""

__version__ = "0.1.0"
