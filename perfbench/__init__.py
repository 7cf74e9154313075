"""Seeded benchmark for torsionkit; see README.md."""
