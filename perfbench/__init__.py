"""End-to-end and per-layer benchmark of the index engine (see README.md)."""
