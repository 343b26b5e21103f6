"""Benchmark harness for the ALBADross reproduction (see ../README.md)."""
