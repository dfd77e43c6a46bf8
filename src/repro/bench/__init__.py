"""Benchmark harness reproducing every figure of the paper's Section 6."""
