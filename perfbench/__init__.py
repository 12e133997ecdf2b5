"""Benchmark of the sifb package; entry point: perfbench/run.py."""
