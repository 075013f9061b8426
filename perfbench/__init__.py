"""Request-level benchmark for dppmap; run it with ``python3 perfbench/run.py``."""
