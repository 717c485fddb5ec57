"""cantorkit's benchmark; run perfbench/run.py from the repository root."""
