"""Tests of the benchmark driver itself (not benchmarks: nothing here
uses the ``benchmark`` fixture, so ``pytest benchmarks/ --benchmark-only``
skips them).  Run with ``python -m pytest benchmarks/perf/tests``."""

import os
import sys

PERF_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if PERF_DIR not in sys.path:
    sys.path.insert(0, PERF_DIR)
