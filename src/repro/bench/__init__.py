"""Experiment harness: runners, figure definitions, report printing."""

from repro import _lazy_surface

__getattr__, __dir__ = _lazy_surface(__name__, {".result": ("RunResult", "collect")})

__all__ = ["RunResult", "collect"]
