"""End-user applications built on the platform (the paper's use case)."""

from .reputation import ReputationManager

__all__ = [
    "ReputationManager",
]
