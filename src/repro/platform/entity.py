"""Backward-compatible re-export of the entity model.

The :class:`Entity`/:class:`Annotation` types moved to
:mod:`repro.core.entity` so the miners (``repro.miners``) can
depend on them without importing the platform layer — preserving the
``lexicons/nlp → core/miners → platform → cli`` import DAG enforced by
``repro lint``.  The platform keeps this module as its public path for
the types (the data store, indexer and ingestion code all say
``platform.entity``), which is a *downward* import and therefore legal.
"""

from __future__ import annotations

from ..core.entity import Annotation, Entity

__all__ = ["Annotation", "Entity"]
