"""Entities: WebFountain's unit of stored information.

"The WebFountain data store component manages entities that are
represented in XML.  An entity is a referenceable unit of information such
as a Web page.  The data store stores, modifies, and retrieves entities."

An entity carries immutable raw content plus typed, append-only
*annotation layers*.  Miners never mutate the content; they "augment
processed entities with the results" by attaching annotations — the
sentiment miner stores each judged subject spot and its polarity, which
the indexer serves as conceptual tokens.

This module lives in :mod:`repro.core` (not :mod:`repro.platform`) because
entities are the shared vocabulary between the miners and the
platform: miners annotate entities, the platform stores and routes them.
Keeping the type here preserves the import layering
``lexicons/nlp → core/miners → platform → cli`` that ``repro lint``
enforces.  :mod:`repro.platform.entity` re-exports these names for
backward compatibility.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from ..nlp.tokens import Span


@dataclass(frozen=True)
class Annotation:
    """One typed annotation over a span of the entity's content.

    ``layer`` groups annotations ("spot", "sentiment", ...); ``label`` is
    the annotation's value within its layer (a subject name, a polarity
    symbol); ``attributes`` carries layer-specific extras (kept
    JSON-serialisable).
    """

    layer: str
    span: Span
    label: str = ""
    attributes: tuple[tuple[str, Any], ...] = ()

    def attribute(self, key: str, default: Any = None) -> Any:
        for name, value in self.attributes:
            if name == key:
                return value
        return default

    @classmethod
    def make(cls, layer: str, start: int, end: int, label: str = "", **attributes: Any) -> "Annotation":
        return cls(
            layer=layer,
            span=Span(start, end),
            label=label,
            attributes=tuple(sorted(attributes.items())),
        )


@dataclass
class Entity:
    """A referenceable unit of information (e.g. one web page).

    ``entity_id`` is globally unique; ``source`` names the ingestion
    channel ("webcrawl", "newsfeed", "bboard", "customer"); ``metadata``
    is free-form document metadata (URL, fetch date, language, ...).
    """

    entity_id: str
    content: str
    source: str = "webcrawl"
    metadata: dict[str, Any] = field(default_factory=dict)
    _annotations: dict[str, list[Annotation]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.entity_id:
            raise ValueError("entity_id must be non-empty")

    # -- annotations -------------------------------------------------------------

    def annotate(self, annotation: Annotation) -> None:
        """Attach one annotation (append-only)."""
        if annotation.span.end > len(self.content):
            raise ValueError(
                f"annotation span {annotation.span} exceeds content length {len(self.content)}"
            )
        self._annotations.setdefault(annotation.layer, []).append(annotation)

    def layer(self, name: str) -> list[Annotation]:
        """All annotations in a layer, in insertion order."""
        return list(self._annotations.get(name, ()))

    def layers(self) -> list[str]:
        return sorted(self._annotations)

    def has_layer(self, name: str) -> bool:
        return bool(self._annotations.get(name))

    def clear_layer(self, name: str) -> None:
        """Drop a layer (used when a miner re-runs)."""
        self._annotations.pop(name, None)

    def text_of(self, annotation: Annotation) -> str:
        return annotation.span.text_of(self.content)

    # -- serialisation -----------------------------------------------------------

    def to_record(self) -> dict[str, Any]:
        """JSON-serialisable record (the store's segment format)."""
        return {
            "entity_id": self.entity_id,
            "content": self.content,
            "source": self.source,
            "metadata": self.metadata,
            "annotations": {
                layer: [
                    {
                        "start": a.span.start,
                        "end": a.span.end,
                        "label": a.label,
                        "attributes": dict(a.attributes),
                    }
                    for a in annotations
                ]
                for layer, annotations in self._annotations.items()
            },
        }

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "Entity":
        entity = cls(
            entity_id=record["entity_id"],
            content=record["content"],
            source=record.get("source", "webcrawl"),
            metadata=dict(record.get("metadata", {})),
        )
        for layer, annotations in record.get("annotations", {}).items():
            for a in annotations:
                entity.annotate(
                    Annotation.make(layer, a["start"], a["end"], a.get("label", ""), **a.get("attributes", {}))
                )
        return entity

    def to_json(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Entity":
        return cls.from_record(json.loads(text))

    def to_xml(self) -> str:
        """A minimal XML rendering, honouring the paper's representation."""
        meta = "".join(
            f'  <meta name="{key}">{value}</meta>\n' for key, value in sorted(self.metadata.items())
        )
        return (
            f'<entity id="{self.entity_id}" source="{self.source}">\n'
            + meta
            + f"  <content>{_xml_escape(self.content)}</content>\n"
            + "</entity>"
        )


def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
