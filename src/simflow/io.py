"""Complex documents: a single JSON object with a required "facets" key
(array of arrays of nonnegative ints) and optional "name"/"metadata".

Vertex ids may be arbitrary nonnegative integers; they are relabeled
densely on ingest and the map is echoed back in metadata on serialize, so
parse -> serialize is canonicalizing and stable.
"""

import json
from dataclasses import dataclass, field

from .complexes import SimplicialComplex, build_complex
from .errors import ParseError, SimflowError


@dataclass
class ComplexDocument:
    facets: list
    name: str = None
    metadata: dict = field(default_factory=dict)


def parse_document(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("document must be a JSON object")
    if "facets" not in obj:
        raise ParseError('document is missing the required "facets" key')
    facets = obj["facets"]
    if not isinstance(facets, list) or not all(
        isinstance(f, list)
        and all(isinstance(v, int) and not isinstance(v, bool) for v in f)
        for f in facets
    ):
        raise ParseError('"facets" must be an array of arrays of integers')
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError('"name" must be a string')
    metadata = obj.get("metadata")
    if metadata is None:
        metadata = {}
    elif not isinstance(metadata, dict):
        raise ParseError('"metadata" must be an object')
    return ComplexDocument(facets=facets, name=name, metadata=metadata)


def parse_complex(text):
    """Parse a document and build the canonical complex."""
    doc = parse_document(text)
    return build_complex(doc.facets)


def serialize_complex(delta, name=None, metadata=None):
    """Canonical document for a complex, vertex map echoed in metadata."""
    if not isinstance(delta, SimplicialComplex):
        raise SimflowError("serialize_complex expects a SimplicialComplex")
    meta = dict(metadata or {})
    if any(k != v for k, v in delta.vertex_map.items()):
        meta["vertex_map"] = {str(k): v for k, v in sorted(delta.vertex_map.items())}
    doc = {"facets": [list(f) for f in delta.facets]}
    if name:
        doc["name"] = name
    if meta:
        doc["metadata"] = meta
    return json.dumps(doc, indent=None, separators=(",", ":"), sort_keys=True)
