"""Shared complex file formats, canonical serialization, and digests.

Two interchangeable input formats:

* JSON: ``{"facets": [[1,2,3],[2,4], ...]}`` with 1-based vertex labels,
* text: one facet per line, vertices whitespace-separated; blank lines and
  ``#`` comment lines are ignored.  Lines end only at ``\n``, ``\r\n`` and
  ``\r``; other line-breaking characters, such as ``\f``, ``\v``, ``\x85``
  and U+2028, separate labels like any whitespace.

Writers emit facets in canonical order, so parse -> write round-trips any
equivalent input to identical bytes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Union

from .complexes import SimplicialComplex, new_complex
from .errors import InputFormatError, echo, parse_int

try:  # the builtin SHA-256 spares loading OpenSSL for one digest per call
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:  # an interpreter built without the builtin hashes
    from hashlib import sha256


def parse_facets_json(text: str) -> list[list[int]]:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise InputFormatError("JSON nesting too deep") from None
    except ValueError as exc:  # a decode error, or an integer too long to convert
        raise InputFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "facets" not in doc:
        raise InputFormatError('JSON input must be an object with a "facets" key')
    facets = doc["facets"]
    if not isinstance(facets, list):
        raise InputFormatError('"facets" must be a list of vertex lists')
    for idx, f in enumerate(facets):
        if not isinstance(f, list):
            raise InputFormatError(f'"facets"[{idx}] is not a list')
        for v in f:
            if v.__class__ is int:
                continue
            if not isinstance(v, int) or isinstance(v, bool):
                raise InputFormatError(
                    f'"facets"[{idx}] contains {echo(v)}; labels must be integers'
                )
    return facets


def parse_facets_text(text: str) -> list[list[int]]:
    out = []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        row = []
        for tok in stripped.split():
            try:
                row.append(parse_int(tok))
            except ValueError:  # a bad token, or past the int-to-str digit limit
                raise InputFormatError(
                    f"line {lineno}: {echo(tok)} cannot be read as an integer vertex "
                    "label"
                ) from None
        out.append(row)
    return out


def parse_facets(text: str) -> list[list[int]]:
    """Sniff the format: JSON when the first character is '{', text otherwise."""
    stripped = text.lstrip()
    if not stripped:
        raise InputFormatError("empty input")
    if stripped.startswith("{"):
        return parse_facets_json(text)
    return parse_facets_text(text)


def load_complex(path: Union[str, Path]) -> SimplicialComplex:
    text = Path(path).read_text(encoding="utf-8")
    return new_complex(parse_facets(text))


def to_json(cx: SimplicialComplex) -> str:
    return json.dumps({"facets": cx.rows}, separators=(",", ":")) + "\n"


def to_text(cx: SimplicialComplex) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in cx.rows)


def complex_digest(cx: SimplicialComplex) -> str:
    """SHA-256 of the canonical JSON form; stable across input orderings."""
    return sha256(to_json(cx).encode("utf-8")).hexdigest()
