"""Text and JSON serialization for hypergraphs and set families.

Hypergraph text format::

    # optional comment lines anywhere
    n r
    v1 v2 ... vr        (one edge per line, strictly increasing vertices)

Set-family text format is the same with a single-integer header ``n`` and
member lines of arbitrary (positive, possibly mixed) lengths.

JSON formats::

    {"n": ..., "r": ..., "edges": [[...], ...]}
    {"n": ..., "members": [[...], ...]}

Members and edges are emitted sorted by mask value, the package's
canonical storage order.  Parsing is strict: bad headers, out-of-range
or repeated vertices, non-increasing lines, wrong edge sizes and
duplicate lines are all reported with their line number.
"""

from __future__ import annotations

import json
from typing import Any

from .hypergraph import Hypergraph, SetFamily, _need

__all__ = [
    "ParseError",
    "parse_hypergraph",
    "parse_set_family",
    "serialize_hypergraph",
    "serialize_set_family",
    "hypergraph_to_json",
    "hypergraph_from_json",
    "set_family_to_json",
    "set_family_from_json",
]


class ParseError(ValueError):
    """Malformed input; carries the 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            out.append((lineno, stripped))
    return out


def _parse_ints(lineno: int, line: str) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError:
        raise ParseError(lineno, f"expected integers, got {line!r}") from None


def _read_family(text: str, fields: str) -> tuple[list[int], set[int]]:
    """The header values and the member masks of a text family whose
    header line holds ``fields``: "n r" for a hypergraph, whose members
    then have r vertices each, or "n" for a set family."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError(1, f"missing header line {fields!r}")
    lineno, header = lines[0]
    hdr = _parse_ints(lineno, header)
    names = fields.split()
    if len(hdr) != len(names):
        raise ParseError(lineno, f"header must be {fields!r}, got {header!r}")
    if min(hdr) < 0:
        got = " ".join(f"{k}={v}" for k, v in zip(names, hdr))
        raise ParseError(lineno, f"header values must be nonnegative, got {got}")
    n, r = hdr[0], hdr[1] if len(hdr) > 1 else None
    masks: set[int] = set()
    for lineno, line in lines[1:]:
        # _content_lines keeps only lines with a token, so vs is nonempty
        vs = _parse_ints(lineno, line)
        m = prev = 0
        for v in vs:
            if not 1 <= v <= n:
                raise ParseError(lineno, f"vertex {v} out of range [1, {n}]")
            if v <= prev:
                raise ParseError(lineno, "vertices must be strictly increasing")
            m |= 1 << (v - 1)
            prev = v
        if r is not None and len(vs) != r:
            raise ParseError(lineno, f"edge has {len(vs)} vertices, expected {r}")
        if m in masks:
            raise ParseError(lineno, "duplicate member" if r is None else "duplicate edge")
        masks.add(m)
    return hdr, masks


def parse_hypergraph(text: str) -> Hypergraph:
    (n, r), masks = _read_family(text, "n r")
    return Hypergraph.from_masks(n, r, masks)


def parse_set_family(text: str) -> SetFamily:
    (n,), masks = _read_family(text, "n")
    return SetFamily.from_masks(n, masks)


def _write_family(header: str, sets: list[tuple[int, ...]], kind: str, to_json: str) -> str:
    """The header line, then one line per member.  Raises ValueError on
    the empty member, whose blank line the reader would skip; ``kind``
    ("edge" or "member") and the JSON writer ``to_json`` name it."""
    if () in sets:
        raise ValueError(f"the text format cannot hold the empty {kind}; use {to_json}")
    lines = [header]
    lines.extend(" ".join(map(str, vs)) for vs in sets)
    return "\n".join(lines) + "\n"


def serialize_hypergraph(h: Hypergraph) -> str:
    _need(h, Hypergraph, "h")
    return _write_family(f"{h.n} {h.r}", h.vertex_sets(), "edge", "hypergraph_to_json")


def serialize_set_family(f: SetFamily) -> str:
    _need(f, SetFamily, "f")
    return _write_family(str(f.n), f.vertex_sets(), "member", "set_family_to_json")


def _integer(value: Any, field: str) -> int:
    """value, once it is an int and not a bool; else a ValueError naming the field."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _list(value: Any, field: str) -> list[Any]:
    """value, once it is a list; else a ValueError naming the field."""
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a list, got {value!r}")
    return value


def _json_family(data: Any, header: tuple[str, ...], key: str) -> tuple[list[int], list[list[int]]]:
    """The integer header values and vertex lists of a JSON family (data,
    or the JSON text data decoded); the family contract checks the rest."""
    if isinstance(data, str):
        data = json.loads(data)
    keys = (*header, key)
    if not isinstance(data, dict) or not set(keys) <= set(data):
        raise ValueError("expected an object with keys " + ", ".join(map(repr, keys)))
    sets = [[_integer(v, f"a vertex of {key!r}") for v in _list(vs, f"an entry of {key!r}")]
            for vs in _list(data[key], repr(key))]
    return [_integer(data[f], repr(f)) for f in header], sets


def hypergraph_to_json(h: Hypergraph) -> dict[str, Any]:
    _need(h, Hypergraph, "h")
    return {"n": h.n, "r": h.r, "edges": [list(vs) for vs in h.vertex_sets()]}


def hypergraph_from_json(data: Any) -> Hypergraph:
    (n, r), edges = _json_family(data, ("n", "r"), "edges")
    return Hypergraph.from_vertex_sets(n, r, edges)


def set_family_to_json(f: SetFamily) -> dict[str, Any]:
    _need(f, SetFamily, "f")
    return {"n": f.n, "members": [list(vs) for vs in f.vertex_sets()]}


def set_family_from_json(data: Any) -> SetFamily:
    (n,), members = _json_family(data, ("n",), "members")
    return SetFamily.from_vertex_sets(n, members)
