"""Text and JSON round-trips plus parse diagnostics."""

from __future__ import annotations

import json

import pytest

from ifam.hypergraph import Hypergraph, SetFamily
from ifam.io import (
    ParseError,
    hypergraph_from_json,
    hypergraph_to_json,
    parse_hypergraph,
    parse_set_family,
    serialize_hypergraph,
    serialize_set_family,
    set_family_from_json,
    set_family_to_json,
)


def test_parse_basic():
    h = parse_hypergraph("5 3\n1 2 3\n1 4 5\n")
    assert h == Hypergraph.from_vertex_sets(5, 3, [(1, 2, 3), (1, 4, 5)])


def test_parse_comments_and_blanks():
    text = """
    # a three-edge family
    6 3

    1 2 3   # inline note
    2 3 4
    # trailing comment
    4 5 6
    """
    h = parse_hypergraph(text)
    assert len(h) == 3 and h.n == 6


def test_roundtrip_hypergraph():
    h = Hypergraph.from_vertex_sets(7, 3, [(1, 2, 7), (3, 5, 6), (1, 3, 4)])
    assert parse_hypergraph(serialize_hypergraph(h)) == h


def test_roundtrip_set_family():
    f = SetFamily.from_vertex_sets(6, [(1,), (2, 3), (4, 5, 6)])
    assert parse_set_family(serialize_set_family(f)) == f


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_hypergraph("5 3\n1 2\n")
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_hypergraph("bad header\n")
    assert e.value.line == 1
    with pytest.raises(ParseError) as e:
        parse_hypergraph("5 3\n1 2 3\n1 2 6\n")
    assert e.value.line == 3
    with pytest.raises(ParseError) as e:
        parse_hypergraph("5 3\n1 2 3\n3 2 1\n")  # not increasing
    assert e.value.line == 3
    with pytest.raises(ParseError) as e:
        parse_hypergraph("5 3\n1 2 3\n1 2 3\n")  # duplicate edge
    assert e.value.line == 3
    with pytest.raises(ParseError):
        parse_hypergraph("")


def test_parse_set_family_header_is_single_int():
    f = parse_set_family("4\n1\n1 2 3\n")
    assert f.n == 4 and len(f) == 2
    with pytest.raises(ParseError):
        parse_set_family("4 2\n1 2\n")


@pytest.mark.parametrize(
    "parse, text, line, message",
    [
        (parse_hypergraph, "", 1, "missing header line 'n r'"),
        (parse_set_family, "# only a comment\n\n", 1, "missing header line 'n'"),
        (parse_hypergraph, "\n# header next\nbad header\n", 3,
         "expected integers, got 'bad header'"),
        (parse_hypergraph, "5\n", 1, "header must be 'n r', got '5'"),
        (parse_set_family, "5 3\n", 1, "header must be 'n', got '5 3'"),
        (parse_hypergraph, "5 -3\n", 1, "header values must be nonnegative, got n=5 r=-3"),
        (parse_hypergraph, "-5 3\n", 1, "header values must be nonnegative, got n=-5 r=3"),
        (parse_set_family, "-1\n", 1, "header values must be nonnegative, got n=-1"),
        (parse_set_family, "5\n1 x\n", 2, "expected integers, got '1 x'"),
        (parse_hypergraph, "5 3\n1 2 3\n0 1 2\n", 3, "vertex 0 out of range [1, 5]"),
        (parse_set_family, "5\n1\n\n2 6\n", 4, "vertex 6 out of range [1, 5]"),
        # vertex by vertex: the order breaks at 2, before 9 leaves the range
        (parse_hypergraph, "5 3\n3 2 9\n", 2, "vertices must be strictly increasing"),
        (parse_set_family, "5\n1 1\n", 2, "vertices must be strictly increasing"),
        (parse_hypergraph, "5 3\n1 2 3 4\n", 2, "edge has 4 vertices, expected 3"),
        (parse_hypergraph, "5 3\n1 2 3\n# again\n1 2 3\n", 4, "duplicate edge"),
        (parse_set_family, "5\n1 2\n1\n1 2  # again\n", 4, "duplicate member"),
    ],
)
def test_reader_refusals_name_their_line(parse, text, line, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


def test_writers_emit_the_header_then_one_line_per_member_in_mask_order():
    h = Hypergraph.from_vertex_sets(5, 3, [(1, 4, 5), (1, 2, 3)])
    assert serialize_hypergraph(h) == "5 3\n1 2 3\n1 4 5\n"
    assert serialize_hypergraph(Hypergraph(4, 2, ())) == "4 2\n"
    f = SetFamily.from_vertex_sets(5, [(3,), (1, 2)])
    assert serialize_set_family(f) == "5\n1 2\n3\n"
    assert serialize_set_family(SetFamily(0, ())) == "0\n"


def test_set_family_writer_refuses_the_empty_member_that_only_json_keeps():
    f = SetFamily(3, (0, 1))
    with pytest.raises(ValueError) as exc:
        serialize_set_family(f)
    assert str(exc.value) == (
        "the text format cannot hold the empty member; use set_family_to_json"
    )
    assert set_family_from_json(set_family_to_json(f)) == f


def test_hypergraph_writer_refuses_the_empty_edge_that_only_json_keeps():
    # a 0-uniform hypergraph's one edge is empty: its text line would be
    # blank, and the reader would drop it
    h = Hypergraph(3, 0, (0,))
    with pytest.raises(ValueError) as exc:
        serialize_hypergraph(h)
    assert str(exc.value) == (
        "the text format cannot hold the empty edge; use hypergraph_to_json"
    )
    assert hypergraph_to_json(h) == {"n": 3, "r": 0, "edges": [[]]}
    assert hypergraph_from_json(hypergraph_to_json(h)) == h
    assert serialize_hypergraph(Hypergraph(3, 0, ())) == "3 0\n"


@pytest.mark.parametrize("data", ["[]", "3", [1, 2], None, {"n": 3, "r": 2}, '{"n": 3}'])
def test_json_readers_refuse_anything_but_an_object_with_their_keys(data):
    with pytest.raises(ValueError) as exc:
        hypergraph_from_json(data)
    assert str(exc.value) == "expected an object with keys 'n', 'r', 'edges'"
    with pytest.raises(ValueError) as exc:
        set_family_from_json(data)
    assert str(exc.value) == "expected an object with keys 'n', 'members'"


def test_json_readers_hand_the_family_to_its_contract():
    assert hypergraph_from_json('{"n": 4, "r": 2, "edges": [[3, 4], [1, 2], [1, 2]]}') == (
        Hypergraph.from_vertex_sets(4, 2, [(1, 2), (3, 4)])
    )
    with pytest.raises(ValueError, match="has size 1, expected 2"):
        hypergraph_from_json({"n": 4, "r": 2, "edges": [[1]]})
    with pytest.raises(ValueError, match="leaves the ground set"):
        set_family_from_json({"n": 2, "members": [[3]]})


@pytest.mark.parametrize("field, value, message", [
    ("n", 5.7, "'n' must be an integer, got 5.7"),
    ("n", True, "'n' must be an integer, got True"),
    ("n", "6", "'n' must be an integer, got '6'"),
    ("r", 3.0, "'r' must be an integer, got 3.0"),
    ("r", False, "'r' must be an integer, got False"),
    ("vertex", 1.0, "a vertex of {key!r} must be an integer, got 1.0"),
    ("vertex", "1", "a vertex of {key!r} must be an integer, got '1'"),
    ("vertex", True, "a vertex of {key!r} must be an integer, got True"),
])
def test_json_readers_refuse_a_non_integer_field(field, value, message):
    readers = [(hypergraph_from_json, {"n": 5, "r": 3}, "edges"),
               (set_family_from_json, {"n": 5}, "members")]
    for reader, header, key in readers:
        if field not in (*header, "vertex"):
            continue
        doc = {**header, key: [[1, 2, 3], [2, 3, 4]]}
        if field == "vertex":
            doc[key][1][0] = value
        else:
            doc[field] = value
        for data in (doc, json.dumps(doc)):
            with pytest.raises(ValueError) as exc:
                reader(data)
            assert str(exc.value) == message.format(key=key)


@pytest.mark.parametrize("sets, message", [
    ([5], "an entry of {key!r} must be a list, got 5"),
    ([[1, 2, 3], 4], "an entry of {key!r} must be a list, got 4"),
    ([[1, 2, 3], "234"], "an entry of {key!r} must be a list, got '234'"),
    ([[1, 2, 3], {"2": 3}], "an entry of {key!r} must be a list, got {{'2': 3}}"),
    (5, "{key!r} must be a list, got 5"),
    ("[[1, 2, 3]]", "{key!r} must be a list, got '[[1, 2, 3]]'"),
    (None, "{key!r} must be a list, got None"),
    ({"1": [1, 2, 3]}, "{key!r} must be a list, got {{'1': [1, 2, 3]}}"),
])
def test_json_readers_refuse_a_family_or_member_that_is_no_list(sets, message):
    for reader, header, key in [(hypergraph_from_json, {"n": 5, "r": 3}, "edges"),
                                (set_family_from_json, {"n": 5}, "members")]:
        doc = {**header, key: sets}
        for data in (doc, json.dumps(doc)):
            with pytest.raises(ValueError) as exc:
                reader(data)
            assert str(exc.value) == message.format(key=key)


def test_json_roundtrips():
    h = Hypergraph.from_vertex_sets(6, 3, [(1, 2, 3), (4, 5, 6)])
    blob = hypergraph_to_json(h)
    assert hypergraph_from_json(blob) == h
    f = SetFamily.from_vertex_sets(5, [(1, 2), (3,)])
    assert set_family_from_json(set_family_to_json(f)) == f


def test_serialized_text_is_sorted_and_parseable():
    h = Hypergraph.from_vertex_sets(9, 3, [(7, 8, 9), (1, 2, 3)])
    text = serialize_hypergraph(h)
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert lines[0].split() == ["9", "3"]
    assert lines[1] == "1 2 3"
