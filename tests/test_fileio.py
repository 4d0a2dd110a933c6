import hashlib
import json

import pytest

from qcover import InputFormatError, new_complex
from qcover.families import delta_n, double_fan
from qcover.fileio import (
    complex_digest,
    load_complex,
    parse_facets,
    parse_facets_json,
    to_json,
    to_text,
)


def test_json_round_trip(tmp_path):
    cx = delta_n(3)
    p = tmp_path / "d3.json"
    p.write_text(to_json(cx))
    assert load_complex(p) == cx


def test_text_round_trip(tmp_path):
    cx = double_fan()
    p = tmp_path / "fan.txt"
    p.write_text(to_text(cx))
    assert load_complex(p) == cx


def test_formats_agree():
    cx = double_fan()
    assert new_complex(parse_facets(to_json(cx))) == new_complex(
        parse_facets(to_text(cx))
    )


def test_writer_canonicalizes_input_order():
    a = new_complex([{2, 3}, {1, 2}])
    b = new_complex([{1, 2}, {2, 3}])
    assert to_json(a) == to_json(b)
    assert to_text(a) == to_text(b)
    assert complex_digest(a) == complex_digest(b)


def test_digest_distinguishes_complexes():
    assert complex_digest(delta_n(3)) != complex_digest(double_fan())


def test_text_allows_comments_and_blanks():
    facets = parse_facets("# comment\n1 2\n\n2 3\n")
    assert facets == [[1, 2], [2, 3]]


# a line ends only at \n, \r\n or \r; \v, \f, \x1c-\x1e, \x85, U+2028 and
# U+2029, where str.splitlines would also end one, are whitespace
@pytest.mark.parametrize(
    "text, facets",
    [
        ("1 2\x0c2 3", [[1, 2, 2, 3]]),
        ("1 2\x0b3\n2 3\n", [[1, 2, 3], [2, 3]]),
        ("1\x1c2\x1d3\x1e4", [[1, 2, 3, 4]]),
        ("1 2\x853\u20284\u20295", [[1, 2, 3, 4, 5]]),
        ("1 2\r\n2 3\r3 4\n", [[1, 2], [2, 3], [3, 4]]),
        ("# a comment\x0c1 2\n2 3", [[2, 3]]),
    ],
    ids=["form-feed", "vertical-tab", "separators", "unicode-breaks", "crlf-cr-lf", "comment"],
)
def test_text_lines_end_only_at_newlines(text, facets):
    assert parse_facets(text) == facets


@pytest.mark.parametrize(
    "text, line",
    [("1 2\x0b2 x", 1), ("1 2\u20282 x\n", 1), ("1 2\r\n\r\n2 x", 3), ("1\r2\rx", 3)],
    ids=["vertical-tab", "line-separator", "crlf", "cr"],
)
def test_text_errors_name_the_line_an_editor_shows(text, line):
    with pytest.raises(InputFormatError, match=f"^line {line}: 'x' cannot be read"):
        parse_facets(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "{not json",
        '{"facets": "nope"}',
        '{"no_facets": []}',
        '{"facets": [[1, "x"]]}',
        "1 2\n2 x\n",
    ],
)
def test_parse_diagnostics(text):
    with pytest.raises(InputFormatError):
        parse_facets(text)


def test_json_facet_that_is_not_a_list():
    with pytest.raises(InputFormatError, match=r'^"facets"\[1\] is not a list$'):
        parse_facets_json('{"facets": [[1, 2], 3]}')


def test_digest_without_builtin_sha256_falls_back_to_hashlib(
    fresh_python, small_complex_corpus
):
    """Hiding the builtin SHA-256 modules selects hashlib's, with equal digests."""
    facets = [[sorted(f) for f in cx.facets] for cx in small_complex_corpus]
    probe = (
        "import hashlib, json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from qcover import fileio, new_complex\n"
        "assert fileio.sha256 is hashlib.sha256\n"
        "for f in json.load(sys.stdin): print(fileio.complex_digest(new_complex(f)))\n"
    )
    out = fresh_python(["-c", probe], input=json.dumps(facets), check=True).stdout
    digests = [complex_digest(cx) for cx in small_complex_corpus]
    assert out.split() == digests
    first = to_json(small_complex_corpus[0]).encode()
    assert digests[0] == hashlib.sha256(first).hexdigest()
