import hashlib
import json

import pytest

from qcover import InputFormatError, new_complex
from qcover.families import delta_n, double_fan
from qcover.fileio import (
    complex_digest,
    load_complex,
    parse_facets,
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
