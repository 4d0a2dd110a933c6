"""Exit codes and report payloads are the CLI's machine contract."""

import json
import os
import re
import subprocess
from pathlib import Path

import pytest

from qcover import new_complex
from qcover.cli import main
from qcover.errors import echo
from qcover.families import delta_n, double_fan
from qcover.fileio import complex_digest, load_complex, to_json, to_text
from qcover.gradedness import CrossValidation, is_standard_graded


@pytest.fixture()
def delta3_file(tmp_path):
    p = tmp_path / "d3.json"
    p.write_text(to_json(delta_n(3)))
    return str(p)


@pytest.fixture()
def fan_file(tmp_path):
    p = tmp_path / "fan.txt"
    p.write_text(to_text(double_fan()))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def report(out, command):
    doc = json.loads(out)
    assert doc["tool"] == "qcover"
    assert doc["command"] == command
    assert set(doc) == {
        "tool",
        "version",
        "command",
        "input_digest",
        "result",
        "timing_ms",
    }
    return doc


def test_check_not_standard_graded(capsys, delta3_file):
    code, out = run(capsys, ["check", delta3_file])
    assert code == 10
    doc = report(out, "check")
    verdict = doc["result"]["verdict"]
    assert verdict["standard_graded"] is False
    assert verdict["cycle_witness"]["vertices"] == [1, 2, 3]
    assert verdict["cover_witness"] == {"a": [1, 1, 1, 0, 0, 0], "k": 2}


def test_check_standard_graded(capsys, fan_file):
    code, out = run(capsys, ["check", fan_file])
    assert code == 0
    assert report(out, "check")["result"]["verdict"]["standard_graded"] is True


def test_check_non_quasi_tree(capsys, tmp_path):
    p = tmp_path / "tri.txt"
    p.write_text(to_text(new_complex([{1, 2}, {2, 3}, {1, 3}])))
    code, out = run(capsys, ["check", str(p)])
    assert code == 11
    assert report(out, "check")["result"]["verdict"] is None


def test_check_malformed_input(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"facets": [[1, 2], oops')
    assert main(["check", str(p)]) == 2
    capsys.readouterr()
    for path in (tmp_path / "missing.json", tmp_path):
        assert main(["check", str(path)]) == 2
        capsys.readouterr()


# the facet 1..1000 as a text line, and the head of its quoted list
WIDE_FACET = " ".join(map(str, range(1, 1001))).encode()
WIDE_ECHO = "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15"
# file name -> (bytes, part of the one error line); every case must exit 2
BAD_INPUTS = {
    "deep.json": (
        b'{"facets": ' + b"[" * 1100 + b"]" * 1100 + b"}",
        "JSON nesting too deep",
    ),
    "long.txt": (
        b"1 2\n2 " + b"7" * 5000 + b"\n",
        "line 2: '77777777777777777777'... (5000 characters) cannot be read as an "
        "integer vertex label",
    ),
    "long.json": (b'{"facets": [[1, ' + b"7" * 5000 + b"]]}", "invalid JSON: "),
    "zero.txt": (b"0 1\n1 2\n", "vertex labels must be positive integers"),
    "negative.json": (
        b'{"facets": [[1, -2], [2, 3]]}',
        "vertex labels must be positive integers",
    ),
    "float.json": (b'{"facets": [[1, 2.5]]}', "labels must be integers"),
    "float.txt": (b"1 2.5\n", "'2.5' cannot be read as an integer vertex label"),
    "underscore.txt": (
        b"1_0 2\n2 3\n",
        "line 1: '1_0' cannot be read as an integer vertex label",
    ),
    "plus.txt": (b"+1 2\n", "line 1: '+1' cannot be read as an integer vertex label"),
    "arabic-indic.txt": (
        "\u0663 1\n".encode(),
        "line 1: '\u0663' cannot be read as an integer vertex label",
    ),
    "fullwidth.txt": (
        "1 \uff12\n".encode(),
        "line 1: '\uff12' cannot be read as an integer vertex label",
    ),
    "lone-minus.txt": (b"1 -\n", "line 1: '-' cannot be read as an integer vertex label"),
    "double-minus.txt": (
        b"--1 2\n",
        "line 1: '--1' cannot be read as an integer vertex label",
    ),
    "negative.txt": (b"1 -2\n2 3\n", "vertex labels must be positive integers"),
    "not-utf8.txt": (b"1 2\n\xff\xfe\n", "can't decode byte 0xff"),
    "empty.txt": (b"", "empty input"),
    "many-vertices.txt": (
        b"1 " + b"7" * 4000 + b"\n",
        "77777777777777777777... (4000 characters) vertex labels; the engine "
        "supports at most 64",
    ),
    "long-negative.txt": (
        b"1 -" + b"7" * 4000 + b"\n",
        "facet #1 contains -7777777777777777777... (4001 characters); vertex labels",
    ),
    "duplicate-long.txt": (
        b"1 " + b"7" * 4000 + b"\n" + b"7" * 4000 + b" 1\n",
        "facet [1, 77777777777777777777... (4000 characters)] appears more than once",
    ),
    "nested-long.txt": (
        b"1 " + b"7" * 4000 + b"\n1 2 " + b"7" * 4000 + b"\n",
        "facet [1, 77777777777777777777... (4000 characters)] is contained in facet "
        "[1, 2, 77777777777777777777... (4000 characters)]",
    ),
    # lists of many short labels are cut too, after 50 characters
    "uncovered-many.txt": (
        b"1 64\n",
        "labels [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, ... (62 items)] "
        "belong to no facet",
    ),
    "duplicate-wide.txt": (
        (WIDE_FACET + b"\n") * 2,
        f"facet {WIDE_ECHO}, ... (1000 items)] appears more than once",
    ),
    "nested-wide.txt": (
        WIDE_FACET.rsplit(b" ", 1)[0] + b"\n" + WIDE_FACET + b"\n",
        f"facet {WIDE_ECHO}, ... (999 items)] is contained in facet "
        f"{WIDE_ECHO}, ... (1000 items)]",
    ),
    "facet-not-a-list.json": (b'{"facets": [[1, 2], 3]}', '"facets"[1] is not a list'),
    "long-string.json": (
        b'{"facets": [[1, "' + b"x" * 5000 + b'"]]}',
        "\"facets\"[0] contains 'xxxxxxxxxxxxxxxxxxxx'... (5000 characters); labels "
        "must be integers",
    ),
}


def assert_one_error_line(capsys, argv, expected):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert expected in lines[0] and len(lines[0]) < 200


@pytest.mark.parametrize("name", list(BAD_INPUTS))
def test_check_bad_input_exits_2_with_one_error_line(capsys, tmp_path, name):
    data, expected = BAD_INPUTS[name]
    path = tmp_path / name
    path.write_bytes(data)
    assert_one_error_line(capsys, ["check", str(path)], expected)


def test_dot_long_order_exits_2_with_one_error_line(capsys, fan_file):
    expected = "got '77777777777777777777'... (5000 characters)"
    assert_one_error_line(capsys, ["dot", fan_file, "--order", "7" * 5000], expected)


def test_dot_order_with_a_long_id_exits_2_with_one_error_line(capsys, fan_file):
    # the id parses (it is under the int-to-str limit) but is no facet id
    expected = (
        "order [1, 2, 3, 4, 9999999... (4014 characters) is not a permutation of "
        "facet ids [1, 2, 3, 4, 5]"
    )
    argv = ["dot", fan_file, "--order", "1,2,3,4," + "9" * 4000]
    assert_one_error_line(capsys, argv, expected)


def test_dot_rejected_long_order_exits_2_with_one_error_line(capsys, tmp_path):
    # a permutation of the 63 edges of a path that is no leaf order: the
    # order is quoted cut, not in full
    path = tmp_path / "path63.json"
    path.write_text(to_json(new_complex([{i, i + 1} for i in range(1, 64)])))
    order = ",".join(map(str, [1, *range(63, 1, -1)]))
    expected = "[1, 63, 62, 61, 60, 59, 58, 57, 56, 55, 54, 53, 52, ... (63 items)] is not a leaf order"
    assert_one_error_line(capsys, ["dot", str(path), "--order", order], expected)


# int() also takes these; the command line reads integers by the text-label
# rule, ASCII -?[0-9]+ with spaces around
NOT_ASCII_INTEGERS = ["\u0663", "\uff13", "1_0", "+1"]
INTEGER_OPTIONS = {
    "covers --k": ["covers", "FILE", "--k"],
    "dmax --k-max": ["dmax", "FILE", "--k-max"],
    "verify --k-max": ["verify", "FILE", "--k-max"],
    "verify --seed": ["verify", "FILE", "--seed"],
    "gen delta-n --n": ["gen", "delta-n", "--n"],
    "gen random --seed": ["gen", "random", "--facets", "3", "--seed"],
    "gen random --facets": ["gen", "random", "--seed", "1", "--facets"],
    "gen random --max-facet-size": [
        "gen", "random", "--seed", "1", "--facets", "3", "--max-facet-size"
    ],
}


@pytest.mark.parametrize("token", NOT_ASCII_INTEGERS)
@pytest.mark.parametrize("option", list(INTEGER_OPTIONS))
def test_integer_options_take_only_ascii_integers(capsys, delta3_file, option, token):
    argv = [delta3_file if a == "FILE" else a for a in INTEGER_OPTIONS[option]]
    with pytest.raises(SystemExit) as exc:
        main(argv + [token])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    name = option.split()[-1]
    assert f"error: argument {name}: invalid int value: {token!r}" in captured.err


def test_integer_options_allow_spaces_around(capsys):
    code, out = run(capsys, ["gen", "delta-n", "--n", " 3 "])
    assert code == 0 and out == to_json(delta_n(3))


@pytest.mark.parametrize("token", NOT_ASCII_INTEGERS)
def test_dot_order_takes_only_ascii_integers(capsys, fan_file, token):
    order = f"1,2,3,4,{token}"
    expected = f"--order must be comma-separated facet ids, got {order!r}"
    assert_one_error_line(capsys, ["dot", fan_file, "--order", order], expected)
    code, out = run(capsys, ["dot", fan_file, "--order", " 1, 2 ,3,4,5 "])
    assert code == 0 and out.startswith("digraph relation_tree {")


@pytest.mark.parametrize("order", ["", " "])
def test_dot_blank_order_exits_2(capsys, fan_file, order):
    # an empty --order is a malformed order, not a missing one
    expected = f"--order must be comma-separated facet ids, got {order!r}"
    assert_one_error_line(capsys, ["dot", fan_file, "--order", order], expected)


@pytest.mark.parametrize("command", ["gen", "verify"])
def test_negative_seed_exits_2(capsys, delta3_file, command):
    argv = {"gen": ["gen", "random", "--facets", "3"], "verify": ["verify", delta3_file]}
    assert main(argv[command] + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be a nonnegative integer, got -1\n"


LONG_NEGATIVE = "-" + "9" * 4000  # parses: under the int-to-str digit limit
LONG_POSITIVE = LONG_NEGATIVE[1:]
BAD_SEED = "seed must be a nonnegative integer, got -9999999999999999999... (4001 characters)"
LONG_VALUE_OPTIONS = {
    "gen random --seed": (["gen", "random", "--facets", "3", "--seed", LONG_NEGATIVE], BAD_SEED),
    "verify --seed": (["verify", "FILE", "--seed", LONG_NEGATIVE], BAD_SEED),
    "gen delta-n --n": (
        ["gen", "delta-n", "--n", LONG_NEGATIVE],
        "the family needs n >= 3, got -9999999999999999999... (4001 characters)",
    ),
    "gen random --facets": (
        ["gen", "random", "--seed", "0", "--facets", LONG_POSITIVE],
        "at facet 33 of 99999999999999999999... (4000 characters); the engine",
    ),
    "gen random --max-facet-size": (
        ["gen", "random", "--seed", "0", "--facets", "5", "--max-facet-size", LONG_POSITIVE],
        "max_facet_size must be at most 2**32 + 1, the random stream's draw range, "
        "got 99999999999999999999... (4000 characters)",
    ),
}


@pytest.mark.parametrize("option", list(LONG_VALUE_OPTIONS))
def test_long_negative_seed_or_n_exits_2_with_one_error_line(
    capsys, delta3_file, option
):
    # and long positive --facets and --max-facet-size values alike
    argv, expected = LONG_VALUE_OPTIONS[option]
    argv = [delta3_file if a == "FILE" else a for a in argv]
    assert_one_error_line(capsys, argv, expected)


# each reads or writes PATH, a missing file
MISSING_PATH_COMMANDS = {
    "check": ["check", "PATH"],
    "dot-out": ["dot", "FILE", "--out", "PATH"],
    "gen-out": ["gen", "double-fan", "--out", "PATH"],
    "covers-emit-golden": ["covers", "FILE", "--k", "2", "--emit-golden", "PATH"],
}


@pytest.mark.parametrize("command", list(MISSING_PATH_COMMANDS))
def test_long_missing_path_exits_2_with_one_short_error_line(
    capsys, tmp_path, delta3_file, command
):
    # an OSError's own text quotes the file name in full; the line quotes it
    # cut to 20 characters after the system's reason
    missing = str(tmp_path / "missing") + "/"
    path = missing + "x" * (300 - len(missing))
    argv = [{"FILE": delta3_file, "PATH": path}.get(a, a) for a in MISSING_PATH_COMMANDS[command]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) <= 200, err
    assert err.startswith("error: ") and err.endswith(f": {echo(path)}\n")
    assert echo(path).endswith("... (300 characters)")


def test_reports_are_reproducible(capsys, delta3_file):
    _, first = run(capsys, ["check", delta3_file])
    _, second = run(capsys, ["check", delta3_file])
    a, b = json.loads(first), json.loads(second)
    a.pop("timing_ms"), b.pop("timing_ms")
    assert a == b


def test_covers_and_golden(capsys, delta3_file, tmp_path):
    golden = tmp_path / "covers.json"
    code, out = run(
        capsys, ["covers", delta3_file, "--k", "2", "--emit-golden", str(golden)]
    )
    assert code == 0
    doc = report(out, "covers")
    assert doc["result"]["covers"] == [{"a": [1, 1, 1, 0, 0, 0], "k": 2}]
    assert json.loads(golden.read_text()) == doc["result"]["covers"]


def test_covers_k0(capsys, delta3_file):
    code, out = run(capsys, ["covers", delta3_file, "--k", "0"])
    assert code == 0
    assert report(out, "covers")["result"]["count"] == 6


def test_covers_k0_on_wide_delta(capsys, tmp_path):
    path = tmp_path / "d32.json"
    path.write_text(to_json(delta_n(32)))
    code, out = run(capsys, ["covers", str(path), "--k", "0"])
    assert code == 0
    assert report(out, "covers")["result"]["count"] == 64


def test_dmax_reports_bound_disclaimer(capsys, delta3_file):
    code, out = run(capsys, ["dmax", delta3_file, "--k-max", "4"])
    assert code == 0
    result = report(out, "dmax")["result"]
    assert result["d"] == 2
    assert result["certificates"]["2"] == {"a": [1, 1, 1, 0, 0, 0], "k": 2}
    assert "NOT explored" in result["note"]


def test_verify_agreement(capsys, delta3_file, fan_file):
    code, out = run(capsys, ["verify", delta3_file, "--k-max", "2"])
    assert code == 0
    doc = report(out, "verify")
    assert doc["result"]["agree"] is True
    assert doc["result"]["criterion"]["standard_graded"] is False
    code, out = run(capsys, ["verify", fan_file, "--k-max", "3"])
    assert code == 0
    assert report(out, "verify")["result"]["criterion"]["standard_graded"] is True


def test_verify_rejects_non_quasi_tree(capsys, tmp_path):
    p = tmp_path / "tri.txt"
    p.write_text("1 2\n2 3\n1 3\n")
    code, out = run(capsys, ["verify", str(p)])
    assert code == 11
    assert report(out, "verify")["result"] == {"error": "not a quasi-tree"}


@pytest.fixture()
def disagreeing(delta3_file, monkeypatch, tmp_path):
    """An empty working directory in which verify's two routes disagree."""
    # the two routes always agree on a working engine, so a stub disagrees
    verdict = is_standard_graded(load_complex(delta3_file))
    monkeypatch.setattr(
        "qcover.cli.cross_validate",
        lambda *args, **kwargs: CrossValidation(False, verdict, verdict),
    )
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    return work


def test_verify_disagreement_writes_an_artifact_and_exits_20(
    capsys, delta3_file, disagreeing
):
    cx = load_complex(delta3_file)
    assert main(["verify", delta3_file, "--k-max", "2"]) == 20
    captured = capsys.readouterr()
    doc = report(captured.out, "verify")
    name = f"qcover-disagreement-{doc['input_digest'][:16]}.json"
    assert re.fullmatch(r"qcover-disagreement-[0-9a-f]{16}\.json", name)
    assert [p.name for p in disagreeing.iterdir()] == [name]
    result = doc["result"]
    assert result["agree"] is False and result["artifact"] == name
    assert captured.err == f"disagreement artifact written to {name}\n"
    saved = json.loads((disagreeing / name).read_text())
    del result["artifact"]
    assert saved == {"facets": [list(row) for row in cx.rows], "report": result}


def test_verify_disagreement_exits_20_when_its_artifact_cannot_be_written(
    capsys, delta3_file, disagreeing
):
    # a directory holding the artifact's name fails the write, also for root
    digest = complex_digest(load_complex(delta3_file))
    name = f"qcover-disagreement-{digest[:16]}.json"
    (disagreeing / name).mkdir()
    assert main(["verify", delta3_file, "--k-max", "2"]) == 20
    captured = capsys.readouterr()
    result = report(captured.out, "verify")["result"]
    assert result["agree"] is False and result["artifact"] is None
    assert captured.err.startswith("error: disagreement artifact not written: ")
    assert name in captured.err and captured.err.count("\n") == 1
    assert [p.name for p in disagreeing.iterdir()] == [name]
    assert not any((disagreeing / name).iterdir())


def test_gen_round_trips(capsys, tmp_path):
    out_path = tmp_path / "gen.json"
    assert main(["gen", "delta-n", "--n", "3", "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert out_path.read_text() == to_json(delta_n(3))
    assert main(["gen", "double-fan", "--format", "text"]) == 0
    assert capsys.readouterr().out == to_text(double_fan())


def test_gen_random_deterministic(capsys):
    _, first = run(capsys, ["gen", "random", "--seed", "7", "--facets", "5"])
    _, second = run(capsys, ["gen", "random", "--seed", "7", "--facets", "5"])
    assert first == second
    doc = json.loads(first)
    assert len(doc["facets"]) == 5


def test_dot_star_and_path(capsys, fan_file):
    _, star = run(
        capsys, ["dot", fan_file, "--order", "1,2,3,4,5", "--branch-rule", "min"]
    )
    assert "F5 -> F1;" in star
    _, path = run(
        capsys, ["dot", fan_file, "--order", "1,2,3,4,5", "--branch-rule", "max"]
    )
    assert "F5 -> F4;" in path
    assert "F3 -> F2;" in path


def test_dot_without_a_leaf_order_exits_11(capsys, tmp_path):
    # the triangle has no leaf, so no peel yields a relation tree
    tri = tmp_path / "tri.json"
    tri.write_text('{"facets": [[1, 2], [2, 3], [1, 3]]}')
    assert main(["dot", str(tri)]) == 11
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: complex has no leaf order\n"


def test_budget_env_override(capsys, delta3_file, monkeypatch, tmp_path):
    monkeypatch.setenv("QCOVER_BUDGET", "2")
    assert main(["check", delta3_file]) == 2
    capsys.readouterr()
    monkeypatch.setenv("QCOVER_BUDGET", " 1000 ")
    assert main(["check", delta3_file]) == 10
    capsys.readouterr()
    for raw in ["not-a-number", "-1", *NOT_ASCII_INTEGERS, "\u0661\u0660"]:
        monkeypatch.setenv("QCOVER_BUDGET", raw)
        assert main(["check", delta3_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: QCOVER_BUDGET must be a nonnegative integer, got {raw!r}\n"
        )
    # a value past the int-to-str digit limit is quoted in one short line
    monkeypatch.setenv("QCOVER_BUDGET", "9" * 5000)
    expected = (
        "QCOVER_BUDGET must be a nonnegative integer, got "
        "'99999999999999999999'... (5000 characters)"
    )
    assert_one_error_line(capsys, ["check", delta3_file], expected)
    # the quasi-tree decision comes first: a bad budget on a non-quasi-tree
    # still exits 11 with its report
    tri = tmp_path / "tri.json"
    tri.write_text('{"facets": [[1, 2], [2, 3], [1, 3]]}')
    code, out = run(capsys, ["check", str(tri)])
    assert code == 11
    assert report(out, "check")["result"]["verdict"] is None


def test_cli_import_leaves_numpy_unloaded(fresh_python):
    probe = "import sys, qcover.cli; print('numpy' in sys.modules)"
    out = fresh_python(["-c", probe], check=True).stdout
    assert out.strip() == "False"


def test_cli_import_leaves_the_pcg64_port_unloaded(fresh_python):
    probe = "import sys, qcover.cli; print('qcover._pcg64' in sys.modules)"
    out = fresh_python(["-c", probe], check=True).stdout
    assert out.strip() == "False"


def test_families_import_leaves_numpy_unloaded(fresh_python):
    probe = "import sys, qcover.families; print('numpy' in sys.modules)"
    out = fresh_python(["-c", probe], check=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("command", ["gen", "verify"])
def test_random_draws_leave_numpy_unloaded(fresh_python, tmp_path, command):
    path = tmp_path / "cx.json"
    gen = ["gen", "random", "--seed", "3", "--facets", "10", "--out", str(path)]
    if command == "verify":
        assert main(gen) == 0
    argv = gen if command == "gen" else ["verify", str(path), "--seed", "5", "--k-max", "2"]
    probe = (
        f"import sys; from qcover.cli import main; code = main({argv!r}); "
        "print(code, sorted({'numpy', 'qcover._pcg64'} & set(sys.modules)), file=sys.stderr)"
    )
    proc = fresh_python(["-c", probe])
    assert proc.stderr == "0 ['qcover._pcg64']\n"


def test_import_loads_no_dataclasses_inspect_or_numpy(fresh_python):
    probe = (
        "import sys, qcover, qcover.cli; "
        "print(sorted({'dataclasses', 'inspect', 'numpy'} & set(sys.modules)))"
    )
    out = fresh_python(["-c", probe], check=True).stdout
    assert out.strip() == "[]"


def without_timing(out):
    return [line for line in out.splitlines() if not line.startswith('  "timing_ms": ')]


# modules a check loads only when its verdict needs them
LAZY = ("qcover.covers", "qcover.families", "qcover._pcg64", "numpy", "_hashlib")
# input -> (exit code, which of LAZY the check loads)
LEAN_CASES = {
    "delta3": (lambda: delta_n(3), 10, ["qcover.covers"]),
    "double-fan": (double_fan, 0, []),
    "antichain": (lambda: new_complex([[1, 2], [2, 3], [1, 3]]), 11, []),
}


@pytest.mark.parametrize("name", list(LEAN_CASES))
def test_check_loads_only_what_its_verdict_needs(fresh_python, tmp_path, name):
    build, code, loaded = LEAN_CASES[name]
    path = tmp_path / "cx.json"
    path.write_text(to_json(build()))
    probe = (
        "import sys; from qcover.cli import main; code = main(['check', sys.argv[1]]); "
        f"print(code, sorted(set({LAZY!r}) & set(sys.modules)), file=sys.stderr)"
    )
    proc = fresh_python(["-c", probe, str(path)])
    assert proc.stderr == f"{code} {loaded}\n"


def _runnable(name):
    """The first ``name`` on PATH that starts, or None."""
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        exe = str(Path(folder) / name)
        if os.access(exe, os.X_OK) and Path(exe).is_file():
            if subprocess.run([exe, "-c", "pass"], capture_output=True).returncode == 0:
                return exe
    return None


@pytest.mark.parametrize("name", ["python3.10", "python3.12", "python3.13"])
def test_check_report_is_the_same_on_other_interpreters(
    capsys, fresh_python, delta3_file, fan_file, name
):
    python = _runnable(name)
    if python is None:
        pytest.skip(f"no runnable {name} on PATH")
    for path in (delta3_file, fan_file):
        code, out = run(capsys, ["check", path])
        proc = fresh_python(["-m", "qcover.cli", "check", path], python=python)
        assert (proc.returncode, proc.stderr) == (code, "")
        assert without_timing(proc.stdout) == without_timing(out)


FRESH_COMMANDS = {
    "covers": ["covers", "D3", "--k", "2"],
    "dmax": ["dmax", "D3", "--k-max", "3"],
    "verify-sweep": ["verify", "D3", "--k-max", "2", "--sweep-smds"],
    "gen-delta-n": ["gen", "delta-n", "--n", "3"],
    "gen-double-fan": ["gen", "double-fan", "--format", "text"],
    "gen-random": ["gen", "random", "--seed", "7", "--facets", "5"],
    "dot": ["dot", "D3"],
}


@pytest.mark.parametrize("name", list(FRESH_COMMANDS))
def test_every_command_runs_in_a_fresh_interpreter(
    capsys, fresh_python, delta3_file, tmp_path, name
):
    argv = [delta3_file if a == "D3" else a for a in FRESH_COMMANDS[name]]
    code, out = run(capsys, argv)
    proc = fresh_python(["-m", "qcover.cli", *argv], cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (code, "") == (0, "")
    assert without_timing(proc.stdout) == without_timing(out)
