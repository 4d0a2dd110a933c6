"""Exit codes and report payloads are the CLI's machine contract."""

import json

import pytest

from qcover import new_complex
from qcover.cli import main
from qcover.families import delta_n, double_fan
from qcover.fileio import to_json, to_text


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


def report(out):
    doc = json.loads(out)
    assert doc["tool"] == "qcover"
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
    doc = report(out)
    verdict = doc["result"]["verdict"]
    assert verdict["standard_graded"] is False
    assert verdict["cycle_witness"]["vertices"] == [1, 2, 3]
    assert verdict["cover_witness"] == {"a": [1, 1, 1, 0, 0, 0], "k": 2}


def test_check_standard_graded(capsys, fan_file):
    code, out = run(capsys, ["check", fan_file])
    assert code == 0
    assert report(out)["result"]["verdict"]["standard_graded"] is True


def test_check_non_quasi_tree(capsys, tmp_path):
    p = tmp_path / "tri.txt"
    p.write_text(to_text(new_complex([{1, 2}, {2, 3}, {1, 3}])))
    code, out = run(capsys, ["check", str(p)])
    assert code == 11
    assert report(out)["result"]["verdict"] is None


def test_check_malformed_input(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"facets": [[1, 2], oops')
    assert main(["check", str(p)]) == 2
    capsys.readouterr()
    for path in (tmp_path / "missing.json", tmp_path):
        assert main(["check", str(path)]) == 2
        capsys.readouterr()


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
    doc = report(out)
    assert doc["result"]["covers"] == [{"a": [1, 1, 1, 0, 0, 0], "k": 2}]
    assert json.loads(golden.read_text()) == doc["result"]["covers"]


def test_covers_k0(capsys, delta3_file):
    code, out = run(capsys, ["covers", delta3_file, "--k", "0"])
    assert code == 0
    assert report(out)["result"]["count"] == 6


def test_dmax_reports_bound_disclaimer(capsys, delta3_file):
    code, out = run(capsys, ["dmax", delta3_file, "--k-max", "4"])
    assert code == 0
    result = report(out)["result"]
    assert result["d"] == 2
    assert result["certificates"]["2"] == {"a": [1, 1, 1, 0, 0, 0], "k": 2}
    assert "NOT explored" in result["note"]


def test_verify_agreement(capsys, delta3_file, fan_file):
    code, out = run(capsys, ["verify", delta3_file, "--k-max", "2"])
    assert code == 0
    doc = report(out)
    assert doc["result"]["agree"] is True
    assert doc["result"]["criterion"]["standard_graded"] is False
    code, out = run(capsys, ["verify", fan_file, "--k-max", "3"])
    assert code == 0
    assert report(out)["result"]["criterion"]["standard_graded"] is True


def test_verify_rejects_non_quasi_tree(capsys, tmp_path):
    p = tmp_path / "tri.txt"
    p.write_text("1 2\n2 3\n1 3\n")
    code, _ = run(capsys, ["verify", str(p)])
    assert code == 11


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


def test_budget_env_override(capsys, delta3_file, monkeypatch):
    monkeypatch.setenv("QCOVER_BUDGET", "2")
    assert main(["check", delta3_file]) == 2
    capsys.readouterr()
    monkeypatch.setenv("QCOVER_BUDGET", "not-a-number")
    assert main(["check", delta3_file]) == 2
    capsys.readouterr()
