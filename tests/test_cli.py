"""Command-line interface: dispatch, exit codes, JSON stability."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from steenrod import cli, modfile
from steenrod.cli import main, resolve_module
from steenrod.modules import GradedModule, real_proj

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "Sq2 Sq2")
    assert code == 0
    assert out.strip() == "Sq3 Sq1"


def test_normalize_cancellation(capsys):
    code, out, _ = run(capsys, "normalize", "Sq1 + Sq1")
    assert code == 0
    assert out.strip() == "0"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "normalize", "Sq0")
    assert code == 2
    assert "write 1" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "definitely-not-a-command")
    assert code == 2


def test_step_budget_exit_code(capsys):
    # a word nothing else in the suite normalizes, so the cache cannot hide it
    code, _, err = run(capsys, "normalize", "Sq6 Sq11 Sq23 Sq47", "--step-budget", "1")
    assert code == 3
    assert "budget" in err


def test_basis(capsys):
    code, out, _ = run(capsys, "basis", "--degree", "5")
    assert code == 0
    assert out.splitlines() == ["Sq5", "Sq4 Sq1"]


def test_act(capsys):
    code, out, _ = run(capsys, "act", "--op", "Sq1", "--on", "t1*t2")
    assert code == 0
    assert out.strip() == "t1^2*t2 + t1*t2^2"


def test_act_vars_bound(capsys):
    code, _, err = run(capsys, "act", "--op", "Sq1", "--on", "t1*t4", "--vars", "3")
    assert code == 2
    assert "t4" in err


def test_total_square(capsys):
    code, out, _ = run(capsys, "total-square", "--on", "t1", "--var", "t2")
    assert code == 0
    assert out.strip() == "t1^2 + t1*t2"


def test_total_square_default_variable(capsys):
    code, out, _ = run(capsys, "total-square", "--on", "t1^2")
    assert code == 0
    assert out.strip() == "t1^4 + t1^2*t2^2"


def test_total_square_symbolic_variable_name(capsys):
    code, out, _ = run(capsys, "total-square", "--on", "t1", "--var", "u", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["variable"] == "t2"
    assert payload["result"] == "t1^2 + t1*t2"


def test_total_square_of_a_power_beyond_32_bits(capsys):
    code, out, _ = run(capsys, "total-square", "--on", f"t1^{2**40}", "--json")
    assert code == 0
    assert json.loads(out)["result"] == f"t1^{2**41} + t1^{2**40}*t2^{2**40}"


def test_total_square_rejects_used_variable(capsys):
    code, _, err = run(capsys, "total-square", "--on", "t1*t2", "--var", "t2")
    assert code == 2
    assert "fresh" in err


def test_total_square_of_an_inhomogeneous_polynomial(capsys):
    code, out, err = run(capsys, "total-square", "--on", "t1 + t1^2")
    assert code == 2
    assert out == ""
    assert err == "error: element is not homogeneous (degrees [1, 2])\n"


def test_total_square_above_the_term_bound(capsys):
    code, out, err = run(capsys, "total-square", "--on", "*".join(f"t{j}" for j in range(1, 301)))
    assert code == 2
    assert out == ""
    assert err == "error: total square expands to more than 65536 terms\n"


def test_derive_adem_degree_one(capsys):
    code, out, _ = run(capsys, "derive-adem", "--degree", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["relation_count"] == 1
    assert payload["relations"][0]["relation"] == "Sq1 Sq1"
    assert payload["all_normalize_to_zero"] is True


def test_derive_adem_degree_two_reports_unstable_relation(capsys):
    code, out, _ = run(capsys, "derive-adem", "--degree", "2", "--json")
    assert code == 1  # one relation's normal form is nonzero
    payload = json.loads(out)
    by_relation = {r["relation"]: r for r in payload["relations"]}
    assert by_relation["Sq1 Sq2"]["normalizes_to_zero"] is False
    assert by_relation["Sq1 Sq2"]["vanishes_on_degree_m_classes"] is True
    assert by_relation["Sq2 Sq2 + Sq3 Sq1"]["normalizes_to_zero"] is True


def test_derive_adem_degree_twelve_certifies_every_relation(capsys):
    code, out, _ = run(capsys, "derive-adem", "--degree", "12", "--json")
    assert code == 1  # some relations hold on degree-12 classes only
    doc = json.loads(out)
    assert doc["relation_count"] == 186
    assert all(rel["vanishes_on_degree_m_classes"] for rel in doc["relations"])


def test_verify_builtin(capsys):
    code, out, _ = run(capsys, "verify", "--module", "rp8", "--max-degree", "8")
    assert code == 0
    assert "all passed" in out


def test_verify_composed_module(capsys):
    code, out, _ = run(
        capsys, "verify", "--module", "wedge(susp(cp2),s3)", "--max-degree", "8"
    )
    assert code == 0


def test_verify_module_file(tmp_path, capsys):
    path = tmp_path / "rp4.json"
    modfile.save(real_proj(4), path)
    code, out, _ = run(capsys, "verify", "--module", str(path), "--max-degree", "4")
    assert code == 0


def test_verify_corrupted_module_file(tmp_path, capsys):
    good = real_proj(4)
    bad_sq = dict(good.sq)
    bad_sq[("t1", 1)] = frozenset({"t1"})
    bad = GradedModule("bad_rp4", good.generators, bad_sq, good.products, 4)
    path = tmp_path / "bad.json"
    modfile.save(bad, path)
    code, out, _ = run(capsys, "verify", "--module", str(path), "--max-degree", "4")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("field", ['"generators": [5]', '"sq": []', '"products": {"t1,t1": "t2"}'])
def test_verify_module_file_with_wrong_types(tmp_path, capsys, field):
    doc = json.loads(modfile.dumps(real_proj(2)))
    doc.update(json.loads("{" + field + "}"))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--module", str(path), "--max-degree", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_module_file_with_a_repeated_key(tmp_path, capsys):
    # Without the check the later "1" would win: Sq1(t1) = 0, an (I3) failure.
    text = (
        '{"name": "rp2", "top_degree": 2, "generators": [["t1", 1], ["t2", 2]],'
        ' "sq": {"t1": {"1": ["t2"], "1": []}}, "products": {"t1,t1": ["t2"]}}'
    )
    path = tmp_path / "repeated.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "verify", "--module", str(path), "--max-degree", "2", "--json")
    assert code == 2
    assert out == ""
    assert err == "error: JSON object repeats the key '1'\n"


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_exhausted_resources_exit_code(capsys, monkeypatch, error):
    def exhausted(*args, **kwargs):
        raise error()

    monkeypatch.setattr(cli, "certify_relations", exhausted)
    code, out, err = run(capsys, "derive-adem", "--degree", "3", "--json")
    assert code == 4 == cli.EXIT_RESOURCE
    assert out == ""
    assert err == f"error: resources exhausted ({error.__name__})\n"


def test_act_on_an_exponent_beyond_32_bits(capsys):
    code, out, _ = run(capsys, "act", "--op", "Sq1", "--on", f"t1^{2**40 + 1}")
    assert code == 0
    assert out.strip() == f"t1^{2**40 + 2}"


def test_act_with_a_word_of_1100_squares(capsys):
    word = " ".join(f"Sq{2**j}" for j in reversed(range(1100)))
    code, out, _ = run(capsys, "act", "--op", word, "--on", "t1")
    assert code == 0
    assert out.strip() == f"t1^{2**1100}"
    code, out, _ = run(capsys, "act", "--op", " ".join(["Sq1"] * 1100), "--on", "t1")
    assert code == 0
    assert out.strip() == "0"


def test_verify_deeply_nested_module_expression(capsys):
    expr = "susp(" * 1200 + "s1" + ")" * 1200
    code, out, err = run(capsys, "verify", "--module", expr, "--max-degree", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_bad_module_expression(capsys):
    code, _, err = run(capsys, "verify", "--module", "nope(1)", "--max-degree", "4")
    assert code == 2
    assert "expected" in err


def test_faithful(capsys):
    code, out, _ = run(capsys, "faithful", "--degree", "6")
    assert code == 0
    assert "faithful" in out


def test_faithful_degree_24_as_a_process():
    env = {**os.environ, "PYTHONPATH": SRC}
    argv = [sys.executable, "-m", "steenrod.cli", "faithful", "--degree", "24", "--json"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rank"] == 26


@pytest.mark.parametrize("command", ["basis", "faithful", "derive-adem"])
def test_degree_above_the_bound_is_refused(capsys, command):
    code, out, err = run(capsys, command, "--degree", str(cli.MAX_DEGREE + 1), "--json")
    assert code == 2
    assert out == ""
    assert err == "error: degree must be at most 112\n"


def test_distinguish_pi4(capsys):
    code, out, _ = run(capsys, "distinguish-pi4")
    assert code == 0
    assert out.strip().endswith("π₄(S³) ≠ 0")


def test_json_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "distinguish-pi4", "--json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    payload = json.loads(runs[0])
    assert payload["distinct"] is True
    assert payload["sq2_ranks"]["susp(cp2)"] == 1
    assert payload["sq2_ranks"]["wedge(s5,s3)"] == 0


def test_resolve_module_grammar():
    assert resolve_module("s3").name == "s3"
    assert resolve_module("wedge(s5,s3)").name == "wedge(s5,s3)"
    assert resolve_module("susp(cp2)").name == "susp(cp2)"
    assert resolve_module("wedge(susp(rp2), s1)").name == "wedge(susp(rp2),s1)"
    with pytest.raises(ValueError):
        resolve_module("wedge(s5")
    with pytest.raises(ValueError):
        resolve_module("s3 junk")


def test_verify_rejects_a_dimension_above_the_bound():
    argv = ["verify", "--module", "rp2000", "--max-degree", "2", "--json"]
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-m", "steenrod.cli", *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: dimension must be at most 256 (at column 0)\n"


def test_verify_rejects_a_module_expression_above_the_entry_bound(capsys):
    nested = "wedge(rp256," * 40 + "rp256" + ")" * 40
    code, out, err = run(capsys, "verify", "--module", nested, "--max-degree", "2")
    assert code == 2
    assert out == ""
    assert err == "error: module expression builds more than 131072 table entries (at column 78)\n"


def test_cli_import_does_not_load_dataclasses_or_inspect():
    unused = "{'dataclasses', 'inspect', 'pathlib', 'random', 'typing'}"
    probe = f"import sys, steenrod.cli; print(sorted({unused} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
