"""Command-line interface: dispatch, exit codes, JSON stability."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenrod import clear_caches, cli, derive, modfile
from steenrod.cli import main, resolve_module
from steenrod.derive import RelationCertificate
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


@pytest.mark.parametrize("poly", ["1", "t1"])
def test_negative_vars_is_refused(capsys, poly):
    # without the check, 1 printed 0 and t1 exited 2 with another message
    code, out, err = run(capsys, "act", "--op", "Sq1", "--on", poly, "--vars", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --vars must be a natural number\n"


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


def test_text_mode_never_builds_the_json_payload(capsys, monkeypatch):
    expected = run(capsys, "derive-adem", "--degree", "4")
    assert expected[0] == 1 and expected[2] == ""

    def unwanted(self):
        raise AssertionError("text mode built the JSON payload")

    monkeypatch.setattr(RelationCertificate, "as_dict", unwanted)
    assert run(capsys, "derive-adem", "--degree", "4") == expected


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


def test_verify_refuses_a_module_file_with_a_unit(tmp_path, capsys):
    # A module has no unit class, so a file whose unit names generator t1 is refused, not verified.
    doc = {"name": "x", "top_degree": 1, "unit": "t1", "generators": [["t1", 1]], "sq": {}, "products": {}}
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--module", str(path), "--max-degree", "1")
    assert (code, out) == (2, "")
    assert err == "error: 'unit' must be null or absent: a module has no unit class\n"


def test_a_directory_does_not_shadow_a_builtin_module(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s3").mkdir()
    code, out, err = run(capsys, "verify", "--module", "s3", "--max-degree", "3")
    assert (code, out, err) == (0, "s3: 4 checks up to degree 3, all passed\n", "")


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


def test_verify_module_file_with_a_repeated_generator_id(tmp_path, capsys):
    doc = {"name": "x", "top_degree": 2, "generators": [["a", 1], ["a", 2]], "sq": {}, "products": {}}
    path = tmp_path / "repeated_id.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--module", str(path), "--max-degree", "2")
    assert (code, out, err) == (2, "", "error: duplicate generator id 'a'\n")


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

    monkeypatch.setattr(derive, "certify_relations", exhausted)
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


@pytest.mark.parametrize(
    "argv, column",
    [
        (["normalize", "Sq" + "1" * 5000], 2),
        (["act", "--op", "Sq1", "--on", "t1^" + "1" * 5000], 3),
        (["verify", "--module", "rp" + "1" * 5000, "--max-degree", "3"], 2),
    ],
)
def test_a_number_too_long_for_int_is_a_parse_error_at_its_column(capsys, argv, column):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: numbers are limited to {sys.get_int_max_str_digits()} digits (at column {column})\n"


@pytest.mark.parametrize(
    "argv, option",
    [
        (["basis", "--degree", "1" * 5000], "--degree"),
        (["verify", "--module", "s3", "--max-degree", "1" * 5000], "--max-degree"),
        (["verify", "--module", "s3", "--max-degree", "-" + "1" * 5000], "--max-degree"),
        (["normalize", "Sq1", "--step-budget", "1" * 5000], "--step-budget"),
        (["act", "--op", "Sq1", "--on", "t1", "--vars=" + "1" * 5000], "--vars"),
        (["total-square", "--on", "t1", "--var", "t" + "1" * 5000], "--var"),
    ],
    ids=["--degree", "--max-degree", "negative --max-degree", "--step-budget", "--vars", "--var"],
)
def test_an_option_number_too_long_for_int_names_the_limit(capsys, argv, option):
    # Such a value is well formed, but more digits than int() reads; it is not echoed.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: option {option}: numbers are limited to {sys.get_int_max_str_digits()} digits\n"


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


def test_verify_max_degree_above_the_bound_is_refused(capsys):
    code, out, err = run(capsys, "verify", "--module", "s1", "--max-degree", str(cli.MAX_DEGREE + 1))
    assert code == 2
    assert out == ""
    assert err == "error: degree must be at most 112\n"


def test_verify_negative_max_degree_is_refused(capsys):
    code, out, err = run(capsys, "verify", "--module", "s3", "--max-degree", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: degree must be a natural number\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "--degree", "-1"],
        ["faithful", "--degree", "-1"],
        ["derive-adem", "--degree", "-1"],
        ["verify", "--module", "s3", "--max-degree", "-1"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_degree_gives_one_message(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: degree must be a natural number\n"


@pytest.mark.parametrize("expr", ["Sq1", "Sq1 Sq1"])
def test_negative_step_budget_is_refused(capsys, expr):
    # without the check, Sq1 (no rewrite) printed Sq1 and Sq1 Sq1 exited 3
    code, out, err = run(capsys, "normalize", expr, "--step-budget", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: step budget must be a natural number\n"


def test_zero_step_budget_still_normalizes_admissible_input(capsys):
    assert run(capsys, "normalize", "Sq2 Sq1", "--step-budget", "0") == (0, "Sq2 Sq1\n", "")


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
    # Start-up loads only the rewriting layer, and a subcommand only the layers it calls.
    # No argument parsing library either: argparse alone loaded gettext, locale and shutil.
    unused = "{'argparse', 'dataclasses', 'gettext', 'inspect', 'locale', 'pathlib', 'random', 'shutil', 'typing'}"
    probe = f"""
import sys, steenrod.cli
ours = lambda: sorted(m for m in sys.modules if m.startswith("steenrod"))
print(sorted({unused} & set(sys.modules)), ours())
steenrod.cli.main(["basis", "--degree", "3"])
print(ours())
steenrod.cli.main(["normalize", "Sq2 Sq2"])
print(ours())
"""
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    start_up = "['steenrod', 'steenrod.adem', 'steenrod.cli', 'steenrod.f2']"
    normalize = "['steenrod', 'steenrod.adem', 'steenrod.cli', 'steenrod.f2', 'steenrod.parsing']"
    assert out.stdout.splitlines() == [f"[] {start_up}", "Sq3", "Sq2 Sq1", start_up, "Sq3 Sq1", normalize]
    # Run alone, --json included, each subcommand gives its exit code (1 for derive-adem:
    # degree-local relations) and loads exactly these layers beside adem, cli and f2,
    # and none of re, json, enum or random.
    calls = [
        (["normalize", "Sq2 Sq2"], 0, "parsing"),
        (["basis", "--degree", "5"], 0, ""),
        (["act", "--op", "Sq2 Sq1", "--on", "t1^2*t2"], 0, "linalg parsing poly"),
        (["total-square", "--on", "t1*t2"], 0, "linalg parsing poly"),
        (["derive-adem", "--degree", "5"], 1, "derive linalg poly"),
        (["faithful", "--degree", "5"], 0, "linalg poly"),
        (["distinguish-pi4"], 0, "linalg modules"),
        (["verify", "--module", "s3", "--max-degree", "8"], 0, "linalg modules parsing"),
        (["verify", "--module", "wedge(rp3,cp2)", "--max-degree", "8"], 0, "linalg modules parsing"),
    ]
    for argv, code, extra in calls:
        probe = f"""
import os, sys, steenrod.cli
sys.stdout = open(os.devnull, "w")
code = steenrod.cli.main({argv + ["--json"]})
sys.stdout = sys.__stdout__
print(code, sorted({{"re", "json", "enum", "random"}} & set(sys.modules)))
print(*sorted(m.removeprefix("steenrod.") for m in sys.modules if m.startswith("steenrod.")))
"""
        out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
        layers = " ".join(sorted(["adem", "cli", "f2", *extra.split()]))
        assert out.stdout.splitlines() == [f"{code} []", layers], argv


def test_a_closed_stdout_is_not_a_usage_error():
    # The reader of a pipe stops after 10 bytes: the command keeps its own exit
    # code (1: degree-local relations), and nothing reaches stderr, not even at exit.
    argv = [sys.executable, "-m", "steenrod.cli", "derive-adem", "--degree", "60"]
    env = {**os.environ, "PYTHONPATH": SRC}
    for json_flag in (["--json"], []):
        process = subprocess.Popen(argv + json_flag, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert len(process.stdout.read(10)) == 10
        process.stdout.close()
        assert process.wait(timeout=60) == 1
        assert process.stderr.read() == b""
        process.stderr.close()


# Apt values and junk of each kind; degrees stay small, so that no call takes seconds.
_INTS = ["-1", "0", "1", "3", "7", "\u0663", "12345678901234567890"]
_WORDS = ["1", "Sq1", "Sq2 Sq2", "Sq3 Sq5", "Sq1 Sq2 + Sq4 Sq4", "Sq0", ""]
_POLYS = ["t1", "t1*t2", "t1^2 + t2", "t3^5*t1", "t1^", ""]
# Module files, written once by the module_files fixture, and the exit code of verifying each.
_FILES = {"valid.json": 0, "truncated.json": 2, "types.json": 2, "repeated.json": 2, "deep.json": 4}
_MODULES = ["s2", "rp3", "cp2", "susp(rp2)", "wedge(s1,s2)", "/", "nope.json", "", *_FILES]
# Each subcommand's options with the values of their kind; None is normalize's expression.
_OPTIONS = {
    "normalize": {None: _WORDS, "--step-budget": ["-1", "0", "1", "12345678901234567890"]},
    "basis": {"--degree": _INTS},
    "act": {"--op": _WORDS, "--on": _POLYS, "--vars": _INTS},
    "total-square": {"--on": _POLYS, "--var": ["t4", "u", "5", "t0", "#"]},
    "derive-adem": {"--degree": _INTS},
    "verify": {"--module": _MODULES, "--max-degree": _INTS},
    "faithful": {"--degree": _INTS},
    "distinguish-pi4": {},
}
_OPTION_NAMES = {option for options in _OPTIONS.values() for option in options if option}
_TOKENS = st.sampled_from(
    sorted({*_OPTIONS, *_OPTION_NAMES, "--json", "--help", "-h", *_INTS, *_WORDS, *_POLYS, *_MODULES})
)


@pytest.fixture(scope="module")
def module_files(tmp_path_factory) -> Path:
    folder = tmp_path_factory.mktemp("modules")
    valid = modfile.dumps(real_proj(3))
    depth = 200_000  # far past the interpreter's recursion limit
    texts = {
        "valid.json": valid,
        "truncated.json": valid[: len(valid) // 2],
        "types.json": valid.replace('"top_degree": 3', '"top_degree": "3"'),
        "repeated.json": valid.replace('"name": "rp3"', '"name": "rp3", "name": "rp2"'),
        "deep.json": "[" * depth + "]" * depth,
    }
    for name, text in texts.items():
        (folder / name).write_text(text, encoding="utf-8")
    return folder


@pytest.mark.parametrize("name", sorted(_FILES))
def test_verify_module_file_exit_codes(capsys, module_files, name):
    code, out, err = run(capsys, "verify", "--module", str(module_files / name), "--max-degree", "3")
    assert code == _FILES[name]
    assert (out == "") == (code != 0) and (err == "") == (code == 0)
    if name == "deep.json":
        assert err == "error: resources exhausted (RecursionError)\n"


@st.composite
def _argvs(draw) -> list[str]:
    """A subcommand with most of its options, a few of them given junk or joined by a stray token."""

    def rarely() -> bool:  # hypothesis favours 0, so the well-formed choice is the common one
        return draw(st.integers(0, 4)) == 4

    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for option, values in _OPTIONS[command].items():
        if not rarely():
            argv += [option] if option else []
            argv.append(draw(_TOKENS if rarely() else st.sampled_from(values)))
    if draw(st.booleans()):
        argv.append("--json")
    if rarely():
        argv.insert(draw(st.integers(0, len(argv))), draw(_TOKENS))
    return argv


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_argvs(), st.lists(_TOKENS, max_size=8)))
def test_every_argv_gives_a_documented_exit_code(module_files, argv):
    argv = [str(module_files / token) if token in _FILES else token for token in argv]
    clear_caches()  # so that a small --step-budget is spent, not served from the cache
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3, 4), argv
    if code in (cli.EXIT_OK, cli.EXIT_VERIFY_FAILED):
        assert err == "", argv
    if code in (cli.EXIT_BUDGET, cli.EXIT_RESOURCE):
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), argv
    if code == cli.EXIT_USAGE:
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), argv
    if argv and (argv[0] in ("-h", "--help") or argv[0] in _OPTIONS and argv[1:2] in (["-h"], ["--help"])):
        assert code == cli.EXIT_OK and out.startswith("usage: steenrod ") and err == "", argv


# What argparse parsed each command line into, before the table parser replaced it.
_PARSED = [
    (["normalize", "Sq2 Sq2", "--step-budget", "5"], {"expr": "Sq2 Sq2", "step_budget": 5, "json": False}),
    (["normalize", "Sq2 Sq2", "--step-budget=5"], {"expr": "Sq2 Sq2", "step_budget": 5, "json": False}),
    (["normalize", "--step-budget", "5", "Sq2 Sq2"], {"expr": "Sq2 Sq2", "step_budget": 5, "json": False}),
    (["normalize", "--json", "Sq2 Sq2", "--step-budget", "5"], {"expr": "Sq2 Sq2", "step_budget": 5, "json": True}),
    (["normalize", "--step-budget", "5", "--json", "Sq2 Sq2"], {"expr": "Sq2 Sq2", "step_budget": 5, "json": True}),
    (["normalize", "Sq1"], {"expr": "Sq1", "step_budget": cli.DEFAULT_STEP_BUDGET, "json": False}),
    (["normalize", "Sq1", "--step-budget", "5", "--step-budget", "7"], {"expr": "Sq1", "step_budget": 7, "json": False}),
    (["normalize", "Sq1", "--step-budget", "-1"], {"expr": "Sq1", "step_budget": -1, "json": False}),
    (["normalize", "-1"], {"expr": "-1", "step_budget": cli.DEFAULT_STEP_BUDGET, "json": False}),
    (
        ["act", "--on", "t1", "--op", "Sq1", "--json", "--vars", "2", "--op", "Sq2"],
        {"op": "Sq2", "on": "t1", "vars": 2, "json": True},
    ),
    (["act", "--op", "Sq1", "--on", "t1"], {"op": "Sq1", "on": "t1", "vars": None, "json": False}),
    (["total-square", "--on", "t1", "--var=-x"], {"on": "t1", "var": "-x", "json": False}),
    (["basis", "--degree", "-1"], {"degree": -1, "json": False}),
    (["basis", "--deg", "5"], {"degree": 5, "json": False}),
    (["basis", "--degree", " 5 "], {"degree": 5, "json": False}),
    (["derive-adem", "--json", "--degree=3"], {"degree": 3, "json": True}),
    (["verify", "--module", "s3", "--max", "3"], {"module": "s3", "max_degree": 3, "json": False}),
    (["verify", "--mod=s3", "--max-degree=3", "--js"], {"module": "s3", "max_degree": 3, "json": True}),
    (["faithful", "--degree", "4"], {"degree": 4, "json": False}),
    (["distinguish-pi4", "--json"], {"json": True}),
]


@pytest.mark.parametrize("argv, parsed", _PARSED, ids=[" ".join(argv) for argv, _ in _PARSED])
def test_parse_gives_what_argparse_gave(argv, parsed):
    args = cli._parse(argv)
    assert args.func is cli._COMMANDS[argv[0]][0]
    assert {name: value for name, value in vars(args).items() if name not in ("func", "help")} == parsed


@pytest.mark.parametrize(
    "argv",
    [
        ["act", "--o", "Sq1", "--on", "t1"],  # ambiguous: --op or --on
        ["act", "--op", "Sq1"],  # --on is required
        ["normalize", "--step-budget", "3"],  # so is the expression
        ["act", "--op", "Sq1", "--on", "t1", "--frob"],
        ["normalize", "Sq1", "Sq2"],
        ["basis", "--degree", "5", "extra"],
        ["frobnicate"],
        ["--json", "basis", "--degree", "3"],
        [],
        ["basis", "--degree", "x"],
        ["basis", "--degree", "2.5"],
        ["basis", "--degree"],
        ["basis", "--degree", "--json"],
        ["basis", "--json=1", "--degree", "3"],
    ],
    ids=" ".join,
)
def test_usage_errors_give_one_line_and_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help"], ["verify", "--help"], ["act", "-h"], ["basis", "--he"], ["normalize", "Sq1", "--help"]],
    ids=" ".join,
)
def test_help_exits_0_on_stdout(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (cli.EXIT_OK, "")
    assert out.startswith("usage: steenrod ")
    command = argv[0] if argv[0] in cli._COMMANDS else None
    names = cli._COMMANDS if command is None else [*cli._COMMANDS[command][2], "--json", "--help"]
    assert all(f"  {name}" in out for name in names)
