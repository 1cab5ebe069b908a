"""The package namespace: the public names, where each lives, and lazy loading."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: The public names of the package, by the layer that defines them.
HOMES = {
    "adem": "AdemElement Sq StepBudgetExceeded Word adem_rewrite admissible_basis degree excess "
    "is_admissible normalize product",
    "derive": "RelationCertificate certify_relations derive_adem_relations vanishes_on_degree",
    "f2": "adem_coeff binom_mod2",
    "modules": "GradedModule ModuleElement Pi4Report VerifyReport act_on_module builtin_catalog "
    "complex_proj cup_elements distinguish_pi4 full_verification_catalog point real_proj sphere "
    "sq_matrix suspend verify_axioms wedge",
    "parsing": "ParseError parse_module parse_poly parse_sq",
    "poly": "Monomial PolyElement act coefficient cup faithful_rank make_monomial sq total_square variable",
}


def test_namespace_in_a_fresh_interpreter():
    probe = """
import importlib, json, sys
import steenrod
report = {"loaded": sorted(m for m in sys.modules if m.startswith("steenrod."))}
report["dir"] = sorted(set(steenrod.__all__) - set(dir(steenrod)))
report["layer"] = steenrod.poly.__name__
homes = json.loads(sys.argv[1])
report["all"] = steenrod.__all__
report["elsewhere"] = sorted(
    name
    for layer, names in homes.items()
    for name in names.split()
    if getattr(steenrod, name) is not getattr(importlib.import_module(f"steenrod.{layer}"), name)
)
star = {}
exec("from steenrod import *", star)
report["unbound"] = sorted(set(steenrod.__all__) - set(star))
try:
    steenrod.no_such_name
    report["unknown"] = "bound"
except AttributeError as err:
    report["unknown"] = str(err)
print(json.dumps(report))
"""
    env = {**os.environ, "PYTHONPATH": SRC}
    argv = [sys.executable, "-c", probe, json.dumps(HOMES)]
    report = json.loads(subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout)
    public = sorted([*" ".join(HOMES.values()).split(), "cache_info", "clear_caches"])
    assert len(public) == 50
    assert report == {
        "loaded": [],
        "dir": [],
        "layer": "steenrod.poly",
        "all": public,
        "elsewhere": [],
        "unbound": [],
        "unknown": "module 'steenrod' has no attribute 'no_such_name'",
    }


def test_lazy_names_load_no_import_machinery():
    # Looking up a public name loads its layer, but neither importlib nor
    # the warnings module that importing importlib brings in.
    probe = f"""
import sys
sys.path.insert(0, {SRC!r})
import steenrod
steenrod.normalize, steenrod.act
print(sorted(name for name in ("importlib", "warnings") if name in sys.modules))
"""
    argv = [sys.executable, "-B", "-S", "-E", "-c", probe]
    assert subprocess.run(argv, capture_output=True, text=True, check=True).stdout == "[]\n"
