"""Command-line surface for the engine.

Results go to stdout, diagnostics to stderr.  Every subcommand takes
``--json`` for machine-readable output; JSON payloads are emitted with
sorted keys so identical inputs give byte-identical output.

Exit codes: 0 success, 1 a verification report contains failures,
2 parse or usage error, 3 rewrite step budget exceeded, 4 memory or
recursion depth exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .adem import (
    DEFAULT_STEP_BUDGET,
    AdemElement,
    StepBudgetExceeded,
    admissible_basis,
    normalize,
)
from .derive import certify_relations
from .modules import GradedModule, distinguish_pi4, verify_axioms
from .poly import act, faithful_rank, total_square
from .parsing import parse_module, parse_poly, parse_sq
from . import modfile

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_RESOURCE = 4

#: Largest --degree of basis, faithful and derive-adem (derive-adem 112: about 6 s).
MAX_DEGREE = 112


def _emit(payload: dict, text_lines: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def resolve_module(name_or_path: str) -> GradedModule:
    """A module from a builtin constructor expression or a definition file."""
    if name_or_path.endswith(".json") or os.path.exists(name_or_path):
        return modfile.load(name_or_path)
    return parse_module(name_or_path)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_normalize(args: argparse.Namespace) -> int:
    element = parse_sq(args.expr)
    result = normalize(element, step_budget=args.step_budget)
    payload = {
        "input": args.expr,
        "normal_form": str(result),
        "words": [list(w) for w in result.sorted_words()],
        "admissible": result.is_admissible(),
    }
    _emit(payload, [str(result)], args.json)
    return EXIT_OK


def _cmd_basis(args: argparse.Namespace) -> int:
    words = admissible_basis(args.degree)
    printed = [str(AdemElement(frozenset({w}))) for w in words]
    payload = {
        "degree": args.degree,
        "count": len(words),
        "words": [list(w) for w in words],
        "printed": printed,
    }
    _emit(payload, printed, args.json)
    return EXIT_OK


def _cmd_act(args: argparse.Namespace) -> int:
    operation = parse_sq(args.op)
    target = parse_poly(args.on)
    if args.vars is not None:
        too_big = sorted(v for v in target.variables() if v > args.vars)
        if too_big:
            raise ValueError(f"polynomial uses t{too_big[0]} but --vars is {args.vars}")
    result = act(operation, target)
    payload = {"operation": args.op, "argument": args.on, "result": str(result)}
    _emit(payload, [str(result)], args.json)
    return EXIT_OK


def _cmd_total_square(args: argparse.Namespace) -> int:
    target = parse_poly(args.on)
    fresh = max(target.variables(), default=0) + 1
    if args.var is None:
        var = fresh
    elif re.fullmatch(r"t?(\d+)", args.var):
        var = int(args.var.lstrip("t"))
        if var < 1:
            raise ValueError(f"variables are numbered from t1 (got {args.var!r})")
    elif re.fullmatch(r"[A-Za-z]\w*", args.var):
        var = fresh  # a symbolic name like 'u' stands for the next unused index
    else:
        raise ValueError(f"--var must be a name or an index like t4 (got {args.var!r})")
    result = total_square(target, var)
    payload = {"argument": args.on, "variable": f"t{var}", "result": str(result)}
    _emit(payload, [str(result)], args.json)
    return EXIT_OK


def _cmd_derive_adem(args: argparse.Namespace) -> int:
    m = args.degree
    certificates = certify_relations(m)
    all_zero = all(cert.normalizes_to_zero for cert in certificates)
    payload = {
        "degree": m,
        "relation_count": len(certificates),
        "relations": [cert.as_dict() for cert in certificates],
        "all_normalize_to_zero": all_zero,
    }
    lines = []
    for cert in certificates:
        status = "0" if cert.normalizes_to_zero else str(cert.normal_form)
        lines.append(
            f"{cert.relation}  ->  normal form: {status}"
            + ("" if cert.normalizes_to_zero else "  [nonzero: holds on degree-%d classes only]" % m)
        )
    lines.append(
        f"{len(certificates)} relation(s); "
        + ("all normalize to 0" if all_zero else "some hold only in source degree %d" % m)
    )
    _emit(payload, lines, args.json)
    return EXIT_OK if all_zero else EXIT_VERIFY_FAILED


def _cmd_verify(args: argparse.Namespace) -> int:
    module = resolve_module(args.module)
    report = verify_axioms(module, args.max_degree)
    payload = report.as_dict()
    lines = []
    for failure in report.failures:
        lines.append(f"FAIL [{failure.axiom}] {failure.where}: {failure.detail}")
    lines.append(
        f"{report.module_name}: {report.checks} checks up to degree {report.max_degree}, "
        + ("all passed" if report.ok else f"{len(report.failures)} failure(s)")
    )
    _emit(payload, lines, args.json)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _cmd_faithful(args: argparse.Namespace) -> int:
    d = args.degree
    rank = faithful_rank(d)
    basis_size = len(admissible_basis(d))
    match = rank == basis_size
    payload = {"degree": d, "rank": rank, "basis_size": basis_size, "match": match}
    lines = [
        f"degree {d}: action rank {rank}, admissible basis size {basis_size} "
        + ("(faithful)" if match else "(MISMATCH)")
    ]
    _emit(payload, lines, args.json)
    return EXIT_OK if match else EXIT_VERIFY_FAILED


def _cmd_distinguish(args: argparse.Namespace) -> int:
    report = distinguish_pi4()
    payload = report.as_dict()
    lines = [
        f"Sq^2 matrix on H^3({report.suspension_name}): {[list(r) for r in report.suspension_matrix]} "
        f"(rank {report.suspension_rank})",
        f"Sq^2 matrix on H^3({report.wedge_name}): {[list(r) for r in report.wedge_matrix]} "
        f"(rank {report.wedge_rank})",
        *report.conclusion,
    ]
    _emit(payload, lines, args.json)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steenrod",
        description="Mod-2 Steenrod algebra calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        p.set_defaults(func=func)
        return p

    p = add("normalize", _cmd_normalize, "rewrite a Sq expression to the admissible basis")
    p.add_argument("expr", help="expression like 'Sq2 Sq2 + Sq1'")
    p.add_argument(
        "--step-budget",
        type=int,
        default=DEFAULT_STEP_BUDGET,
        help="max rewrite steps before giving up (exit code 3)",
    )

    p = add("basis", _cmd_basis, "list the admissible words of a degree")
    p.add_argument("--degree", type=int, required=True)

    p = add("act", _cmd_act, "apply a Sq expression to a polynomial")
    p.add_argument("--op", required=True, help="Sq expression")
    p.add_argument("--on", required=True, help="polynomial like 't1^2*t2'")
    p.add_argument("--vars", type=int, default=None, help="restrict variables to t1..tK")

    p = add("total-square", _cmd_total_square, "total square against a fresh variable")
    p.add_argument("--on", required=True, help="homogeneous polynomial")
    p.add_argument("--var", default=None, help="fresh variable, e.g. t4 (default: next unused)")

    p = add("derive-adem", _cmd_derive_adem, "re-derive operator relations at a source degree")
    p.add_argument("--degree", type=int, required=True, help="degree of the generic class")

    p = add("verify", _cmd_verify, "check the Steenrod axioms on a module")
    p.add_argument(
        "--module",
        required=True,
        help="builtin expression (s3, rp8, wedge(s5,s3), susp(cp2)) or a .json file",
    )
    p.add_argument("--max-degree", type=int, required=True)

    p = add("faithful", _cmd_faithful, "compare action rank with the admissible basis size")
    p.add_argument("--degree", type=int, required=True)

    add("distinguish-pi4", _cmd_distinguish, "run the Sq^2 comparison showing π₄(S³) ≠ 0")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        if args.command in ("basis", "faithful", "derive-adem") and args.degree > MAX_DEGREE:
            raise ValueError(f"degree must be at most {MAX_DEGREE}")
        return args.func(args)
    except StepBudgetExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, RecursionError) as err:
        print(f"error: resources exhausted ({type(err).__name__})", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
