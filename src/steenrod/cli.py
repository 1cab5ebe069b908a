"""Command-line surface for the engine.

Results go to stdout, diagnostics to stderr.  Every subcommand takes
``--json`` for machine-readable output; JSON payloads are emitted with
sorted keys so identical inputs give byte-identical output.  They are
written by ``f2.dumps_json``, so that no subcommand loads ``json``, and
the arguments are read with ``str`` methods, so that none loads ``re``.

Each ``_cmd_*`` function prints nothing: it returns its exit code, its
text lines and a zero-argument builder of its JSON payload.  ``main``
is the one place that writes to stdout.  It calls the builder only
under ``--json`` and walks the text lines only without it, so text
mode builds no payload; ``derive-adem`` yields its lines from a
generator, so JSON mode formats none of them.  A reader that closes
stdout early does not change the exit code and gets no error message.

The command-line syntax is one table, ``_COMMANDS``, of each
subcommand's function, help and arguments: ``_parse`` reads argv with
it and ``_help`` prints it for ``-h``/``--help`` (exit 0).  An option
takes its value from the next token or after '=', may be shortened to
a unique prefix, and keeps its last value when repeated; a usage error
is one ``error:`` line on stderr.  Each subcommand imports the layers
it calls when it runs, so start-up loads only ``adem`` and ``f2``, and
no argument-parsing library (``GradedModule`` in the annotations is
``steenrod.modules.GradedModule``).

``main`` is the library call: it takes argv, writes, and returns the
exit code, and tests and benchmarks call it again and again in one
process.  ``run`` is the process entry, of ``python -m steenrod.cli``
and of the installed ``steenrod`` script: it returns ``main()``'s code
after ``gc.freeze()``.  The collector never visits frozen objects
again, so the interpreter's final collections at exit, a few ms of
walking a heap the OS is about to reclaim, find almost nothing to scan.
``main`` never freezes, so in-process callers keep a collectable heap.

Exit codes: 0 success, 1 a verification report contains failures,
2 parse or usage error, 3 rewrite step budget exceeded, 4 memory or
recursion depth exhausted.
"""

from __future__ import annotations

import gc
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from types import SimpleNamespace

from .adem import DEFAULT_STEP_BUDGET, StepBudgetExceeded
from .f2 import dumps_json

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_RESOURCE = 4

#: Largest --degree of basis, faithful and derive-adem, and --max-degree of verify
#: (derive-adem 112: about 4 s with --json).
MAX_DEGREE = 112

#: What a subcommand returns: exit code, text lines, JSON payload builder.
Result = tuple[int, Iterable[str], Callable[[], dict]]


def resolve_module(name_or_path: str) -> GradedModule:
    """A module from a builtin constructor expression or a definition file."""
    if name_or_path.endswith(".json") or os.path.isfile(name_or_path):
        from .modfile import load

        return load(name_or_path)
    from .parsing import parse_module

    return parse_module(name_or_path)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_normalize(args: SimpleNamespace) -> Result:
    from .adem import normalize
    from .parsing import parse_sq

    if args.step_budget < 0:  # normalize would refuse only inputs that need a rewrite
        raise ValueError("step budget must be a natural number")
    result = normalize(parse_sq(args.expr), step_budget=args.step_budget)
    return EXIT_OK, [str(result)], lambda: {
        "input": args.expr,
        "normal_form": str(result),
        "words": [list(w) for w in result.sorted_words()],
        "admissible": result.is_admissible(),
    }


def _cmd_basis(args: SimpleNamespace) -> Result:
    from .adem import AdemElement, admissible_basis

    words = admissible_basis(args.degree)
    printed = [str(AdemElement(frozenset({w}))) for w in words]
    return EXIT_OK, printed, lambda: {
        "degree": args.degree,
        "count": len(words),
        "words": [list(w) for w in words],
        "printed": printed,
    }


def _cmd_act(args: SimpleNamespace) -> Result:
    from .parsing import parse_poly, parse_sq
    from .poly import act

    if args.vars is not None and args.vars < 0:  # else only a polynomial with a variable is refused
        raise ValueError("--vars must be a natural number")
    operation = parse_sq(args.op)
    target = parse_poly(args.on)
    if args.vars is not None:
        too_big = sorted(v for v in target.variables() if v > args.vars)
        if too_big:
            raise ValueError(f"polynomial uses t{too_big[0]} but --vars is {args.vars}")
    result = str(act(operation, target))
    return EXIT_OK, [result], lambda: {"operation": args.op, "argument": args.on, "result": result}


def _cmd_total_square(args: SimpleNamespace) -> Result:
    from .parsing import parse_poly
    from .poly import total_square

    target = parse_poly(args.on)
    fresh = max(target.variables(), default=0) + 1
    if args.var is None:
        var = fresh
    elif args.var.removeprefix("t").isdecimal():
        try:
            var = int(args.var.removeprefix("t"))
        except ValueError:  # a decimal int() refuses has more digits than it reads
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"option --var: numbers are limited to {limit} digits") from None
        if var < 1:
            raise ValueError(f"variables are numbered from t1 (got {args.var!r})")
    elif args.var[:1].isascii() and args.var[:1].isalpha() and args.var.replace("_", "a").isalnum():
        var = fresh  # a symbolic name like 'u' stands for the next unused index
    else:
        raise ValueError(f"--var must be a name or an index like t4 (got {args.var!r})")
    result = str(total_square(target, var))
    return EXIT_OK, [result], lambda: {"argument": args.on, "variable": f"t{var}", "result": result}


def _cmd_derive_adem(args: SimpleNamespace) -> Result:
    from .derive import certify_relations

    m = args.degree
    certificates = certify_relations(m)
    all_zero = all(cert.normalizes_to_zero for cert in certificates)

    def lines() -> Iterator[str]:  # formatted only when printed
        for cert in certificates:
            status = "0" if cert.normalizes_to_zero else str(cert.normal_form)
            yield (
                f"{cert.relation}  ->  normal form: {status}"
                + ("" if cert.normalizes_to_zero else "  [nonzero: holds on degree-%d classes only]" % m)
            )
        yield (
            f"{len(certificates)} relation(s); "
            + ("all normalize to 0" if all_zero else "some hold only in source degree %d" % m)
        )

    return EXIT_OK if all_zero else EXIT_VERIFY_FAILED, lines(), lambda: {
        "degree": m,
        "relation_count": len(certificates),
        "relations": [cert.as_dict() for cert in certificates],
        "all_normalize_to_zero": all_zero,
    }


def _cmd_verify(args: SimpleNamespace) -> Result:
    from .modules import verify_axioms

    if args.max_degree < 0:  # below degree 0 verify_axioms would check only the table entries
        raise ValueError("degree must be a natural number")
    report = verify_axioms(resolve_module(args.module), args.max_degree)
    lines = [f"FAIL [{f.axiom}] {f.where}: {f.detail}" for f in report.failures]
    lines.append(
        f"{report.module_name}: {report.checks} checks up to degree {report.max_degree}, "
        + ("all passed" if report.ok else f"{len(report.failures)} failure(s)")
    )
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED, lines, report.as_dict


def _cmd_faithful(args: SimpleNamespace) -> Result:
    from .adem import admissible_basis
    from .poly import faithful_rank

    d = args.degree
    rank = faithful_rank(d)
    basis_size = len(admissible_basis(d))
    match = rank == basis_size
    line = (
        f"degree {d}: action rank {rank}, admissible basis size {basis_size} "
        + ("(faithful)" if match else "(MISMATCH)")
    )
    return EXIT_OK if match else EXIT_VERIFY_FAILED, [line], lambda: {
        "degree": d,
        "rank": rank,
        "basis_size": basis_size,
        "match": match,
    }


def _cmd_distinguish(args: SimpleNamespace) -> Result:
    from .modules import distinguish_pi4

    report = distinguish_pi4()
    lines = [
        f"Sq^2 matrix on H^3({report.suspension_name}): {[list(r) for r in report.suspension_matrix]} "
        f"(rank {report.suspension_rank})",
        f"Sq^2 matrix on H^3({report.wedge_name}): {[list(r) for r in report.wedge_matrix]} "
        f"(rank {report.wedge_rank})",
        *report.conclusion,
    ]
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED, lines, report.as_dict


# ---------------------------------------------------------------------------
# Command-line syntax

_REQUIRED = object()  # the default of an argument that must be given

#: Each subcommand's function, help and arguments.  An argument maps to its
#: converter (None for a flag), its default and its help; a name without
#: dashes is positional.  Every subcommand also takes the _COMMON flags.
_COMMANDS: dict[str, tuple[Callable[[SimpleNamespace], Result], str, dict[str, tuple]]] = {
    "normalize": (_cmd_normalize, "rewrite a Sq expression to the admissible basis", {
        "expr": (str, _REQUIRED, "expression like 'Sq2 Sq2 + Sq1'"),
        "--step-budget": (int, DEFAULT_STEP_BUDGET, "max rewrite steps before giving up (exit code 3)"),
    }),
    "basis": (_cmd_basis, "list the admissible words of a degree", {
        "--degree": (int, _REQUIRED, "degree of the words"),
    }),
    "act": (_cmd_act, "apply a Sq expression to a polynomial", {
        "--op": (str, _REQUIRED, "Sq expression"),
        "--on": (str, _REQUIRED, "polynomial like 't1^2*t2'"),
        "--vars": (int, None, "restrict variables to t1..tK"),
    }),
    "total-square": (_cmd_total_square, "total square against a fresh variable", {
        "--on": (str, _REQUIRED, "homogeneous polynomial"),
        "--var": (str, None, "fresh variable, e.g. t4 (default: next unused)"),
    }),
    "derive-adem": (_cmd_derive_adem, "re-derive operator relations at a source degree", {
        "--degree": (int, _REQUIRED, "degree of the generic class"),
    }),
    "verify": (_cmd_verify, "check the Steenrod axioms on a module", {
        "--module": (str, _REQUIRED, "builtin expression (s3, rp8, wedge(s5,s3), susp(cp2)) or a .json file"),
        "--max-degree": (int, _REQUIRED, "highest degree to check"),
    }),
    "faithful": (_cmd_faithful, "compare action rank with the admissible basis size", {
        "--degree": (int, _REQUIRED, "degree of the operations"),
    }),
    "distinguish-pi4": (_cmd_distinguish, "run the Sq^2 comparison showing π₄(S³) ≠ 0", {}),
}
_COMMON = {"--json": (None, False, "emit JSON on stdout"), "--help": (None, False, "show this help (or -h)")}


def _is_option(token: str) -> bool:
    """Whether a token names an option: '-' and more, but not a negative number like -1."""
    return token[:1] == "-" and token[1:2] not in ("", "\n") and not token[1:].isdecimal()


def _help(command: str | None) -> str:
    """What -h/--help prints: the subcommands, or the arguments of one."""
    if command is None:
        usage, text = ["COMMAND [options]"], "Mod-2 Steenrod algebra calculator"
        rows = {name: help_text for name, (_, help_text, _) in _COMMANDS.items()}
    else:
        (_, text, arguments), usage, rows = _COMMANDS[command], [command], {}
        for name, (convert, default, help_text) in {**arguments, **_COMMON}.items():
            label = f"{name} {convert.__name__.upper()}" if convert and name[0] == "-" else name
            usage.append(label if default is _REQUIRED else f"[{label}]")
            rows[label] = help_text
    lines = [f"usage: steenrod {' '.join(usage)}", "", text, ""]
    return "\n".join(lines + [f"  {label:<19}{help_text}" for label, help_text in rows.items()])


def _parse(argv: list[str]) -> SimpleNamespace | str:
    """The arguments the ``_cmd_*`` functions read, or the text -h/--help asks for."""
    command, *tokens = argv or [""]
    if command in ("-h", "--help"):
        return _help(None)
    if command not in _COMMANDS:
        got = f" (got {command!r})" if argv else ""
        raise ValueError(f"expected a command: {', '.join(_COMMANDS)}{got}")
    func, _, arguments = _COMMANDS[command]
    options = {**arguments, **_COMMON}
    attrs = {name: name.lstrip("-").replace("-", "_") for name in options}
    args = SimpleNamespace(func=func, **{attrs[name]: default for name, (_, default, _) in options.items()})
    positional = [name for name in arguments if name[0] != "-"]
    tokens = iter(tokens)
    for token in tokens:
        if not _is_option(token):
            if not positional:
                raise ValueError(f"unrecognized argument {token!r}")
            name, value = positional.pop(0), token
        else:
            name, eq, value = ("--help" if token == "-h" else token).partition("=")
            found = [name] if name in options else [option for option in options if option.startswith(name)]
            if len(found) != 1:
                raise ValueError(f"{'ambiguous' if found else 'unrecognized'} option {name!r}")
            name = found[0]
            if options[name][0] is None:  # a flag
                if eq:
                    raise ValueError(f"option {name} takes no value")
                if name == "--help":
                    return _help(command)
                args.json = True
                continue
            if not eq:
                value = next(tokens, "--")  # as if the next token were an option
                if _is_option(value):
                    raise ValueError(f"option {name} needs a value")
        convert = options[name][0]
        try:
            setattr(args, attrs[name], convert(value))
        except ValueError:
            if sum(map(str.isdecimal, value)) > (limit := sys.get_int_max_str_digits()):  # not echoed whole
                raise ValueError(f"option {name}: numbers are limited to {limit} digits") from None
            raise ValueError(f"option {name}: invalid {convert.__name__} value {value!r}") from None
    missing = [name for name in options if getattr(args, attrs[name]) is _REQUIRED]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            code, lines = EXIT_OK, [args]
        elif getattr(args, "degree", getattr(args, "max_degree", 0)) > MAX_DEGREE:
            raise ValueError(f"degree must be at most {MAX_DEGREE}")
        else:
            code, lines, payload = args.func(args)
            if args.json:
                lines = [dumps_json(payload())]
        try:
            for line in lines:
                print(line)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader has gone; point stdout at devnull so exit flushes nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except StepBudgetExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, RecursionError) as err:
        print(f"error: resources exhausted ({type(err).__name__})", file=sys.stderr)
        return EXIT_RESOURCE


def run() -> int:
    """The process entry: ``main()``'s exit code, with the heap frozen for a cheap exit."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
