"""The four seeded workloads: input generation, operations and output checks.

Inputs are generated here from the seed without calling the library;
the library receives only the generated strings and elements.  Each
workload turns them into a list of operations ``(kind, fn, arg, meta)``:
the worker times ``fn(arg)`` one call at a time and afterwards, outside
the timed region, checks each output with ``check(S, kind, arg, meta,
out)``.  Checks call the library again, so they run only after all
passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import time
from pathlib import Path


#: How every interpreter the benchmark starts is invoked.  ``-S`` skips the
#: site module: site-packages start-up hooks of the host (a ``.pth`` file
#: that imports a package costs tens of milliseconds, and varies) would
#: otherwise enter every CLI timing.  steenrod has no dependencies, and the
#: package is found through PYTHONPATH, which ``-S`` keeps.
PYTHON = [sys.executable, "-S"]


class Raised:
    """Marks an operation that raised instead of returning."""

    def __init__(self, exc: BaseException) -> None:
        self.text = f"{type(exc).__name__}: {exc}"


def _composition(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))


def _neighbour(rng: random.Random, word: tuple[int, ...]) -> tuple[int, ...]:
    # Move one unit between two adjacent exponents: same degree, and the
    # rest of the word is shared with the original.
    w = list(word)
    j = rng.randrange(len(w) - 1)
    if w[j] > 1 and (w[j + 1] == 1 or rng.random() < 0.5):
        w[j], w[j + 1] = w[j] - 1, w[j + 1] + 1
    elif w[j + 1] > 1:
        w[j], w[j + 1] = w[j] + 1, w[j + 1] - 1
    return tuple(w)


def _word_text(word: tuple[int, ...]) -> str:
    return " ".join(f"Sq{i}" for i in word)


def _sq_expression(rng: random.Random, pool: list, low: int, high: int) -> tuple[str, int]:
    """A homogeneous sum of 1-3 distinct words whose degree is in [low, high]."""
    if pool and rng.random() < 0.3:
        base = rng.choice(pool)
    else:
        d = rng.randint(low, high)
        base = _composition(rng, d, rng.randint(2, min(5, d)))
        pool.append(base)
    words = [base]
    for _ in range(rng.randint(0, 2)):
        w = _neighbour(rng, rng.choice(words))
        if w not in words:
            words.append(w)
    rng.shuffle(words)
    return " + ".join(_word_text(w) for w in words), sum(base)


def _admissible_word(rng: random.Random) -> tuple[int, ...]:
    word = [rng.randint(1, 3)]
    for _ in range(rng.randint(0, 2)):
        word.insert(0, 2 * word[0] + rng.randint(0, 3))
    return tuple(word)


def _monomial_text(exponents: dict[int, int]) -> str:
    return "*".join(f"t{v}" if e == 1 else f"t{v}^{e}" for v, e in sorted(exponents.items()))


def _poly_text(rng: random.Random, degree: int, nvars: int) -> str:
    """A homogeneous polynomial of the given degree in t1..t_nvars, 1-4 monomials."""
    monos = set()
    for _ in range(rng.randint(1, 4)):
        support = rng.sample(range(1, nvars + 1), rng.randint(1, min(nvars, degree)))
        exps = _composition(rng, degree, len(support))
        monos.add(_monomial_text(dict(zip(support, exps))))
    return " + ".join(sorted(monos))


def _squarefree(S, d: int):
    return S.PolyElement(frozenset({S.make_monomial({j: 1 for j in range(1, d + 1)})}))


def _admissible_count(d: int) -> int:
    # Admissible sequences of degree d, counted independently of the
    # library's enumeration: count(total, cap) sums over the first entry.
    memo: dict[tuple[int, int], int] = {}

    def count(total: int, cap: int) -> int:
        if total == 0:
            return 1
        key = (total, cap)
        if key not in memo:
            memo[key] = sum(count(total - f, f // 2) for f in range(1, min(total, cap) + 1))
        return memo[key]

    return count(d, d)


# ---------------------------------------------------------------------------
# algebra: parse -> normalize -> str, product, admissible_basis


class Algebra:
    """Adem rewriting and the normal-form cache."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"algebra:{seed}")
        pool: list = []
        self.inputs: list[tuple[str, object]] = []
        for _ in range(15000):
            self.inputs.append(("normalize", _sq_expression(rng, pool, 6, 50)))
        for _ in range(3000):
            self.inputs.append(("product", (_admissible_word(rng), _admissible_word(rng))))
        # Three sweeps of the basis up to degree 60: their top degrees are
        # the slowest operations, so they hold the tail percentile steady.
        for d in list(range(1, 61)) * 3:
            self.inputs.append(("basis", d))
        rng.shuffle(self.inputs)

    def setup(self, S):
        def normalize(text):
            result = S.normalize(S.parse_sq(text))
            return result, str(result)

        def product(pair):
            return S.product(pair[0], pair[1])

        def basis(d):
            return S.admissible_basis(d)

        ops = []
        for kind, arg in self.inputs:
            if kind == "normalize":
                ops.append((kind, normalize, arg[0], arg[1]))
            elif kind == "product":
                ops.append((kind, product, (S.Sq(*arg[0]), S.Sq(*arg[1])), arg))
            else:
                ops.append((kind, basis, arg, None))
        return ops

    def check(self, S, kind, arg, meta, out):
        if kind == "normalize":
            d = meta
            result, printed = out
            if not result.is_admissible():
                return "result is not admissible"
            if any(S.degree(w) != d for w in result.words):
                return f"degree changed from {d}"
            if S.normalize(result) != result:
                return "normal form changes when normalized again"
            if S.parse_sq(printed) != result or str(S.parse_sq(printed)) != printed:
                return "print/parse does not round-trip"
            if d <= 8:
                x = _squarefree(S, d)
                if S.act(S.parse_sq(arg), x) != S.act(result, x):
                    return "input and normal form act differently on t1...td"
            return None
        if kind == "product":
            a, b = meta
            d = sum(a) + sum(b)
            if not out.is_admissible() or any(S.degree(w) != d for w in out.words):
                return "product is not admissible of degree deg(a) + deg(b)"
            if d <= 8:
                x = _squarefree(S, d)
                if S.act(out, x) != S.act(S.Sq(*a), S.act(S.Sq(*b), x)):
                    return "product acts differently from the composite"
            return None
        d = arg
        if any(not S.is_admissible(w) or S.degree(w) != d for w in out):
            return "basis word is inadmissible or of the wrong degree"
        if len(set(out)) != len(out) or len(out) != _admissible_count(d):
            return f"basis size {len(out)} != {_admissible_count(d)}"
        return None


# ---------------------------------------------------------------------------
# action: Cartan action, total squares, derivation, faithful rank


class Action:
    """The Cartan action, the GF(2) rank and the double-total-square derivation."""

    SUBSAMPLE = 0.1

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"action:{seed}")
        self.inputs: list[tuple[str, object]] = []
        for _ in range(8000):
            k = rng.randint(2, 10)
            words = {_composition(rng, k, rng.randint(1, min(3, k))) for _ in range(rng.randint(1, 2))}
            op = " + ".join(_word_text(w) for w in sorted(words))
            degree = rng.randint(2, 6)
            p = _poly_text(rng, degree, rng.randint(1, 10))
            self.inputs.append(("act", (op, p, k + degree, rng.random() < self.SUBSAMPLE)))
        for _ in range(500):
            degree = rng.randint(2, 6)
            nvars = rng.randint(1, 6)
            self.inputs.append(("total_square", (_poly_text(rng, degree, nvars), nvars + 1, degree)))
        for m in range(2, 13):
            self.inputs.append(("derive", m))
        # Twelve more faithful_rank(9) calls, warm after the first, make a
        # plateau of equal-cost operations around the tail rank: op_tail_ms
        # then follows the faithful_rank path (columns and GF(2) rank), not
        # whichever random operation a collector pause lands on.
        for d in list(range(1, 11)) + [9] * 12:
            self.inputs.append(("faithful", d))
        rng.shuffle(self.inputs)

    def setup(self, S):
        def act(pair):
            return S.act(pair[0], pair[1])

        def total_square(pair):
            return S.total_square(pair[0], pair[1])

        def derive(m):
            return S.derive_adem_relations(m)

        def faithful(d):
            return S.faithful_rank(d)

        ops = []
        for kind, arg in self.inputs:
            if kind == "act":
                op, p, degree, sampled = arg
                ops.append((kind, act, (S.parse_sq(op), S.parse_poly(p)), (degree, sampled)))
            elif kind == "total_square":
                p, var, degree = arg
                ops.append((kind, total_square, (S.parse_poly(p), var), degree))
            elif kind == "derive":
                ops.append((kind, derive, arg, None))
            else:
                ops.append((kind, faithful, arg, None))
        return ops

    def check(self, S, kind, arg, meta, out):
        if kind == "act":
            degree, sampled = meta
            if not out.is_zero() and out.homogeneous_degree() != degree:
                return f"output is not homogeneous of degree {degree}"
            op, p = arg
            if sampled and S.act(S.normalize(op), p) != out:
                return "act(e) != act(normalize(e))"
            return None
        if kind == "total_square":
            (p, var), m = arg, meta
            if out.homogeneous_degree() != 2 * m:
                return f"total square is not homogeneous of degree {2 * m}"
            if S.coefficient(out, var, m) != p:
                return "coefficient of u^m is not the argument (Sq0 = 1)"
            if S.coefficient(out, var, 0) != S.cup(p, p):
                return "coefficient of u^0 is not the cup square (top square)"
            return None
        if kind == "derive":
            m = arg
            if not out:
                return "no relations"
            for relation in out:
                if any(len(w) > 2 for w in relation.words) or len({S.degree(w) for w in relation.words}) != 1:
                    return f"relation {relation} is not a homogeneous sum of words of length <= 2"
            # The squarefree oracle costs seconds from m = 10 on, so it
            # covers m <= 8 only.
            if m <= 8:
                x = _squarefree(S, m)
                if any(not S.act(r, x).is_zero() for r in out):
                    return "a relation does not vanish on t1...tm"
            return None
        d = arg
        if out != len(S.admissible_basis(d)):
            return f"faithful_rank({d}) = {out} != basis size"
        return None


# ---------------------------------------------------------------------------
# modules: verify_axioms, module files, corrupted tables, pi_4


VERIFY_DEGREE = 10
#: Larger models, each verified up to its top degree: (constructor, n,
#: suspensions).  real_proj(n) and complex_proj(n) with n >= 12 store the
#: product key ("t2", "t10") in numeric order while GradedModule.cup_gens
#: looks it up in string order, so from generator 10 on their products read
#: as zero and verify_axioms reports false Cartan failures.  Products are
#: therefore taken up to n = 11, the largest size built correctly, and the
#: models of degree 30 and more are single suspensions, which carry the
#: square table and no products.
LARGE_MODELS = (("rp", 11, 0), ("cp", 11, 0), ("rp", 30, 1), ("rp", 33, 1), ("cp", 15, 1), ("cp", 17, 1))


def _large_model(S, kind: str, n: int, suspensions: int):
    module, top = (S.real_proj(n), n) if kind == "rp" else (S.complex_proj(n), 2 * n)
    for _ in range(suspensions):
        module = S.suspend(module)
    return module, top + suspensions


def _flip_candidates(module, max_degree: int) -> list:
    """Sq-table entries whose flip verify_axioms must detect.

    Flipping Sq^i(g) breaks (I3) when i = deg g (the cup square is
    unchanged), and breaks the Cartan formula on a pair (a, b) whose
    product contains g, since the right-hand side never mentions Sq^i(g).
    """
    decomposable = set()
    for targets in module.products.values():
        decomposable |= targets
    out = []
    for gid, d in module.generators:
        if d > max_degree:
            continue
        for i in range(1, d + 1):
            if i != d and gid not in decomposable:
                continue
            for target in module.gens_in_degree(d + i):
                out.append((gid, i, target))
    return out


def _flipped(S, base, gid: str, i: int, target: str):
    """A copy of the module with the target toggled in Sq^i(gid)."""
    sq = dict(base.sq)
    flipped = sq.get((gid, i), frozenset()) ^ {target}
    if flipped:
        sq[(gid, i)] = flipped
    else:
        del sq[(gid, i)]
    return S.GradedModule(f"{base.name}+flip", base.generators, sq, dict(base.products), base.top_degree)


class Modules:
    """Table-driven finite modules: no rewriting cache, no polynomial caches."""

    CORRUPTED = 24
    PI4 = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, S):
        from steenrod import modfile

        self.modfile = modfile
        rng = random.Random(f"modules:{self.seed}")
        catalog = S.full_verification_catalog()
        large = [_large_model(S, *spec) for spec in LARGE_MODELS]
        bases = [m for m in catalog if _flip_candidates(m, VERIFY_DEGREE)]
        corrupted = []
        for _ in range(self.CORRUPTED):
            base = rng.choice(bases)
            corrupted.append(_flipped(S, base, *rng.choice(_flip_candidates(base, VERIFY_DEGREE))))

        def verify(arg):
            return S.verify_axioms(arg[0], arg[1])

        def roundtrip(module):
            text = modfile.dumps(module)
            return text, modfile.loads(text)

        def pi4(_):
            return S.distinguish_pi4()

        ops = [("verify", verify, (m, VERIFY_DEGREE), None) for m in catalog]
        ops += [("verify", verify, arg, None) for arg in large]
        ops += [("verify_corrupted", verify, (m, VERIFY_DEGREE), None) for m in corrupted]
        ops += [("roundtrip", roundtrip, m, None) for m in catalog + [m for m, _ in large] + corrupted]
        ops += [("pi4", pi4, None, None)] * self.PI4
        rng.shuffle(ops)
        return ops

    def check(self, S, kind, arg, meta, out):
        if kind in ("verify", "verify_corrupted"):
            module, degree = arg
            if out.module_name != module.name or out.max_degree != degree or out.checks <= 0:
                return "malformed report"
            if kind == "verify" and not out.ok:
                return f"{module.name} fails verification: {out.failures[0]}"
            if kind == "verify_corrupted" and out.ok:
                return f"corrupted {module.name} passes verification"
            return None
        if kind == "roundtrip":
            text, loaded = out
            if self.modfile.dumps(loaded) != text:
                return "dumps differs after a loads round trip"
            return None
        if not out.distinct:
            return "distinguish_pi4 is not distinct"
        return None


# ---------------------------------------------------------------------------
# cli: one process per call, all 8 subcommands


def _module_expr(rng: random.Random, depth: int = 0):
    """A builtin module expression and its construction, as a tree."""
    r = rng.random()
    if depth < 2 and r < 0.25:
        return ("wedge", _module_expr(rng, depth + 1), _module_expr(rng, depth + 1))
    if depth < 2 and r < 0.4:
        return ("susp", _module_expr(rng, depth + 1))
    kind = rng.choice(["s", "rp", "cp"])
    return (kind, rng.randint(1, 3 if kind == "cp" else 8))


def _render(tree) -> str:
    if tree[0] == "wedge":
        return f"wedge({_render(tree[1])},{_render(tree[2])})"
    if tree[0] == "susp":
        return f"susp({_render(tree[1])})"
    return f"{tree[0]}{tree[1]}"


def _build(S, tree):
    if tree[0] == "wedge":
        return S.wedge(_build(S, tree[1]), _build(S, tree[2]))
    if tree[0] == "susp":
        return S.suspend(_build(S, tree[1]))
    return {"s": S.sphere, "rp": S.real_proj, "cp": S.complex_proj}[tree[0]](tree[1])


class Cli:
    """``python -m steenrod.cli ... --json``, one process per call."""

    PER_COMMAND = 9
    FILE_DIR = Path(".bench_tmp")

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"cli:{seed}")
        n = self.PER_COMMAND
        calls = []
        pool: list = []
        for _ in range(n):
            calls.append(("normalize", [_sq_expression(rng, pool, 6, 30)[0]]))
            calls.append(("basis", ["--degree", str(rng.randint(1, 40))]))
            k, degree = rng.randint(2, 8), rng.randint(2, 6)
            op = _word_text(_composition(rng, k, rng.randint(1, min(3, k))))
            calls.append(("act", ["--op", op, "--on", _poly_text(rng, degree, rng.randint(1, 6))]))
            var = rng.choice([None, "u", "t9"])
            calls.append(
                ("total-square", ["--on", _poly_text(rng, rng.randint(1, 5), 4)] + (["--var", var] if var else []))
            )
            calls.append(("faithful", ["--degree", str(rng.randint(1, 8))]))
            calls.append(("distinguish-pi4", []))
        # derive-adem at 5 and 6 carries the CLI-side oracle sweep; the
        # rest of its calls sit at 1-4.
        for m in [5, 6] + [rng.randint(1, 4) for _ in range(n - 2)]:
            calls.append(("derive-adem", ["--degree", str(m)]))
        self.builtins: dict[str, tuple] = {}
        self.file_picks = [rng.randrange(10**6) for _ in range(2)]
        for j in range(n):
            degree = str(rng.randint(6, 10))
            if j < len(self.file_picks):
                # Index of a module file that set-up writes: a catalog module
                # as is, or one with a flipped entry (verify exits 1 on it).
                calls.append(("verify", ["--module", j, "--max-degree", degree]))
            else:
                tree = _module_expr(rng)
                self.builtins[_render(tree)] = tree
                calls.append(("verify", ["--module", _render(tree), "--max-degree", degree]))
        rng.shuffle(calls)
        self.calls = calls

    def write_files(self, S, directory: Path) -> None:
        """Write the module files the verify calls read, and fill in their paths."""
        from steenrod import modfile

        directory.mkdir(parents=True, exist_ok=True)
        catalog = S.full_verification_catalog()
        paths = []
        for j, pick in enumerate(self.file_picks):
            if j == 0:
                module = catalog[pick % len(catalog)]
            else:
                bases = [m for m in catalog if _flip_candidates(m, VERIFY_DEGREE)]
                base = bases[pick % len(bases)]
                cands = _flip_candidates(base, VERIFY_DEGREE)
                module = _flipped(S, base, *cands[pick % len(cands)])
            path = directory / f"module{j}.json"
            modfile.save(module, path)
            paths.append(str(path))
        for command, argv in self.calls:
            if command == "verify" and isinstance(argv[1], int):
                argv[1] = paths[argv[1]]
        self.file_modules = {path: modfile.load(path) for path in paths}

    def argvs(self) -> list[list[str]]:
        return [[command, *argv, "--json"] for command, argv in self.calls]

    def check(self, S, kind, argv, meta, out) -> str | None:
        code, stdout = out
        try:
            doc = json.loads(stdout)
        except ValueError:
            return f"stdout is not JSON (exit {code})"
        command = argv[0]
        opt = dict(zip(argv[1:-1:2], argv[2:-1:2]))

        def same(expected_code, **fields):
            if code != expected_code:
                return f"exit code {code}, expected {expected_code}"
            for key, value in fields.items():
                if doc.get(key) != value:
                    return f"{key}: {doc.get(key)!r} != library {value!r}"
            return None

        if command == "normalize":
            nf = S.normalize(S.parse_sq(argv[1]))
            return same(0, normal_form=str(nf), words=[list(w) for w in nf.sorted_words()], admissible=True)
        if command == "basis":
            words = S.admissible_basis(int(opt["--degree"]))
            return same(0, count=len(words), words=[list(w) for w in words])
        if command == "act":
            return same(0, result=str(S.act(S.parse_sq(opt["--op"]), S.parse_poly(opt["--on"]))))
        if command == "total-square":
            p = S.parse_poly(opt["--on"])
            var = opt.get("--var")
            index = int(var[1:]) if var and var.startswith("t") else max(p.variables(), default=0) + 1
            return same(0, result=str(S.total_square(p, index)), variable=f"t{index}")
        if command == "derive-adem":
            m = int(opt["--degree"])
            relations = S.derive_adem_relations(m)
            local = [not S.normalize(r).is_zero() for r in relations]
            # Exit 1 at m >= 2 is the documented outcome: some relations
            # hold on degree-m classes only.  Nothing is filtered.
            error = same(1 if any(local) else 0, relation_count=len(relations))
            if error:
                return error
            certs = doc["relations"]
            if [c["relation"] for c in certs] != [str(r) for r in relations]:
                return "relations differ from the library"
            if [not c["normalizes_to_zero"] for c in certs] != local:
                return "normalization certificates differ from the library"
            if not all(c["vanishes_on_degree_m_classes"] for c in certs):
                return "a relation is reported not to vanish on degree-m classes"
            return None
        if command == "verify":
            name = opt["--module"]
            module = self.file_modules[name] if name in self.file_modules else _build(S, self.builtins[name])
            report = S.verify_axioms(module, int(opt["--max-degree"]))
            expected = report.as_dict()
            if doc != expected:
                return "report differs from the library"
            return same(0 if report.ok else 1)
        if command == "faithful":
            d = int(opt["--degree"])
            rank, size = S.faithful_rank(d), len(S.admissible_basis(d))
            return same(0 if rank == size else 1, rank=rank, basis_size=size, match=rank == size)
        report = S.distinguish_pi4()
        if doc != report.as_dict():
            return "report differs from the library"
        return same(0 if report.ok else 1)


# No timeouts on these calls: with one, subprocess polls for the child's exit
# with sleeps of up to 50 ms, which would round the measured times.  A run
# that overruns is killed as a whole by bench/run.py.


def run_cli_process(argv: list[str], env: dict) -> tuple[int, str]:
    proc = subprocess.run([*PYTHON, "-m", "steenrod.cli", *argv], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout


def run_cli_in_process(cli_module, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_module.main(argv)
    return code, out.getvalue()


def time_process(args: list[str], env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([*PYTHON, *args], env=env, check=True)
    return time.perf_counter() - start


WORKLOADS = {"algebra": Algebra, "action": Action, "modules": Modules, "cli": Cli}
