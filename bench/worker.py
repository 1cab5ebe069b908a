"""One repetition of a workload in a fresh process.

Run from the root of a checkout, with PYTHONPATH set to its ``src/``::

    PYTHONPATH=src python3 -S bench/worker.py --workload algebra --seed 1 --mode run

Modes:

* ``setup``: import the package and build the workload's fixed objects;
* ``run``: set-up, then a timed cold pass over the operation list and
  timed warm passes over it again, then the output checks.  For ``cli``
  each operation is a ``python -m steenrod.cli`` process;
* ``inproc``: ``run`` with ``cli`` calls made in process through
  ``cli.main`` (the untraced twin of ``trace`` for ``cli``);
* ``trace``: ``inproc`` with spans recorded around each layer;
* ``memory``: the cold pass alone with tracemalloc on, for the memory it
  leaves behind.

The last line of stdout is one JSON object describing the repetition.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import time
import tracemalloc
from pathlib import Path

import speed
import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
#: CPUs this process may use, counted before it pins itself to one of them.
NPROC = len(os.sched_getaffinity(0))
#: Processes timed for the set-up of one CLI call.
CLI_SETUP_SAMPLES = 11
#: Warm passes per untraced repetition; short warm passes get more of them.
WARM_PASSES = {"algebra": 3, "action": 2, "modules": 1, "cli": 1}
#: Reference kernel samples before and after set-up, for its correction.
SPEED_PROBES = 5


def provenance(S, src: Path) -> dict:
    """Where the package came from and what it runs on; aborts on a foreign package."""
    origin = Path(S.__file__).resolve()
    if origin.parent != (src / "steenrod").resolve():
        raise SystemExit(f"error: steenrod was imported from {origin}, not from {src}")
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "steenrod": str(origin),
        "python": platform.python_version(),
        "nproc": NPROC,
        "cpu": cpu,
    }


def ensure_cold(when: str) -> None:
    from steenrod import adem, poly

    sizes = (len(adem._NF_CACHE), poly._sq_monomial.cache_info().currsize, poly._act_monomial.cache_info().currsize)
    if any(sizes):
        raise SystemExit(f"error: caches not empty {when} (_NF_CACHE, _sq_monomial, _act_monomial = {sizes})")


def run_pass(ops, tracer: Tracer | None):
    """One pass over the operations.

    Returns the raw and the speed-corrected wall seconds, the corrected
    latency of each operation in ns, and the outputs.  The pass is cut into
    segments of about ``speed.SEGMENT_NS``, with a reference kernel sample
    between segments (not counted in any time).
    """
    clock = time.perf_counter_ns
    latencies, outputs, segments = [], [], []
    last = len(ops) - 1
    gc.collect()
    samples = [speed.sample()]
    seg_start = clock()
    for index, (_, fn, arg, _) in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        t = clock()
        try:
            out = fn(arg)
        except Exception as exc:  # counted as a failed operation
            out = workloads.Raised(exc)
        now = clock()
        latencies.append(now - t)
        outputs.append(out)
        if now - seg_start >= speed.SEGMENT_NS or index == last:
            segments.append((index + 1, now - seg_start))
            samples.append(speed.sample())
            seg_start = clock()
    corrected, wall, first = [], 0.0, 0
    for (end, seg_ns), f in zip(segments, speed.segment_factors(samples)):
        corrected.extend(ns * f for ns in latencies[first:end])
        wall += seg_ns * f
        first = end
    return sum(ns for _, ns in segments) / 1e9, wall / 1e9, corrected, outputs


def tail(sorted_ns: list[float]) -> tuple[float, float]:
    """Latency (ms) at the highest percentile with 10 samples beyond it, and that percentile."""
    k = max(0, len(sorted_ns) - 11)
    return sorted_ns[k] / 1e6, 100.0 * (k + 1) / len(sorted_ns)


def comparable(kind: str, out):
    return out[0] if kind == "roundtrip" else out


def canonical(out) -> str:
    """A printable form of an output, equal for equal outputs across processes."""
    if isinstance(out, workloads.Raised):
        return f"raised {out.text}"
    if isinstance(out, (tuple, list)):
        return "(" + ",".join(canonical(x) for x in out) + ")"
    if hasattr(out, "as_dict"):
        return json.dumps(out.as_dict(), sort_keys=True)
    return str(out)


def digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(canonical(out).encode())
        h.update(b"\0")
    return h.hexdigest()


def check_outputs(S, workload, ops, first, full: bool) -> tuple[int, list[str]]:
    """Failed pass-1 operations: raised, or failed their output check (when full)."""
    failed, messages = 0, []
    for (kind, _, arg, meta), out in zip(ops, first):
        if isinstance(out, workloads.Raised):
            problem = f"raised {out.text}"
        elif not full:
            continue
        else:
            try:
                problem = workload.check(S, kind, arg, meta, out)
            except Exception as exc:  # a check that cannot run fails the operation
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failed += 1
            messages.append(f"{kind} pass 1: {problem}")
    return failed, messages


def disagreements(ops, first, later) -> int:
    """Operations of a warm pass that raised or whose output differs from pass 1."""
    return sum(
        isinstance(b, workloads.Raised) or comparable(kind, a) != comparable(kind, b)
        for (kind, *_), a, b in zip(ops, first, later)
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "run", "inproc", "trace", "memory"])
    parser.add_argument(
        "--expect",
        help="digest of the outputs of an earlier, fully checked repetition; "
        "given it, outputs are compared with that digest instead of checked again",
    )
    args = parser.parse_args()

    root = Path.cwd().resolve()
    src = root / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    cli_processes = args.workload == "cli" and args.mode == "run"
    speed.pin_to_one_cpu()

    before = [speed.sample() for _ in range(SPEED_PROBES)]
    start = time.perf_counter()
    import steenrod as S

    if args.workload == "cli":
        import steenrod.cli
    ensure_cold("after import")

    file_dir = root / workloads.Cli.FILE_DIR / str(os.getpid())
    try:
        if args.workload == "cli":
            workload.write_files(S, file_dir)
            if cli_processes:
                runner = lambda argv: workloads.run_cli_process(argv, env)  # noqa: E731
            else:
                runner = lambda argv: workloads.run_cli_in_process(S.cli, argv)  # noqa: E731
            ops = [(argv[0], runner, argv, None) for argv in workload.argvs()]
        else:
            ops = workload.setup(S)
        setup_raw = time.perf_counter() - start
        after = [speed.sample() for _ in range(SPEED_PROBES)]
        record = {
            "setup_raw_s": setup_raw,
            "setup_s": setup_raw * speed.factor(before + after),
            "setup_samples": 1,
            "provenance": provenance(S, src),
        }
        if cli_processes:
            record["setup_samples"] = CLI_SETUP_SAMPLES
            # Set-up of a CLI call is a process that imports steenrod.cli and exits.
            probe = [*workloads.PYTHON, "-c", "import steenrod.cli"]
            setups = [
                speed.corrected_seconds(lambda: subprocess.run(probe, env=env, check=True))
                for _ in range(CLI_SETUP_SAMPLES)
            ]
            record["setup_raw_s"] = statistics.median(raw for raw, _ in setups)
            record["setup_s"] = statistics.median(s for _, s in setups)
        if args.mode == "setup":
            print(json.dumps(record))
            return

        ensure_cold("before pass 1")
        tracer = None
        if args.mode == "trace":
            tracer = Tracer()
            tracer.install()
        elif args.mode == "memory":
            tracemalloc.start()
        raw1, wall1, lat1, out1 = run_pass(ops, tracer)
        if tracer is not None:
            from steenrod import adem

            nf_entries_pass1 = len(adem._NF_CACHE)
        # Warm passes repeat the list in the same process; their rate is the
        # median over them.  Each must reproduce the pass-1 outputs.  A traced
        # repetition makes one, so its layer totals cover passes 1 and 2; a
        # memory repetition makes none, as tracemalloc slows some workloads
        # tenfold and a warm pass adds nothing to the caches.
        warm_count = {"trace": 1, "memory": 0}.get(args.mode, WARM_PASSES[args.workload])
        warm_walls, warm_raws, failed_warm = [], [], 0
        for _ in range(warm_count):
            raw, wall, _, out = run_pass(ops, tracer)
            warm_walls.append(wall)
            warm_raws.append(raw)
            failed_warm += disagreements(ops, out1, out)
            del out
        who = resource.RUSAGE_CHILDREN if cli_processes else resource.RUSAGE_SELF
        record["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024

        if tracer is not None:
            from steenrod import adem, poly

            tracer.uninstall()
            sq_info = poly._sq_monomial.cache_info()
            layers = tracer.layer_totals()
            layers.update(
                {
                    "adem.nf_cache.entries_pass1": nf_entries_pass1,
                    "adem.nf_cache.entries": len(adem._NF_CACHE),
                    "poly.sq_monomial.hit_ratio": sq_info.hits / max(1, sq_info.hits + sq_info.misses),
                    "poly.sq_monomial.entries": sq_info.currsize,
                    "poly.act_monomial.entries": poly._act_monomial.cache_info().currsize,
                }
            )
            record["layers"] = layers
            tracer.write(root / ".bench_out" / f"spans-{args.workload}.csv")
        elif args.mode == "memory":
            # Allocations made during pass 1 and still alive, except the
            # benchmark's own (its lists of latencies and outputs).
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(False, str(BENCH_DIR / "*"))]
            )
            tracemalloc.stop()
            record["retained_mb"] = sum(s.size for s in snapshot.statistics("filename")) / 2**20

        lat1.sort()
        tail_ms, tail_pct = tail(lat1)
        record.update(
            {
                "ops": len(ops),
                "pass_s": [wall1],
                "pass_raw_s": [raw1],
                "cold_ops_per_s": len(ops) / wall1,
                "op_p50_ms": statistics.median(lat1) / 1e6,
                "op_tail_ms": tail_ms,
                "tail_pct": tail_pct,
            }
        )
        if warm_walls:
            wall2 = statistics.median(warm_walls)
            record["pass_s"].append(wall2)
            record["pass_raw_s"].append(statistics.median(warm_raws))
            record["warm_ops_per_s"] = len(ops) / wall2
        record["digest"] = digest(out1)
        failed1, messages = check_outputs(S, workload, ops, out1, args.expect is None)
        if args.expect is not None and record["digest"] != args.expect:
            failed1, messages = len(ops), ["pass 1 outputs differ from the fully checked repetition"]
        if failed_warm:
            messages.append(f"{failed_warm} warm-pass output(s) differ from pass 1")
        record.update(
            {
                "attempted": (1 + len(warm_walls)) * len(ops),
                "failed_pass1": failed1,
                "failed_warm": failed_warm,
                "failures": messages[:5],
            }
        )
        print(json.dumps(record))
    finally:
        if file_dir.exists():
            for path in file_dir.iterdir():
                path.unlink()
            file_dir.rmdir()


if __name__ == "__main__":
    main()
