"""Benchmark for the steenrod engine.

Run from the root of a checkout (stdlib only, no build step)::

    python3 bench/run.py --workload algebra --seed 1 --seconds 25 --trace 0

Workloads: ``algebra`` (Adem rewriting), ``action`` (Cartan action, GF(2)
rank, derivation), ``modules`` (finite module tables and module files)
and ``cli`` (one ``python -m steenrod.cli`` process per call).  Each
repetition runs in a fresh worker process whose PYTHONPATH is this
checkout's ``src/``; repetitions run one after another, never in
parallel, until ``--seconds`` is used up.  Every operation's output is
checked after the timed passes.

Times are corrected for the speed of a shared machine (``bench/speed.py``):
each measured interval is scaled by how fast a fixed reference kernel ran
around it, to what the code takes where one kernel run takes 2 ms.  The
uncorrected figures are printed beside them.

``--trace 0`` prints the end-to-end metrics (medians over the
repetitions); ``--trace 1`` alternates untraced and traced repetitions,
ends with one repetition under tracemalloc, and prints the per-layer
metrics.  The last stdout line is a JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

WORKLOADS = ("algebra", "action", "modules", "cli")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
#: Extra set-up-only processes per in-process run, so setup_s is a median
#: over more samples than there are repetitions.
SETUP_PROBES = 2
#: Untraced repetitions made even when --seconds is short (a traced run
#: makes at least one untraced/traced pair).
MIN_REPS = {"algebra": 3, "action": 2, "modules": 3, "cli": 1}
#: Whole-run limit; a worker is killed if it would run past it.
RUN_LIMIT_S = 170
#: Interpreter start-ups timed for cli.interpreter_s and cli.import_s.
STARTUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "cold_ops_per_s": "1/s",
    "warm_ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class WorkerFailed(RuntimeError):
    pass


def run_worker(
    root: Path, env: dict, workload: str, seed: int, mode: str, deadline: float, expect: str | None = None
) -> dict:
    timeout = max(1.0, deadline - time.perf_counter())
    command = [*workloads.PYTHON, str(BENCH_DIR / "worker.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    if expect is not None:
        command += ["--expect", expect]
    # A new session, so that a worker that overruns is killed together
    # with any steenrod.cli process it started.
    proc = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"{mode} worker ran past the {RUN_LIMIT_S} s limit") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited with {proc.returncode}:\n{stderr.strip()}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_checked(root: Path, env: dict, args, mode: str, deadline: float, first: dict | None) -> dict:
    """A repetition; unless it is the first, its outputs must equal the first's."""
    rep = run_worker(root, env, args.workload, args.seed, mode, deadline, first and first["digest"])
    if first is not None and rep["digest"] == first["digest"]:
        # Same outputs as the fully checked repetition, so the same verdicts.
        rep["failed_pass1"] = first["failed_pass1"]
    return rep


def process_seconds(env: dict, code: str) -> float:
    """Median wall time of a fresh interpreter running the given code."""
    return statistics.median(workloads.time_process(["-c", code], env) for _ in range(STARTUP_SAMPLES))


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main() -> int:
    parser = argparse.ArgumentParser(description="steenrod benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "steenrod" / "__init__.py").is_file():
        print(f"error: {root} is not a steenrod checkout (src/steenrod is missing)", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    budget_end = start + args.seconds
    cli = args.workload == "cli"

    setups: list[float] = []
    reps: list[dict] = []
    traced: list[dict] = []
    traced_extra: list[dict] = []
    try:
        if not cli and not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_worker(root, env, args.workload, args.seed, "setup", deadline)["setup_s"])
        if args.trace:
            cycle = ["inproc" if cli else "run", "trace"]
        else:
            cycle = ["run"]
        checked: dict[str, dict] = {}
        while True:
            t = time.perf_counter()
            for mode in cycle:
                # The first repetition of each mode checks every output; later
                # ones must reproduce its outputs exactly.
                rep = run_checked(root, env, args, mode, deadline, checked.get(mode))
                checked.setdefault(mode, rep)
                (traced if mode == "trace" else reps).append(rep)
            # Another cycle takes about as long as the last one; a traced run
            # also ends with one memory repetition, about as long as a cycle.
            reserve = (time.perf_counter() - t) * (2 if args.trace else 1)
            enough = args.trace or len(reps) >= MIN_REPS[args.workload]
            if enough and time.perf_counter() + reserve > budget_end:
                break
        if args.trace:
            memory = run_checked(root, env, args, "memory", deadline, checked["trace"])
            traced_extra = [memory]
            interpreter_s = process_seconds(env, "pass")
            import_s = process_seconds(env, "import steenrod.cli") - interpreter_s
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    everything = reps + traced + traced_extra
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed_pass1"] + r["failed_warm"] for r in everything)
    prov = reps[0]["provenance"]
    print(
        f"provenance: steenrod={prov['steenrod']} python={prov['python']} "
        f"nproc={prov['nproc']} cpu={prov['cpu']!r}"
    )
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"repetitions={len(reps)}+{len(traced)} traced, ops per pass={reps[0]['ops']}"
    )
    for r in everything:
        for message in r["failures"]:
            print(f"FAILED {message}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed}/{attempted})")

    metrics = {}
    if args.trace:
        layers = {name: statistics.median(r["layers"].get(name, 0) for r in traced) for name in LAYER_METRICS}
        untraced_s = statistics.median(sum(r["pass_s"]) for r in reps)
        traced_s = statistics.median(sum(r["pass_s"]) for r in traced)
        layers["trace.overhead_ratio"] = traced_s / untraced_s
        layers["trace.retained_mb"] = memory["retained_mb"]
        layers["cli.interpreter_s"] = interpreter_s
        layers["cli.import_s"] = import_s
        for name, (unit, _, moves) in LAYER_METRICS.items():
            metrics[name] = {"value": layers[name], "unit": unit}
            print(f"{name} = {fmt(layers[name])} {unit}  [moves {moves}]")
    else:
        setups += [r["setup_s"] for r in reps]
        samples = len(setups) - len(reps) + sum(r["setup_samples"] for r in reps)
        values = {name: statistics.median(r[name] for r in reps) for name in END_TO_END if name != "setup_s"}
        values["setup_s"] = statistics.median(setups)
        tail_pct = reps[0]["tail_pct"]
        print("cold_ops_per_s per repetition: " + " ".join(fmt(r["cold_ops_per_s"]) for r in reps))
        raw_rates = " ".join(fmt(r["ops"] / r["pass_raw_s"][0]) for r in reps)
        print(f"uncorrected: cold_ops_per_s per repetition {raw_rates}; "
              f"setup_s median {fmt(statistics.median(r['setup_raw_s'] for r in reps))} s")
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
            extra = ""
            if name == "op_tail_ms":
                extra = f"  (p{tail_pct:.4g} of {reps[0]['ops']} pass-1 ops, 10 beyond it)"
            elif name == "setup_s":
                extra = f"  (median over {samples} set-ups)"
            print(f"{name} = {fmt(values[name])} {unit}{extra}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
