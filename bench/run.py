#!/usr/bin/env python3
"""ewire benchmark: the ``qft``, ``rewrite`` and ``cli`` workloads.

One run:

    python3 bench/run.py --workload qft --seed 1 --seconds 20 --trace 0

measures one workload in this process (``cli`` starts one child process
per op) and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``END_TO_END``);
with ``--trace 1`` the run is traced and the metrics are the per-layer
ones (``PER_LAYER``).  The lines before it name every metric with its
unit and record the machine, the settings and the details
(percentiles, counts, cache state) behind each number.

All workloads, each run in a fresh interpreter: ``--runs`` untraced
runs per workload on consecutive seeds, summarised as median and
quartile spread, then two traced runs whose per-op counts must agree:

    python3 bench/run.py --seed 501 --runs 10 --seconds 20 [--out FILE]

``--out`` writes every result with the machine and settings to a JSON
file.  BLAS runs on one thread in every process, and every process of a
run is pinned to one CPU.  Untraced runs give op and set-up times at a
reference host speed, measured on that CPU while they run (see
hostspeed.py); the report line keeps the times as taken.  See bench/README.md
for why each workload was chosen and what each metric should move.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, here and in every child process
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import Sampler  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# A layer time reads 0 on a workload that never reaches the layer (e.g.
# parser on rewrite); the counts must repeat exactly between traced passes.
PER_LAYER = {
    "parser.parse_program.s": "s",
    "qlist.monomorphize.s": "s",
    "typecheck.check_program.s": "s",
    "typecheck.elaborate_sugar.s": "s",
    "typecheck.check_circuit.s": "s",
    "normalize.normalize.s": "s",
    "normalize.check_equiv.s": "s",
    "denote.evaluate_program.s": "s",
    "denote.denote_circuit.s": "s",
    "denote.self_s": "s",
    "algebra.compose_tensored.s": "s",
    "algebra.factor_permutation.s": "s",
    "algebra.copower_stack.s": "s",
    "algebra.gate_denotation.s": "s",
    "algebra.frobenius_distance.s": "s",
    "algebra.is_cp.s": "s",
    "algebra.superop_to_json.s": "s",
    "cli.startup_s": "s",
    "cli.main.s": "s",
    "trace.overhead_s": "s",
    "parser.source_bytes": "B",
    "qlist.decls_out": "count",
    "typecheck.check_circuit.calls": "count",
    "denote.check_fallbacks": "count",
    "denote.fuel_used": "count",
    "denote.lift_branches": "count",
    "denote.lift_zero_branches": "count",
    "denote.lift_useful_ratio": "ratio",
    "normalize.steps": "count",
    "algebra.compose_tensored.calls": "count",
    "algebra.compose_tensored.macs": "count",
    "algebra.factor_permutation.calls": "count",
    "algebra.gate_denotation.calls": "count",
    "algebra.bytes_materialised": "B",
    "algebra.peak_matrix_bytes": "B",
    "cli.stdout_bytes": "B",
    "cli.traceback_count": "count",
}

# the counts of each op that must repeat exactly, within a traced run and,
# with a fingerprint of the op's output, between traced runs in fresh
# interpreters
GATE = (
    "algebra.compose_tensored.calls",
    "algebra.compose_tensored.macs",
    "denote.check_fallbacks",
    "denote.fuel_used",
    "denote.lift_zero_branches",
    "normalize.steps",
    "cli.stdout_bytes",
)

# Every input runs in at least this many timed passes.  Its latency is
# the median over its passes of the time each took, divided by the host's
# slowdown while it ran (see hostspeed.py).
MIN_PASSES = 3

# One fresh interpreter per this much op time, spread over the timed
# phase, so that the median set-up time spans the run rather than one
# moment of the host.
SETUP_EVERY_S = 1.5
SETUP_REPEATS = 10  # cli.startup_s in a traced run

CACHE_STATE = {
    "qft": "algebra._pair_map_cache is warm when timing starts: one untimed op runs first",
    "rewrite": "algebra._pair_map_cache is cold when timing starts; pass 1 fills it",
    "cli": "every op is a fresh process and pays algebra._pair_map_cache cold",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": BLAS_PIN,
    }


def fresh_import_windows(module: str, env: dict, repeats: int) -> list[tuple[float, float]]:
    """Start and end of fresh interpreters finishing ``import module``.

    The child reads the same monotonic clock as this process, so the
    window excludes the child's exit."""
    code = f"import time, {module}; print(time.perf_counter())"
    windows = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True,
        ).stdout
        windows.append((t0, float(out.split()[-1])))
    return windows


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child, to one CPU, which the
    host-speed sampler then watches."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def tail(best: list) -> tuple[float, int, int]:
    """The tail latency over the inputs' latencies ``best``: the highest
    whole percentile with at least 10 inputs beyond it.  With too few
    inputs for that to be p90 or above, the slowest input.  Returns
    ``(value, percentile, inputs beyond it)``."""
    ordered = sorted(best)
    n = len(ordered)
    pct = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if pct < 90:
        return ordered[-1], 100, 0
    rank = math.ceil(pct / 100 * n)
    return ordered[rank - 1], pct, n - rank


class Phase:
    """Passes over a workload's inputs, each op timed on its own; output
    summaries are compared against pass 1 outside the timing."""

    def __init__(self, wl):
        self.wl = wl
        self.windows: dict = {x: [] for x in wl.inputs}  # (start, end) of each op
        self.busy = 0.0
        self.first: dict = {}
        self.failed: set = set()  # (pass number, input) of failed executions
        self.reasons: dict = {}
        self.pass_walls: list[float] = []
        self.pass_rss_kb: list[int] = []  # this process's peak RSS after each run_pass

    def fail(self, x, reason: str, passes) -> None:
        self.failed.update((p, x) for p in passes)
        self.reasons.setdefault(x, reason)

    def run_pass(self, op, between=None) -> float:
        """One pass; ``between()`` runs untimed after each op."""
        this = len(self.pass_walls)
        self.pass_walls.append(0.0)
        for x in self.wl.inputs:
            self.run_op(this, x, op)
            if between is not None:
                between()
        self.pass_rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return self.pass_walls[this]

    def run_op(self, this: int, x, op) -> float:
        """Time ``op(x)`` as part of pass ``this``, compare its output with
        pass 1's and return its latency."""
        t0 = time.perf_counter()
        try:
            out = op(x)
        except Exception as exc:  # a failed op is counted, not fatal
            out = exc
        t1 = time.perf_counter()
        dt = t1 - t0
        self.windows[x].append((t0, t1))
        self.busy += dt
        self.pass_walls[this] += dt
        if isinstance(out, Exception):
            key, payload = ("raised", repr(out)), None
            self.fail(x, repr(out), [this])
        else:
            key, payload = self.wl.summarize(x, out)
        del out
        if x not in self.first:
            self.first[x] = (key, payload)
        elif key != self.first[x][0]:
            self.fail(x, "output differs between passes", [this])
        return dt

    def check(self) -> None:
        """Check pass 1's output of every input against its reference;
        every execution of a failing input counts as failed."""
        for x, (_, payload) in self.first.items():
            if payload is None:  # it raised, and is counted already
                continue
            reason = self.wl.check(x, payload)
            if reason is not None:
                self.fail(x, reason, range(len(self.pass_walls)))

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.windows.values())

    @property
    def failures(self) -> int:
        return len(self.failed)


def run_untraced(wl, args, env) -> tuple[dict, dict, Phase]:
    for x in wl.inputs[:wl.warmup_ops]:
        wl.run(x)
    phase = Phase(wl)
    setup: list[tuple[float, float]] = []

    def sample_setup():
        while len(setup) < 1 + phase.busy / SETUP_EVERY_S:
            setup.extend(fresh_import_windows("ewire", env, 1))

    with Sampler() as speed:
        sample_setup()
        while len(phase.pass_walls) < MIN_PASSES or phase.busy < args.seconds:
            phase.run_pass(wl.run, between=sample_setup)
        if wl.name == "cli":
            # the largest RSS of any waited-for child: the worst cli op,
            # since the set-up children only import ewire
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            # the allocator keeps some freed memory, so the high-water mark
            # creeps up with each pass; read it after the passes every run makes
            rss_kb = phase.pass_rss_kb[MIN_PASSES - 1]
    phase.check()

    def at_reference_speed(windows):
        return [(t1 - t0) / speed.factor(t0, t1) for t0, t1 in windows]

    lat = [statistics.median(at_reference_speed(phase.windows[x])) for x in wl.inputs]
    value, pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(at_reference_speed(setup)),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": value * 1e3,
        "peak_rss_mb": rss_kb / 1024,
    }
    as_timed = {x: [t1 - t0 for t0, t1 in phase.windows[x]] for x in wl.inputs}
    best = [min(as_timed[x]) for x in wl.inputs]
    details = {
        "ops": phase.attempted,
        "passes": len(phase.pass_walls),
        "distinct_ops": len(wl.inputs),
        "timed_s": phase.busy,
        "setup_samples": len(setup),
        "op_tail_percentile": pct,
        "op_tail_inputs_beyond": beyond,
        "as_timed": {
            "setup_s": statistics.median(t1 - t0 for t0, t1 in setup),
            "ops_per_s_all_passes": phase.attempted / phase.busy,
            "op_p50_ms_all_passes": statistics.median(
                [t for v in as_timed.values() for t in v]) * 1e3,
            "op_p50_ms_fastest_pass": statistics.median(best) * 1e3,
            "op_tail_ms_fastest_pass": tail(best)[0] * 1e3,
        },
        "host_speed": speed.summary(),
        "error_rate": phase.failures / phase.attempted,
        "cache": CACHE_STATE[wl.name],
    }
    return metrics, details, phase


def run_traced(wl, args, env) -> tuple[dict, dict, Phase]:
    from tracing import NAME, OP, Tracer
    from workloads import install_probes

    startup = statistics.median(
        t1 - t0 for t0, t1 in fresh_import_windows("ewire.cli", env, SETUP_REPEATS))
    phase = Phase(wl)
    tracer = Tracer()

    def op(x):
        out = wl.run_inprocess(x)
        if wl.name == "cli":
            code, stdout, traceback = out
            tracer.count("cli.stdout_bytes", len(stdout))
            tracer.count("cli.traceback_count", int(traceback))
        return out

    plain_s: dict = {x: [] for x in wl.inputs}
    traced_s: dict = {x: [] for x in wl.inputs}

    def run_plain_op(this, x):
        plain_s[x].append(phase.run_op(this, x, wl.run_inprocess))

    def run_traced_op(this, x):
        tracer.op = (labels[-1], x)
        install_probes(tracer)
        try:
            traced_s[x].append(phase.run_op(this, x, op))
        finally:
            tracer.uninstall()

    # a warm-up pass, then pairs of passes in which every op runs
    # untraced and traced back to back, so that each traced op has an
    # untraced twin on the same host state; the order alternates between
    # pairs, since the second of two runs finds the caches warm
    phase.run_pass(wl.run_inprocess)
    labels: list[str] = []
    while len(labels) < 2 or sum(phase.pass_walls[1:]) < args.seconds:
        labels.append(f"T{len(labels) + 1}")
        plain, traced = len(phase.pass_walls), len(phase.pass_walls) + 1
        phase.pass_walls += [0.0, 0.0]
        for x in wl.inputs:
            if len(labels) % 2:
                run_plain_op(plain, x)
                run_traced_op(traced, x)
            else:
                run_traced_op(traced, x)
                run_plain_op(plain, x)
    phase.check()

    # determinism gate: every count of every op repeats exactly between
    # the traced passes
    per_op: dict = {}
    for span in tracer.spans:
        per_op.setdefault(span[OP], Counter())[span[NAME] + ".calls"] += 1
    for key, counted in tracer.counts.items():
        per_op.setdefault(key, Counter()).update(counted)
    mismatched = [
        x for x in wl.inputs
        if any(per_op.get((label, x)) != per_op.get((labels[0], x)) for label in labels)
    ]
    traced_passes = range(len(phase.pass_walls) - 2 * len(labels) + 1, len(phase.pass_walls), 2)
    for x in mismatched:
        phase.fail(x, "counts differ between traced passes", traced_passes)

    times = Counter()
    for label in labels:
        t, _ = tracer.summarize([(label, x) for x in wl.inputs])
        for name, value in t.items():
            times[name] += value / len(labels)
    _, counts = tracer.summarize([(labels[0], x) for x in wl.inputs])
    branches = counts.get("denote.lift_branches", 0)
    zero = counts.get("denote.lift_zero_branches", 0)
    best_plain = sum(min(plain_s[x]) for x in wl.inputs)
    best_traced = sum(min(traced_s[x]) for x in wl.inputs)
    overhead = best_traced - best_plain
    traced_wall = statistics.mean(phase.pass_walls[2::2])
    values = {
        **{name: times.get(name, 0.0) for name in PER_LAYER if PER_LAYER[name] == "s"},
        **{name: counts.get(name, 0) for name in PER_LAYER if PER_LAYER[name] != "s"},
        "cli.startup_s": startup,
        "trace.overhead_s": overhead,
        "denote.lift_useful_ratio": (branches - zero) / branches if branches else 1.0,
    }
    details = {
        "ops": phase.attempted,
        "traced_passes": len(labels),
        "traced_wall_s": traced_wall,
        "best_traced_pass_s": best_traced,
        "best_untraced_pass_s": best_plain,
        "overhead_ratio": overhead / best_plain,
        "spans": len(tracer.spans),
        "share_of_traced_wall": {
            name: times[name] / traced_wall
            for name in ("algebra.compose_tensored.s", "denote.self_s", "denote.denote_circuit.s")
        },
        "other_times_s": {k: v for k, v in sorted(times.items()) if k not in PER_LAYER},
        "counts_mismatched": [str(x) for x in mismatched],
        "gate_counts": {
            str(x): {
                **{name: per_op.get((labels[0], x), {}).get(name, 0) for name in GATE},
                "output": hashlib.blake2b(repr(phase.first[x][0]).encode(), digest_size=16).hexdigest(),
            }
            for x in wl.inputs
        },
        "cache": "warm: an untraced pass runs before the first traced pass",
    }
    return values, details, phase


def run_one(args) -> int:
    if not (ROOT / "src" / "ewire" / "__init__.py").is_file():
        print(f"ewire sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT)]
    import workloads

    cpu = pin_to_one_cpu()
    env = child_env()
    wl = workloads.make(args.workload, args.seed, env)
    if args.trace:
        values, details, phase = run_traced(wl, args, env)
        units = PER_LAYER
    else:
        values, details, phase = run_untraced(wl, args, env)
        units = END_TO_END

    for name, unit in units.items():
        print(f"{args.workload:8s} {name:34s} {values[name]:.6g} {unit}")
    for x, reason in phase.reasons.items():
        print(f"FAILED {args.workload} op {x}: {reason}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pinned_cpu": cpu,
        "machine": machine(),
        **details,
    }
    print("report: " + json.dumps(report))
    correct = phase.failures == 0
    print(json.dumps({
        "correct": correct,
        "attempted": phase.attempted,
        "failed": phase.failures,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def run_child(name: str, trace: int, seed: int, args, hash_seed=None):
    """One workload in a fresh interpreter; returns its exit code and its
    result and report, or ``None`` if it printed no result."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.monotonic() - t0
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        return proc.returncode, None
    report = next(
        (json.loads(line[len("report: "):]) for line in lines if line.startswith("report: ")),
        {},
    )
    return proc.returncode, {"result": json.loads(lines[-1]), "report": report, "wall_s": wall}


def run_all(args) -> int:
    """Each workload in fresh interpreters: ``--runs`` untraced runs on
    seeds ``seed``, ``seed + 1``, ..., summarised as median and spread,
    then two traced runs under different hash seeds, whose per-op gate
    counts and output fingerprints must agree."""
    results: dict = {}
    status = 0
    for name in ("qft", "rewrite", "cli"):
        untraced = []
        for k in range(args.runs):
            code, out = run_child(name, 0, args.seed + k, args)
            status |= code != 0 or out is None
            if out is not None:
                untraced.append(out)
        summary = {}
        for metric, unit in END_TO_END.items():
            values = [run["result"]["metrics"][metric]["value"] for run in untraced]
            if not values:
                continue
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
            summary[metric] = {"median": med, "unit": unit, "iqr_share": (q[2] - q[0]) / med,
                               "values": values}
            print(f"{name:8s} {metric:14s} median {med:.6g} {unit}, "
                  f"IQR {100 * (q[2] - q[0]) / med:.1f} % of it, {len(values)} runs")
        (code1, traced), (code2, again) = (run_child(name, 1, args.seed, args, h) for h in "12")
        status |= code1 != 0 or code2 != 0
        results[name] = {"untraced_summary": summary, "untraced": untraced, "traced": traced}
        if traced and again:
            first, second = traced["report"]["gate_counts"], again["report"]["gate_counts"]
            differ = sorted(x for x in first if first[x] != second.get(x))
            results[name]["gate_counts_differ_between_runs"] = differ
            if differ:
                status = 1
                print(f"FAILED {name}: gate counts differ between traced runs on ops {differ}")
        else:
            status = 1
    if args.out:
        Path(args.out).write_text(json.dumps({
            "machine": machine(),
            "seed": args.seed,
            "runs": args.runs,
            "seconds": args.seconds,
            "results": results,
        }, indent=1) + "\n")
    return int(status)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=["qft", "rewrite", "cli", "all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--runs", type=int, default=1,
                   help="with --workload all: untraced runs per workload, one seed each")
    p.add_argument("--out", help="with --workload all: write the results to this JSON file")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
