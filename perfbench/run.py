"""Benchmark of transfer_budget: four closed-loop workloads, one client each.

Run from the repository root:

    python3 perfbench/run.py --workload mc-points --seed 1 --seconds 20 --trace 0

Workloads: mc-points, verify-sweep, plan-mix, train-compare (see
``workloads.py``). The package is imported from ``src/`` of the current
directory. Inputs come from ``--seed``; rounds of operations run until
``--seconds`` have passed; every output is checked after the timed loop.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs a fixed number
of rounds, each untraced and then with span hooks on every module's public
functions, and prints the per-layer metrics; the spans go to
``.perfbench_out/``. Before the last line, stdout carries a readable report
(every metric the workload defines, with unit and direction); the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
REFERENCE_SEED = 12345
REFERENCE_REPEATS = 150
#: CPU time of the reference computation in the host's fast state, on the
#: 2-vCPU machine the benchmark was tuned on. ``setup_s`` is each probe's wall
#: time scaled by this over the reference time measured around the probe:
#: seconds at that speed, so that the host's slow episodes stay out of it.
REFERENCE_FAST_S = 0.0036
SAMPLE_INTERVAL_S = 0.1
#: one BLAS thread: the workloads are single-client and the machine is shared
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: the end-to-end metrics of BENCHMARK.json (``--trace 0``), defined on every workload.
#: Op costs are counted in runs of a fixed reference computation (``refs``),
#: timed just before, every 0.1 s during and just after each op
#: (``run_round``). On a shared 2-vCPU virtual machine the host switches, for
#: episodes of 0.2 s to over 20 s, into a state in which the same call takes
#: 1.6 to 2 times the CPU time, and the share of that state differs from run
#: to run: the median CPU time of one fixed point estimate moved between 63
#: and 105 ms over 25 windows of 2.5 s, while its ratio to the reference
#: moved between 22.4 and 25.9. The named metrics below
#: stay wall time, without the time of the references run during an op.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "op_cost_p50": ("refs", "lower"),
    "work_per_ref": ("1/ref", "higher"),
}

#: every end-to-end metric of the workload definition, with the workloads it applies to
NAMED_METRICS = {
    "setup_s": ("s", "lower", "all"),
    "peak_rss_mb": ("MB", "lower", "all"),
    "ops_failed_frac": ("fraction", "lower", "all"),
    "trials_per_s": ("trials/s", "higher", ("mc-points", "verify-sweep")),
    "point_p50_ms": ("ms", "lower", ("mc-points",)),
    "point_tail_ms": ("ms", "lower", ("mc-points",)),
    "plan_ms.K1": ("ms", "lower", ("plan-mix",)),
    "plan_ms.K3": ("ms", "lower", ("plan-mix",)),
    "plan_ms.K10": ("ms", "lower", ("plan-mix",)),
    "plan_ms.K50": ("ms", "lower", ("plan-mix",)),
    "plan_ms.rank_deficient": ("ms", "lower", ("plan-mix",)),
    "compare_s": ("s", "lower", ("train-compare",)),
    "train_accuracy": ("fraction", "higher", ("train-compare",)),
    "train_sample_ratio": ("ratio", "lower", ("train-compare",)),
}

#: ROADMAP open item 1: estimate_expected_kl at n0 = n1 = 100, seconds per 20k trials
ROADMAP_SPLIT = {"total": 4.68, "generators": 0.70, "sampling": 1.8, "pooled_mle": 1.45, "kl": 0.42}


def applies(name: str, workload: str) -> bool:
    where = NAMED_METRICS[name][2]
    return where == "all" or workload in where


def format_metric(name: str, value: float, unit: str, better: str, note: str = "") -> str:
    shown = "n/a" if value is None or (isinstance(value, float) and math.isnan(value)) else f"{value:.6g}"
    return f"metric {name} = {shown} {unit} ({better} is better){note}"


def report_lines(workload: str, named: dict[str, float], e2e: dict[str, float]) -> list[str]:
    """The readable report: every named metric that applies, then those of BENCHMARK.json."""
    lines = []
    for name, (unit, better, _) in NAMED_METRICS.items():
        if applies(name, workload):
            note = ""
            if name == "point_tail_ms":
                note = (f"; p{named.get('point_tail_ms.percentile', math.nan):.4g} of "
                        f"{named.get('point_tail_ms.samples', 0)} point estimates")
            lines.append(format_metric(name, named.get(name), unit, better, note))
    for name, (unit, better) in END_TO_END.items():
        lines.append(format_metric(name, e2e[name], unit, better, " [BENCHMARK.json]"))
    return lines


def result_line(metrics: dict[str, float], units: dict[str, str], attempted: int, failed: int) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })


# --------------------------------------------------------------------------
# the run record
# --------------------------------------------------------------------------

def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = {"env_cap": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            info["threads"] = int(fn())
            info["library"] = lib
            break
    return info


def machine_record(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "blas": _blas(),
    }


# --------------------------------------------------------------------------
# running a workload
# --------------------------------------------------------------------------

class Sampler:
    """Runs the reference computation every ``SAMPLE_INTERVAL_S`` of wall time
    while an op runs, from a SIGALRM handler in the op's own thread, and adds
    up the time it takes so that the op's times can leave it out. An op of
    several seconds spans many of the host's fast and slow episodes, which
    the references just before and after it do not see."""

    def __init__(self):
        self.samples: list[float] = []
        self.cpu = self.wall = 0.0

    def _tick(self, signum, frame):
        t0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(reference_cpu())
        self.cpu += time.process_time() - c0
        self.wall += time.perf_counter() - t0

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


def run_round(workload, r: int, tracer=None):
    """Run round ``r``, timing each op and the reference computation just
    before it, while it runs and just after it. With a tracer, each op is a
    root span and no reference runs inside it."""
    from workloads import Done

    done = []
    for op in workload.round(r):
        refs = [reference_cpu()]
        sampler = Sampler()
        if tracer is not None:
            tracer.op_id += 1
            tracer.open(tracer.root)
        with contextlib.nullcontext() if tracer is not None else sampler:
            t0, c0 = time.perf_counter(), cpu_seconds()
            try:
                output, problems = op.run(), []
            except Exception:  # a crashing op counts as failed; the run goes on
                output, problems = None, [traceback.format_exc(limit=3)]
            seconds_taken = time.perf_counter() - t0 - sampler.wall
            cpu = cpu_seconds() - c0 - sampler.cpu
        if tracer is not None:
            tracer.close()
        refs += sampler.samples + [reference_cpu()]
        done.append(Done(op, seconds_taken, output, problems, cpu=cpu,
                         ref_cpu=statistics.fmean(refs)))
    return done


def run_rounds(workload, seconds: float):
    """Run whole rounds until ``seconds`` have passed."""
    done = []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        done += run_round(workload, r)
        r += 1
    return done


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_cpu() -> float:
    """CPU seconds of a fixed computation (about 4 ms) that calls no code of
    the program: small-array numpy draws, reductions, transcendentals and a
    small solve, plus interpreter overhead, the mix the program's ops run.
    Dividing an op's CPU time by it cancels the host's current speed."""
    import numpy as np

    c0 = time.process_time()
    rng = np.random.default_rng(REFERENCE_SEED)
    a = rng.standard_normal((8, 8))
    a = a @ a.T + 8.0 * np.eye(8)
    acc = 0.0
    for _ in range(REFERENCE_REPEATS):
        x = rng.standard_normal(400)
        acc += float(np.log1p(np.exp(x)).sum()) + float(x.mean())
        acc += float(np.linalg.solve(a, x[:8]).sum()) + sum(range(100))
    return time.process_time() - c0


def setup_probe_seconds(workload: str, seed: int, root: Path) -> list[tuple[float, float]]:
    """Wall time of fresh processes that import and generate inputs, then
    exit, each with the mean CPU time of the reference computation just
    before and just after it.

    A blocking wait, with a timer to kill a stuck probe: ``subprocess.run``'s
    timeout polls in 50 ms sleeps, which would quantize the times."""
    times = []
    for _ in range(SETUP_PROBES):
        ref_before = reference_cpu()
        t0 = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(PROBE_TIMEOUT_S, probe.kill)
        watchdog.start()
        try:
            code = probe.wait()
        finally:
            watchdog.cancel()
        times.append((time.perf_counter() - t0, (ref_before + reference_cpu()) / 2))
        if code != 0:
            raise RuntimeError(f"setup probe exited with {code}")
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def crosscheck(seed: int, smoke: bool) -> dict:
    """The n0 = n1 = 100 split of one estimate, next to ROADMAP open item 1.

    Reported only, never gated: the ROADMAP figures come from another run."""
    import numpy as np
    import tracing
    from transfer_budget import simlab
    from workloads import GAUSSIAN, ZERO

    trials = 200 if smoke else 2000
    scale = 20_000 / trials
    args = (GAUSSIAN, ZERO, [(np.array([0.1]), 100)], 100, trials, seed)
    t0 = time.perf_counter()
    simlab.estimate_expected_kl(*args, workers=1)
    untraced = time.perf_counter() - t0
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer):
        simlab.estimate_expected_kl(*args, workers=1)
    totals = tracer.span_totals()

    def wall(name, index=1):
        return totals.get(name, (0, 0.0, 0.0))[index] * scale

    measured = {
        "total": untraced * scale,
        "generators": wall("simlab.estimate_expected_kl", 2),
        "sampling": wall("families.sample"),
        "pooled_mle": wall("estimation.pooled_mle"),
        "kl": wall("families.kl"),
    }
    return {
        "trials": trials,
        "us_per_trial": 1e6 * untraced / trials,
        "roadmap_us_per_trial": 234.0,
        "seconds_per_20k_trials": measured,
        "roadmap_seconds_per_20k_trials": ROADMAP_SPLIT,
        "note": ("'generators' is estimate_expected_kl's self time: Generator construction "
                 "plus loop overhead; 'total' is untraced, the parts are traced"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc-points", "verify-sweep", "plan-mix", "train-compare"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true",
                        help="minimum-size inputs, for the benchmark's self-tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "transfer_budget" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/transfer_budget is missing",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(root / "src"), str(HERE)]

    from workloads import WORKLOADS

    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    scratch = out / tag
    if args.setup_probe:
        workload = WORKLOADS[args.workload](args.seed, scratch, args.smoke)
        workload.round(0)
        shutil.rmtree(scratch, ignore_errors=True)
        return 0

    load_start = os.getloadavg()
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch, args.smoke)
        workload.warm_up()
        if args.trace:
            metrics, units, done, extra = traced_run(workload, args)
        else:
            setup = setup_probe_seconds(args.workload, args.seed, root)
            done = run_rounds(workload, args.seconds)
            probes = [{"wall_s": wall, "ref_cpu_s": ref} for wall, ref in setup]
            metrics, units, extra = None, None, {"setup_probes": probes}
        workload.check(done)
        attempted = len(done)
        failed = sum(bool(d.problems) for d in done)
        named = {}
        if not args.trace:
            named = workload.metrics(done)
            named.update(setup_s=statistics.median(wall * REFERENCE_FAST_S / ref for wall, ref in setup),
                         peak_rss_mb=peak_rss_mb(),
                         ops_failed_frac=failed / attempted)
            metrics = {
                "setup_s": named["setup_s"],
                "peak_rss_mb": named["peak_rss_mb"],
                "op_cost_p50": workload.op_cost_p50(done),
                "work_per_ref": workload.work_per_ref(done),
            }
            units = {name: unit for name, (unit, _) in END_TO_END.items()}

        record = {
            "workload": args.workload, "why": workload.why, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            **machine_record(root),
            "load_average_start": load_start, "load_average_end": os.getloadavg(),
            "work_unit": workload.work_unit,
            "ops": [{"kind": d.op.kind, "slot": d.op.slot, "ms": 1e3 * d.seconds, "cpu_ms": 1e3 * d.cpu,
                     "ref_cpu_ms": 1e3 * d.ref_cpu, "problems": d.problems} for d in done],
            "instances": workload.records(done),
            "named_metrics": named, "metrics": metrics, **extra,
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record_path = out / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str))

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# why: {workload.why}")
    print(f"# machine: nproc={record['nproc']} cpu={record['cpu']!r} load "
          f"{load_start[0]:.2f} -> {record['load_average_end'][0]:.2f}")
    print(f"# blas: {record['blas'].get('name')} {record['blas'].get('version')} "
          f"threads={record['blas'].get('threads', 'unknown')} (nproc {record['nproc']})")
    print(f"# record: {record_path.relative_to(root)}")
    for d in done:
        for problem in d.problems:
            print(f"# FAILED {d.op.kind}: {problem.strip()}")
    if args.trace:
        for line in trace_report(extra):
            print(line)
        for name, value in metrics.items():
            print(format_metric(name, value, units[name], tracing_better(units[name])))
    else:
        for line in report_lines(args.workload, named, metrics):
            print(line)
    print(result_line(metrics, units, attempted, failed))
    return 0


def tracing_better(unit: str) -> str:
    return "higher" if unit == "1/s" else "lower"


def traced_run(workload, args):
    """A fixed number of rounds, each run untraced and then traced; the
    alternation keeps slow drifts of the machine out of the overhead figure."""
    import tracing
    from workloads import csv_bytes

    rounds = max(1, round(args.seconds / (2 * workload.round_seconds)))
    tracer = tracing.Tracer()
    untraced, traced = [], []
    for r in range(rounds):
        untraced += run_round(workload, r)
        with tracing.Hooks(tracer):
            traced += run_round(workload, r, tracer)
    tracer.counters["cli.csv_bytes"] = sum(
        csv_bytes(d.output) for d in traced if hasattr(d.output, "out") and d.output.out.exists())
    metrics = tracing.per_layer_metrics(
        tracer, sum(d.seconds for d in untraced), sum(d.seconds for d in traced))
    units = tracing.per_layer_units()
    spans = Path.cwd() / OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(spans)
    extra = {"rounds_per_pass": rounds, "spans": str(spans.relative_to(Path.cwd()))}
    if args.workload == "mc-points":
        extra["roadmap_crosscheck"] = crosscheck(args.seed, args.smoke)
    return metrics, units, untraced + traced, extra


def trace_report(extra: dict) -> list[str]:
    lines = [f"# ran {extra['rounds_per_pass']} rounds, each untraced and then traced; "
             f"spans: {extra['spans']}"]
    check = extra.get("roadmap_crosscheck")
    if check:
        lines.append(f"# ROADMAP cross-check at n0 = n1 = 100 ({check['trials']} trials, "
                     f"seconds per 20k trials; {check['note']}):")
        lines.append(f"#   us_per_trial: measured {check['us_per_trial']:.1f}, "
                     f"ROADMAP {check['roadmap_us_per_trial']:.0f}")
        for part, value in check["seconds_per_20k_trials"].items():
            lines.append(f"#   {part}: measured {value:.3f} s, "
                         f"ROADMAP {check['roadmap_seconds_per_20k_trials'][part]:.2f} s")
    return lines


if __name__ == "__main__":
    sys.exit(main())
