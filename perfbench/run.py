#!/usr/bin/env python3
"""End-to-end benchmark of the batchsvd CLI, with an optional traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload learn-patches --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload compare-ksvd --seed 1 --seconds 2 --trace 1 --smoke

Each run synthesizes its inputs from ``--seed`` (several times, each in a
fresh interpreter, to time set-up), then calls ``batchsvd.cli.main(argv)``
in a closed loop, one call at a time, for ``--seconds`` seconds and checks
every output. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
wraps the package's public functions (see ``tracer.py``) and reports the
per-layer metrics instead. ``--smoke`` shrinks every workload to toy size
while still emitting every metric and running every check. The last stdout
line is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import os
import sys

# BLAS/OpenMP threads are pinned before numpy loads: report bytes differ
# between thread counts, so the determinism check needs a fixed value.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 3
RTOL = 1e-9

# Workload shapes. Full size is the paper's patch scale (m=64, n=256,
# p=3000, K=6000) and the planted m=16, n=48, p=2000 instance; smoke size
# keeps every code path but runs in about a second.
SHAPES = {
    False: {"patches": 3000, "atoms": 256, "budget": 6000, "init": 2, "iters": 1,
            "ksvd_iters": 3, "planted": (16, 48, 2000), "planted_iters": 2},
    True: {"patches": 200, "atoms": 24, "budget": 400, "init": 1, "iters": 1,
           "ksvd_iters": 1, "planted": (8, 12, 120), "planted_iters": 1},
}

# BENCHMARK.json gates only the first two: on a 2-CPU shared host the
# wall time of 5-6 s calls drifts by about 10% run to run, and the time
# limit for all gated runs leaves room for 55 s runs with two workloads but
# only about 35 s with three. switch-planted (the only workload on which
# inter-row switching runs) stays runnable here for its traced profile.
WORKLOADS = ("learn-patches", "compare-ksvd", "switch-planted")


def die(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def import_package():
    if not os.path.isfile(os.path.join(SRC, "batchsvd", "__init__.py")):
        die(f"no batchsvd package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import batchsvd

    if not os.path.abspath(batchsvd.__file__).startswith(SRC + os.sep):
        die(f"imported batchsvd from {batchsvd.__file__}, not from {SRC}")


# -- inputs -----------------------------------------------------------------

def build_inputs(workload: str, seed: int, smoke: bool, out_dir: str):
    """Write the workload's input files; returns {label: path} and the budget."""
    import inputs

    shape = SHAPES[smoke]
    os.makedirs(out_dir, exist_ok=True)
    if workload == "switch-planted":
        made, budget = inputs.write_planted_inputs(seed, out_dir, shape["planted"])
    else:
        made = inputs.write_patch_inputs(
            seed, out_dir, shape["patches"], holdout=workload == "compare-ksvd"
        )
        budget = shape["budget"]
    return dict(made), budget


def cli_argv(workload: str, smoke: bool, files: dict, budget: int, out_dir: str):
    """The one CLI call a workload times, and the files it writes."""
    s = SHAPES[smoke]
    outs = {"report": os.path.join(out_dir, "report.json")}
    if workload == "compare-ksvd":
        argv = ["compare", "--in", files["train"], "--algos", "ksvd,rnd-omp",
                "--holdout", files["holdout"], "--atoms", str(s["atoms"]),
                "--budget", str(budget), "--ksvd-iters", str(s["ksvd_iters"])]
        return argv + ["--seed", "0", "--report-out", outs["report"]], outs
    outs["dict"] = os.path.join(out_dir, "dict.mat")
    outs["coef"] = os.path.join(out_dir, "coef.txt")
    argv = ["learn", "--in", files["train"], "--algo", "batch", "--budget", str(budget),
            "--dict-out", outs["dict"], "--coef-out", outs["coef"]]
    if workload == "learn-patches":
        argv += ["--atoms", str(s["atoms"]), "--init-iters", str(s["init"]),
                 "--iters", str(s["iters"])]
    else:  # switch-planted: every pair visited, one amplitude step per round
        argv += ["--atoms", str(s["planted"][1]), "--trigger", "inf", "--n2", "1",
                 "--init-iters", "1", "--iters", str(s["planted_iters"])]
    return argv + ["--seed", "0", "--report-out", outs["report"]], outs


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


class Tally:
    """Operations attempted and failed; an operation fails on any problem."""

    def __init__(self):
        self.attempted = self.failed = 0

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"check failed: {'; '.join(problems)}", file=sys.stderr)


def timed_setups(args, run_dir: str, tally: Tally):
    """Set up SETUP_REPS times, each in a fresh interpreter.

    Each repetition imports the package, synthesizes the inputs and writes
    them; all must write byte-identical files. Returns the wall times and
    the last repetition's {"files", "budget"}.
    """
    times, first, made = [], None, None
    for rep in range(1 if args.smoke else SETUP_REPS):
        out_dir = os.path.join(run_dir, f"setup{rep}")
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-into", out_dir,
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            cmd.append("--smoke")
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            die(f"set-up failed: {proc.stderr.strip()}", 1)
        made = json.loads(proc.stdout.strip().splitlines()[-1])
        d = digest(made["files"].values())
        first = first or d
        tally.record([] if d == first else ["set-up repetitions wrote different inputs"])
    return times, made


# -- checks -----------------------------------------------------------------

def trace_violations(trace) -> list:
    """Phase-monotone and outer non-increasing at rtol 1e-9.

    The rule of ``ObjectiveTrace.phase_violations`` and ``outer_violations``,
    restated here so the check does not trust the code it checks.
    """
    bad = []
    for (pa, a), (pb, b) in zip(trace, trace[1:]):
        if pa == pb and pb in ("inner", "inter", "amplitude") and b - a > RTOL * max(abs(a), abs(b)):
            bad.append((pb, a, b))
    outer = [v for ph, v in trace if ph == "outer"]
    for a, b in zip(outer, outer[1:]):
        if b - a > RTOL * max(abs(a), abs(b)):
            bad.append(("outer", a, b))
    return bad


def recomputed_error(files, outs) -> float:
    """Mean per-sample L2 error from the written dictionary and coefficients."""
    import numpy as np

    Y = np.loadtxt(files["train"], skiprows=1, ndmin=2)
    with open(outs["coef"]) as fh:
        n, p, _ = (int(t) for t in fh.readline().split())
        X = np.zeros((n, p))
        for line in fh:
            i, j, v = line.split()
            X[int(i) - 1, int(j) - 1] = float(v)
    A = np.loadtxt(outs["dict"], skiprows=1, ndmin=2)
    return float(np.mean(np.linalg.norm(Y - A @ X, axis=0)))


def check_call(workload, files, budget, outs, deep: bool) -> tuple:
    """Correctness checks on one call's outputs; returns (problems, headline error)."""
    problems = []
    with open(outs["report"]) as fh:
        report = json.load(fh)
    entries = report if isinstance(report, list) else [report]
    headline = "ksvd" if workload == "compare-ksvd" else "batch"
    error = None
    for e in entries:
        if not (math.isfinite(e["mean_error"]) and math.isfinite(e["std_error"])):
            problems.append(f"{e['algo']}: non-finite error")
        if e["algo"] == "batch":
            if e["total_nnz"] != budget or e["K"] != budget:
                problems.append(f"batch: total_nnz {e['total_nnz']}, report K {e['K']}, "
                                f"budget {budget}")
            bad = trace_violations(e["objective_trace"])
            if bad:
                problems.append(f"batch: objective trace increases {bad[:3]}")
        elif e["total_nnz"] > min(e["K"], budget):
            problems.append(f"{e['algo']}: total_nnz {e['total_nnz']} > K")
        if e["algo"] == headline:
            error = e["mean_error"]
    if error is None:
        problems.append(f"no {headline} entry in the report")
    if "coef" in outs:
        with open(outs["coef"]) as fh:
            nnz = int(fh.readline().split()[2])
        if nnz != budget:
            problems.append(f"coefficient file holds {nnz} entries, budget {budget}")
    if deep and "dict" in outs and error is not None:
        # independent of the program's own reader and error code
        again = recomputed_error(files, outs)
        if abs(again - error) > 1e-9 * abs(error):
            problems.append(f"report mean_error {error!r} != recomputed {again!r}")
    return problems, error


class DigestStore:
    """Output digests of earlier runs in this checkout, keyed by run set.

    The key covers the workload, seed, size, thread count and a hash of the
    program source, so two runs under one key must write identical bytes.
    """

    def __init__(self, key: str):
        self.path = os.path.join(OUT, "digests.json")
        self.key = key
        try:
            with open(self.path) as fh:
                self.known = json.load(fh)
        except (OSError, ValueError):
            self.known = {}

    def check(self, value: str) -> bool:
        if self.key not in self.known:
            self.known[self.key] = value
            tmp = self.path + f".{os.getpid()}"
            with open(tmp, "w") as fh:
                json.dump(self.known, fh, indent=1, sort_keys=True)
            os.replace(tmp, self.path)
            return True
        return self.known[self.key] == value


def source_fingerprint() -> tuple:
    """(sha256 over the program's and the benchmark's python files, src/ lines)."""
    h, lines = hashlib.sha256(), 0
    for top in (SRC, HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    with open(os.path.join(dirpath, name), "rb") as fh:
                        data = fh.read()
                    h.update(name.encode() + b"\0" + data)
                    if top == SRC:
                        lines += data.count(b"\n")
    return h.hexdigest(), lines


def environment(src_lines: int) -> dict:
    import numpy as np
    import scipy

    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": THREADS,
        "nproc": os.cpu_count(),
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "src_lines": src_lines,
    }


# -- the run ----------------------------------------------------------------

def measure(args, argv, outs, files, budget, store, tally, tracer=None):
    """Closed loop of CLI calls for ``args.seconds``, each call checked.

    A first warm-up call (lazy imports, first-touch allocations) is checked
    but neither timed nor counted against ``args.seconds``. With a tracer,
    the next call runs untraced (the overhead base) and every later call is
    traced. Returns wall times, untraced wall times, headline errors and
    per-call layer metrics.
    """
    from batchsvd.cli import main as cli_main
    import tracer as tracing

    walls, untraced, errors, per_call = [], [], [], []
    first_digest = None
    warm = True
    while True:
        traced = tracer is not None and not warm and bool(untraced)
        if traced:
            tracer.install()
            mark = tracer.mark()
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = cli_main(list(argv))
            except Exception:  # a crash is one failed operation; the loop goes on
                traceback.print_exc()
                code = 1
            wall = time.perf_counter() - t0
        if traced:
            region = (mark, tracer.mark())
            tracer.uninstall()
        problems = [] if code == 0 else [f"exit code {code}"]
        if code == 0:
            try:
                more, error = check_call(args.workload, files, budget, outs,
                                         deep=first_digest is None)
                d = digest(outs.values())
            except (OSError, ValueError, LookupError, TypeError) as exc:
                more, error, d = [f"unreadable outputs: {exc!r}"], None, None
            problems += more
            errors.append(error)
            if d is not None and first_digest is None:
                first_digest = d
                if not store.check(d):
                    problems.append("outputs differ from an earlier run of this set")
            elif d is not None and d != first_digest:
                problems.append("outputs differ between calls in one run")
        if traced:
            per_call.append(tracing.layer_metrics(tracer, *region))
            if any(per_call[-1][k] != per_call[0][k] for k in tracing.DETERMINISTIC):
                problems.append("deterministic counters differ between calls")
        tally.record(problems)
        if warm:
            warm = False
            start = time.perf_counter()
            continue
        (walls if tracer is None or traced else untraced).append(wall)
        elapsed = time.perf_counter() - start
        if elapsed + wall > args.seconds and (tracer is None or per_call):
            return walls, untraced, errors, per_call


def run(args) -> int:
    import_package()
    import tracer as tracing

    src_hash, src_lines = source_fingerprint()
    run_dir = os.path.join(OUT, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    tally = Tally()
    store = DigestStore(f"{args.workload}/seed={args.seed}/smoke={args.smoke}/"
                        f"threads={THREADS}/source={src_hash[:16]}")
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup_times, made = timed_setups(args, run_dir, tally)
        files, budget = made["files"], made["budget"]
        if tracer is not None:
            # traced set-up, in-process, so the io and patch layers show
            tracer.install()
            mark = tracer.mark()
            traced_files, _ = build_inputs(args.workload, args.seed, args.smoke,
                                           os.path.join(run_dir, "traced"))
            setup_region = (mark, tracer.mark())
            tracer.uninstall()
            same = digest(traced_files.values()) == digest(files.values())
            tally.record([] if same else ["traced set-up wrote different inputs"])
        argv, outs = cli_argv(args.workload, args.smoke, files, budget,
                              os.path.join(run_dir, "out"))
        os.makedirs(os.path.join(run_dir, "out"))
        walls, untraced, errors, per_call = measure(
            args, argv, outs, files, budget, store, tally, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)

    if tracer is None:
        found = [e for e in errors if e is not None]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "mean_error": (statistics.median(found) if found else float("nan"), "l2"),
        }
        samples = {"wall_s": len(walls), "setup_s": len(setup_times),
                   "mean_error": len(found)}
    else:
        setup_m = tracing.layer_metrics(tracer, *setup_region)
        # counters are identical in every call (checked above); times are medians
        metrics = {
            name: (setup_m[name] + (per_call[0][name] if name in tracing.DETERMINISTIC
                                    else statistics.median(m[name] for m in per_call)), unit)
            for name, unit in tracing.PER_LAYER.items()
        }
        overhead = statistics.median(walls) / statistics.median(untraced) - 1.0
        metrics["trace_overhead_frac"] = (overhead, "frac")
        metrics["src_lines"] = (src_lines, "lines")
        samples = {"traced_calls": len(walls), "untraced_calls": len(untraced)}

    env = environment(src_lines)
    fail_rate = tally.failed / tally.attempted
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        n = samples.get(name)
        print(f"{args.workload} {name} = {value:.6g} {unit}"
              + (f" (median of {n})" if n else ""))
    print(f"{args.workload} fail_rate = {fail_rate:.6g} "
          f"({tally.failed}/{tally.attempted} operations)")
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "environment": env, "samples": samples,
              "fail_rate": fail_rate, "walls": walls, "untraced_walls": untraced,
              "setup_walls": setup_times, "metrics": values}
    with open(os.path.join(OUT, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": values}))
    return 0


def setup_only(args) -> int:
    """Child-process entry: import, synthesize and write the inputs."""
    import_package()
    files, budget = build_inputs(args.workload, args.seed, args.smoke, args.setup_into)
    print(json.dumps({"files": files, "budget": budget}))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy sizes, same metrics and checks")
    p.add_argument("--setup-into", help=argparse.SUPPRESS)
    return p.parse_args(argv)


if __name__ == "__main__":
    ARGS = parse_args()
    sys.exit(setup_only(ARGS) if ARGS.setup_into else run(ARGS))
