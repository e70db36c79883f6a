"""wgflows benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload, one process each

Run from the repository root; the library is imported from ./src. Set-up
builds the inputs from the seed three times (the median counts), then runs
one checked warm-up iteration. The timed loop then runs checked iterations
back to back for about S seconds. With --trace 0 the last line of stdout is
a JSON object with the end-to-end metrics. With --trace 1 the loop
alternates untraced and traced iterations and reports the per-layer
metrics of the traced ones; the spans are written to perfbench/out/. The
lines before the last one repeat the figures with sample counts, the
failures, and the machine (core count, BLAS thread cap, versions).
"""

import time

IMPORT_START = time.perf_counter()

import argparse  # noqa: E402  (timing the imports is part of set-up)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
NAMES = ("estimate-large", "cli-hamiltonian")
SETUP_REPEATS = 3
MIN_SAMPLES = 3          # untraced iterations; a traced run needs 2 of each kind
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cap_blas_threads() -> int:
    """Cap every BLAS pool at the usable core count; must precede numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def machine(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "blas_threads": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is the workload's own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


class Run:
    """Set-up, warm-up and the timed loop of one workload."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.rel_err = None
        self.iteration = 0

    def iterate(self, traced: bool) -> float:
        """One checked iteration; returns its program wall time in seconds."""
        self.workload.prepare()
        if traced:
            self.tracer.iteration = self.iteration
            self.tracer.install()
        start = time.perf_counter()
        try:
            with self.tracer.span("bench.iteration") as attrs:
                outputs = self.workload.run(self.tracer.span)
        finally:
            wall = time.perf_counter() - start
            if traced:
                self.tracer.uninstall()
        outcome = self.workload.check(outputs)
        attrs.update(outcome.counters)
        self.iteration += 1
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems
        self.rel_err = outcome.rel_err
        return wall


def measure(run: Run, seconds: float, trace: bool) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        run.workload.make_inputs()
        setups.append(time.perf_counter() - start)
    warmup = run.iterate(traced=False)
    walls = {False: [], True: []}
    traced_ids = []
    start = time.perf_counter()
    while True:
        traced = trace and run.iteration % 2 == 0
        if traced:
            traced_ids.append(run.iteration)
        walls[traced].append(run.iterate(traced))
        done = len(walls[False]) + len(walls[True])
        enough = (min(len(walls[False]), len(walls[True])) >= 2 if trace
                  else len(walls[False]) >= MIN_SAMPLES)
        elapsed = time.perf_counter() - start
        if enough and elapsed * (done + 1) / done > seconds:
            break
    return {"setup": statistics.median(setups), "warmup": warmup,
            "walls": walls, "traced_ids": traced_ids}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    nproc = cap_blas_threads()
    if not (SRC / "wgflows" / "__init__.py").is_file():
        print(f"error: no wgflows sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import tracing
    import workloads

    import_s = time.perf_counter() - IMPORT_START
    env = machine(nproc)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    tracer = tracing.Tracer()
    try:
        run = Run(workloads.WORKLOADS[args.workload](args.seed, workdir), tracer)
        m = measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = m["walls"][False]
    wall_s = statistics.median(plain)
    print("machine " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"untraced_iterations {len(plain)} traced_iterations {len(m['walls'][True])}")
    for problem in run.problems:
        print(f"FAILED {problem}")
    print(f"error_rate {run.failed / run.attempted:.6g} ({run.failed}/{run.attempted} operations)")
    if args.trace:
        metrics = {}
        traces = [tracer.iteration_spans(i) for i in m["traced_ids"]]
        for metric in tracing.PER_LAYER:
            metrics[metric.name] = {
                "value": statistics.median(metric.value(t) for t in traces),
                "unit": metric.unit}
        metrics[tracing.OVERHEAD] = {
            "value": statistics.median(m["walls"][True]) - wall_s, "unit": "s"}
        absent = tracer.absent()
        print(f"absent (read as 0): {absent}")
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl",
                     {"workload": args.workload, "seed": args.seed, "machine": env,
                      "absent": absent, "traced_iterations": m["traced_ids"]})
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": import_s + m["setup"] + m["warmup"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "rel_err": {"value": run.rel_err, "unit": "ratio"},
        }
        print(f"wall_s {wall_s:.4f} s, median of {len(plain)} iterations: "
              + " ".join(f"{w:.4f}" for w in plain))
        print(f"setup_s = imports {import_s:.4f} s + inputs {m['setup']:.4f} s "
              f"(median of {SETUP_REPEATS}) + warm-up {m['warmup']:.4f} s")
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
