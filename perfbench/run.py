"""junctionlab benchmark: one command for every workload.

    python3 perfbench/run.py --workload cv_fit --seed 1 --seconds 20 --trace 0

Run from the repository root. With --trace 0 it prints the end-to-end
metrics; with --trace 1 it wraps each layer in timers and counters and
prints the per-layer metrics instead, writing every span and count to
perfbench/out/. The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: build inputs, run one operation, print 'ready'")
    return p.parse_args(argv)


def setup_probe(args) -> float:
    """Seconds from starting a fresh interpreter to inputs built and one
    operation done, in a child process."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
    return ready - start


class Loop:
    """Whole rounds of a workload until `seconds` have passed.

    Each distinct operation runs many times in a run; its latency is the
    fastest of those executions. On a shared 2-core host the speed drifted
    by up to 1.8x for minutes at a time as other tenants loaded it, and the
    fastest execution is the figure that such drift moves least.
    """

    def __init__(self, workload, tracer=None):
        self.workload, self.tracer = workload, tracer
        self.latencies, self.attempted, self.failed = [], 0, 0
        self.times = defaultdict(list)      # (label, case) -> every execution
        self.problems = []

    def run_op(self, op, count=True):
        run = op.run if self.tracer is None else (lambda: self.tracer.op(op.label, op.run))
        start = time.perf_counter()
        took = None
        try:
            out = run()
            took = time.perf_counter() - start
            failed, problems = op.check(out)
        except Exception as e:  # a crash is wrong output, not a kept fault
            took = took or time.perf_counter() - start
            failed, problems = True, [f"raised {e!r}"]
        self.problems += [f"{op.label}: {p}" for p in problems]
        if count:
            self.latencies.append(took)
            self.times[(op.label, op.case)].append(took)
            self.attempted += 1
            self.failed += bool(failed)

    def run(self, seconds, between=None, n_between=0):
        """Rounds until `seconds` of them have passed. `between` is called
        n_between times, spread evenly over the run between rounds; its
        time does not count against `seconds`."""
        clock, k, done_between = 0.0, 0, 0
        while clock < seconds:
            if done_between < n_between and clock >= seconds * done_between / n_between:
                between()
                done_between += 1
            start = time.perf_counter()
            for op in self.workload.round(k):
                self.run_op(op)
            clock += time.perf_counter() - start
            k += 1
        for _ in range(done_between, n_between):
            between()

    def summary(self):
        """Rate and median latency over the distinct operations, each at
        its fastest execution; the plain figures over every execution too."""
        best = [min(t) for t in self.times.values()]
        typical = [statistics.median(t) for t in self.times.values()]
        return {"attempted": self.attempted, "failed": self.failed,
                "distinct_ops": len(best),
                "ops_per_s": len(best) / sum(best),
                "latency_p50_ms": statistics.median(best) * 1e3,
                "median_ops_per_s": len(typical) / sum(typical),
                "all_ops_per_s": self.attempted / sum(self.latencies),
                "all_latency_p50_ms": statistics.median(self.latencies) * 1e3}


def build(name, seed, workdir, tracer=None):
    import workloads
    return workloads.WORKLOADS[name](seed, str(workdir), child_env(), tracer)


def untraced(args, workdir):
    workload = build(args.workload, args.seed, workdir)
    loop = Loop(workload)
    loop.run_op(workload.round(0)[0], count=False)      # warm-up
    # set-up is timed SETUP_REPEATS times in fresh processes, spread over
    # the run so that the median samples the host across it
    setups = []
    loop.run(args.seconds, lambda: setups.append(setup_probe(args)), SETUP_REPEATS)
    s = loop.summary()
    print(f"perfbench: set-up probes {[round(t, 4) for t in setups]} s; "
          f"loop {json.dumps(s)}", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (s["ops_per_s"], "1/s"),
        "latency_p50_ms": (s["latency_p50_ms"], "ms"),
        "peak_rss_mb": (workload.peak_rss_kb() / 1024.0, "MB"),
    }
    return loop, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced(args, workdir):
    import tracing
    tracer = tracing.Tracer()
    tracing.import_probes(tracer, child_env())
    tracer.tag = args.workload
    workload = build(args.workload, args.seed, workdir, tracer)
    loop = Loop(workload, tracer)
    tracer.install()
    try:
        loop.run_op(workload.round(0)[0], count=False)
        loop.run(args.seconds)
        summary = loop.summary()
        # layers this workload never calls: one round of the workload that does
        for home in tracer.missing_tags(args.workload):
            tracer.tag = home
            other = build(home, args.seed, workdir, tracer)
            for op in other.round(0):
                loop.run_op(op, count=False)
    finally:
        tracer.uninstall()
    metrics, origin = tracer.per_layer(args.workload)
    OUT.mkdir(exist_ok=True)
    tracing.write(OUT / f"trace-{args.workload}-{args.seed}.json", args.workload,
                  args.seed, tracer, origin, summary)
    return loop, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # one thread per process, set before numpy loads here or in a child:
    # BLAS pools add nothing to this scalar code and compete for two cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "junctionlab" / "__init__.py").is_file():
        print(f"perfbench: no junctionlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_probe:
            workload = build(args.workload, args.seed, workdir)
            op = workload.round(0)[0]
            op.run()
            print("ready", flush=True)
            return 0
        loop, metrics = (traced if args.trace else untraced)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in loop.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not loop.problems, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
