"""Traced runs: timers and counters around the public functions of each
layer, kept in memory and written out when the run ends.

Layers are the modules of src/junctionlab plus the process start and
``import junctionlab``. Library functions are wrapped in every junctionlab
module that holds them (cvtools imports ``solve`` by name, for instance),
so calls between layers are seen too. Every public function of closedform
is wrapped, found by name, in every namespace but closedform's own: a call
into that layer from outside is one span, and its internal calls are not
timed. Charge-density evaluations are counted by handing the solvers
``dataclasses.replace(rho, fn=counted)``. Every sample is filed under a
tag: the workload whose operation made it.
"""

import dataclasses
import functools
import importlib
import inspect
import json
import re
import statistics
import subprocess
import sys
import time
from array import array
from collections import defaultdict

MAX_SPANS = 20000          # full span records kept; durations are all kept

# every public function of this module is one layer entry, see ENTRY
CLOSED_FORM = "closedform"
ENTRY = "closedform.entry"

# (module, function, span name with {fmt} filled from the call's format
#  argument, whether the call evaluates a charge density rho)
WRAPPED = (
    ("cvtools", "sweep", "cvtools.sweep", False),
    ("cvtools", "serialize", "cvtools.serialize_{fmt}", False),
    ("cvtools", "deserialize", "cvtools.deserialize_{fmt}", False),
    ("cvtools", "fit", "cvtools.fit", False),
    ("momentsolver", "solve_one_sided", "momentsolver.one_sided", True),
    ("momentsolver", "solve_two_sided", "momentsolver.two_sided", True),
    ("momentsolver", "reconstruct_field_potential", "momentsolver.reconstruct", True),
)

# per-layer metric -> (unit, source, workload that exercises it). A time
# ("ms", "us") is the median duration per call of the span `source`; a
# "count" is the median of the samples filed under `source`.
PER_LAYER = {
    "import.python_ms": ("ms", "import.python", "import"),
    "import.junctionlab_ms": ("ms", "import.junctionlab", "import"),
    "import.scipy_integrate_ms": ("ms", "import.scipy_integrate", "import"),
    "cli.solve_ms": ("ms", "cli.solve", "cli_calls"),
    "cli.sweep_ms": ("ms", "cli.sweep", "cli_calls"),
    "cli.fit_ms": ("ms", "cli.fit", "cli_calls"),
    "cli.oracle_ms": ("ms", "cli.oracle", "cli_calls"),
    "cli.oracle_two_sided_ms": ("ms", "cli.oracle_two_sided", "cli_calls"),
    "closedform.solve_us": ("us", ENTRY, "cv_sweep_io"),
    "closedform.solve_calls": ("count", "closedform.solve_calls", "cv_sweep_io"),
    "cvtools.sweep_ms": ("ms", "cvtools.sweep", "cv_sweep_io"),
    "cvtools.serialize_csv_ms": ("ms", "cvtools.serialize_csv", "cv_sweep_io"),
    "cvtools.serialize_json_ms": ("ms", "cvtools.serialize_json", "cv_sweep_io"),
    "cvtools.deserialize_csv_ms": ("ms", "cvtools.deserialize_csv", "cv_sweep_io"),
    "cvtools.deserialize_json_ms": ("ms", "cvtools.deserialize_json", "cv_sweep_io"),
    "cvtools.fit_ms": ("ms", "cvtools.fit", "cv_fit"),
    "cvtools.fit_iterations": ("count", "cvtools.fit_iterations", "cv_fit"),
    "momentsolver.one_sided_ms": ("ms", "momentsolver.one_sided", "oracle_verify"),
    "momentsolver.two_sided_ms": ("ms", "momentsolver.two_sided", "oracle_verify"),
    "momentsolver.reconstruct_ms": ("ms", "momentsolver.reconstruct", "oracle_verify"),
    "momentsolver.one_sided_rho_evals":
        ("count", "momentsolver.one_sided_rho_evals", "oracle_verify"),
    "momentsolver.two_sided_rho_evals":
        ("count", "momentsolver.two_sided_rho_evals", "oracle_verify"),
    "momentsolver.reconstruct_rho_evals":
        ("count", "momentsolver.reconstruct_rho_evals", "oracle_verify"),
}

_SCALE = {"ms": 1e3, "us": 1e6}


class Tracer:
    def __init__(self):
        self.tag = None
        self.durations = defaultdict(lambda: array("d"))   # (tag, name) -> s
        self.self_time = defaultdict(float)                 # (tag, name) -> s
        self.samples = defaultdict(list)                    # (tag, name) -> counts
        self.calls = defaultdict(int)                       # name -> calls
        self.spans = []                                     # (tag, name, start, end, parent)
        self._stack = []                                    # [span index, child time]
        self.rho_evals = 0
        self._restore = []
        self._entries = set()                               # closedform span names

    # -- spans ------------------------------------------------------------
    def _open(self, name):
        index = len(self.spans)
        if index < MAX_SPANS:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append([self.tag, name, None, None, parent])
        self._stack.append([index, 0.0])

    def _close(self, name, start, end):
        index, child = self._stack.pop()
        dur = end - start
        if index < MAX_SPANS:
            self.spans[index][2:4] = start, end
        if self._stack:
            self._stack[-1][1] += dur
        keys = [(self.tag, name)]
        if name in self._entries:
            keys.append((self.tag, ENTRY))
        for key in keys:
            self.durations[key].append(dur)
            self.self_time[key] += dur - child
            self.calls[key[1]] += 1

    def record(self, name, duration):
        """A span measured by the caller, e.g. one CLI subprocess."""
        end = time.perf_counter()
        self._open(name)
        self._close(name, end - duration, end)

    def sample(self, name, value):
        self.samples[(self.tag, name)].append(value)

    def op(self, label, run):
        """Run one benchmark operation as a span; file its calls into
        closedform (0 for a CLI call, whose solves happen in the child)."""
        solves = self.calls[ENTRY]
        self._open(label)
        start = time.perf_counter()
        try:
            return run()
        finally:
            self._close(label, start, time.perf_counter())
            self.sample("closedform.solve_calls", self.calls[ENTRY] - solves)

    # -- library wrappers -------------------------------------------------
    def counted(self, rho):
        fn = rho.fn

        def counting(x):
            self.rho_evals += 1
            return fn(x)
        return dataclasses.replace(rho, fn=counting)

    def _wrap(self, fn, name, counts_rho):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if "{fmt}" in name:
                fmt = kwargs.get("fmt", args[1] if len(args) > 1 else "csv")
                span = name.format(fmt=fmt)
            rho_before = tracer.rho_evals
            tracer._open(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, start, time.perf_counter())
            if counts_rho:
                tracer.sample(span + "_rho_evals", tracer.rho_evals - rho_before)
            if span == "cvtools.fit":
                tracer.sample("cvtools.fit_iterations", result.iterations)
            return result
        return traced

    def install(self):
        """Replace each wrapped function in every junctionlab module (and
        the package namespace) that holds it."""
        import junctionlab
        closedform = importlib.import_module(f"junctionlab.{CLOSED_FORM}")
        wrapped = [(importlib.import_module(f"junctionlab.{m}"), fn, span, rho)
                   for m, fn, span, rho in WRAPPED]
        for fn_name, fn in vars(closedform).copy().items():
            if (inspect.isfunction(fn) and fn.__module__ == closedform.__name__
                    and not fn_name.startswith("_")):
                span = f"{CLOSED_FORM}.{fn_name}"
                self._entries.add(span)
                wrapped.append((closedform, fn_name, span, False))
        modules = [m for n, m in sys.modules.items()
                   if n == "junctionlab" or n.startswith("junctionlab.")]
        for home, fn_name, span, counts_rho in wrapped:
            original = getattr(home, fn_name)
            traced = self._wrap(original, span, counts_rho)
            getattr(junctionlab, fn_name, None)      # resolve a lazy package name
            for mod in modules:
                if mod is closedform and home is closedform:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------
    def _values(self, tag, unit, source):
        if unit == "count":
            return self.samples.get((tag, source), [])
        return self.durations.get((tag, source), [])

    def missing_tags(self, workload):
        """Workloads to run once more so that every metric has samples."""
        needed = []
        for unit, source, home in PER_LAYER.values():
            if not self._values(workload, unit, source) and not self._values(home, unit, source):
                if home not in needed and home != "import":
                    needed.append(home)
        return needed

    def per_layer(self, workload):
        """Median per call of each metric, from the workload's own
        operations when it exercises the layer, else from the workload
        that does, else from any that did; 0 when nothing called it.
        Returns (metrics, the tag each came from)."""
        metrics, origin = {}, {}
        tags = list(dict.fromkeys(t for t, _ in [*self.durations, *self.samples]))
        for metric, (unit, source, home) in PER_LAYER.items():
            tag = next((t for t in (workload, home, *tags) if self._values(t, unit, source)),
                       None)
            values = self._values(tag, unit, source) or [0.0]
            value = float(statistics.median(values)) * _SCALE.get(unit, 1)
            metrics[metric] = {"value": value, "unit": unit}
            origin[metric] = tag
        return metrics, origin

    def dump(self):
        names = {}
        for (tag, name), durs in self.durations.items():
            names[f"{tag}:{name}"] = {
                "calls": len(durs), "median_s": statistics.median(durs),
                "total_s": sum(durs), "self_s": self.self_time[(tag, name)]}
        counts = {f"{tag}:{name}": {"n": len(v), "median": statistics.median(v),
                                    "total": sum(v)}
                  for (tag, name), v in self.samples.items()}
        spans = [{"tag": t, "name": n, "start": s, "end": e, "parent": p}
                 for t, n, s, e, p in self.spans]
        return {"layers": names, "counts": counts, "spans": spans,
                "spans_dropped": max(0, sum(self.calls.values()) - len(spans))}


_IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$")


def _timed_run(argv, env):
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True,
                          timeout=120)
    return time.perf_counter() - start, done


def import_probes(tracer, env, repeats=3):
    """Process start, `import junctionlab`, and the scipy.integrate share
    of it from `python -X importtime`, each a median of fresh processes."""
    tracer.tag = "import"
    py = sys.executable
    for _ in range(repeats):
        dur, _ = _timed_run([py, "-c", "pass"], env)
        tracer.record("import.python", dur)
        _, done = _timed_run([py, "-c", "import time; t = time.perf_counter(); "
                                        "import junctionlab; "
                                        "print(time.perf_counter() - t)"], env)
        tracer.record("import.junctionlab", float(done.stdout))
        # the oracle path: momentsolver is where scipy.integrate comes in
        _, done = _timed_run([py, "-X", "importtime", "-c",
                              "import junctionlab.momentsolver"], env)
        cumulative = {m[2]: int(m[1]) for m in map(_IMPORTTIME.match, done.stderr.splitlines())
                      if m}
        tracer.record("import.scipy_integrate", cumulative.get("scipy.integrate", 0) * 1e-6)


def write(path, workload, seed, tracer, origin, loop_summary):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "metric_source": origin,
                   "traced_loop": loop_summary, **tracer.dump()}, fh)
