"""Benchmark of the geproci toolkit: batches of certified checks.

    python3 bench/run.py --workload deletion --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`. Each workload is one closed loop (one caller, one process, one
thread) that repeats a fixed item list for about `--seconds`: a new pass
starts only if a pass of median length still ends within the budget.
Every item's result is checked against its oracle, against the same
item's bytes in the run's first pass and, at the golden seed, against
the digest stored in `golden.json`.

With `--trace 0` the end-to-end metrics are measured; with `--trace 1`
the run alternates untraced and traced passes and reports per-layer
metrics. The last line of standard output is the JSON result object.
See NOTES.md for what each workload and metric is for.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"
GOLDEN_SEED = 1
WORKLOADS = ("deletion", "certify", "incidence")
SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "item_s.p50": "s",
                    "item_s.p90": "s", "peak_rss_mb": "MB"}


class SourceMissing(RuntimeError):
    pass


def import_library():
    """Import geproci from this checkout's src/ and the workload module."""
    init = SRC / "geproci" / "__init__.py"
    if not init.is_file():
        raise SourceMissing(f"library source not found: {init}")
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import geproci
    if Path(geproci.__file__).resolve() != init.resolve():
        raise SourceMissing(f"imported geproci from {geproci.__file__}, "
                            f"not from {init}")
    import workloads
    return workloads


@contextlib.contextmanager
def workdir():
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as path:
        yield path


def setup_probe(workload, seed):
    """Seconds from `import geproci` until the workload's inputs exist;
    meaningful only in a fresh interpreter."""
    start = perf_counter()
    wl = import_library()
    with workdir() as path:
        wl.setup(workload, seed, path)
        return perf_counter() - start


def setup_samples(workload, seed):
    """Set-up time of SETUP_SAMPLES fresh interpreters, one at a time."""
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# measurement

def load_golden(workload, seed):
    """Per-item digests to compare against, or None off the golden seed."""
    if seed != GOLDEN_SEED:
        return None
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload, {})


def run_pass(items):
    """(seconds, result or exception) per item, in order."""
    out = []
    for item in items:
        start = perf_counter()
        try:
            result = item.run()
        except Exception as exc:  # counted as a failed item, run goes on
            out.append((perf_counter() - start, exc))
            continue
        out.append((perf_counter() - start, result))
    return out


class Checker:
    """Oracle, pass-to-pass byte identity and golden digest per item."""

    def __init__(self, wl, items, golden):
        self.wl = wl
        self.items = items
        self.golden = golden
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.reported = set()

    def _fail(self, name, why):
        self.failed += 1
        if (name, why) not in self.reported:
            self.reported.add((name, why))
            print(f"item failed: {name}: {why}", file=sys.stderr)

    def check(self, results):
        for item, (_, result) in zip(self.items, results):
            self.attempted += 1
            if isinstance(result, Exception):
                self._fail(item.name, "".join(traceback.format_exception_only(
                    type(result), result)).strip())
                continue
            try:
                data = self.wl.serialise(result)
                ok = bool(item.expect(result))
            except Exception as exc:
                self._fail(item.name, f"oracle raised {exc!r}")
                continue
            if not ok:
                self._fail(item.name, "unexpected value " + data.decode()[:200])
                continue
            first = self.first.setdefault(item.name, data)
            if data != first:
                self._fail(item.name, "bytes differ from the first pass")
            elif self.golden is not None and (
                    self.golden.get(item.name)
                    != hashlib.sha256(data).hexdigest()):
                self._fail(item.name, "bytes differ from the golden digest")


def measure(workload, seed, seconds, trace):
    """One benchmark run in this process; returns the report dict."""
    wl = import_library()
    import tracer as tr
    setups = [] if trace else setup_samples(workload, seed)
    tracer = tr.Tracer() if trace else None
    restored = True
    with workdir() as path:
        if tracer:
            tracer.install()
        try:
            inputs = wl.setup(workload, seed, path)
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            setup_stats = tr.layer_stats(tracer.spans)[0]
            setup_spans = list(tracer.spans)
            tracer.reset()
        checker = Checker(wl, inputs.items, load_golden(workload, seed))
        passes = []
        first_traced = None
        walls = []
        start = perf_counter()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            pass_start = perf_counter()
            if traced:
                tracer.install()
            try:
                results = run_pass(inputs.items)
            finally:
                if traced:
                    tracer.uninstall()
                    restored = restored and not tr.wrappers_left()
            checker.check(results)
            times = [t for t, _ in results]
            record = {"traced": traced, "pass_s": sum(times), "item_s": times}
            if traced:
                stats, covered = tr.layer_stats(tracer.spans)
                record["layers"] = tr.layer_metrics(
                    tr.merge_stats(setup_stats, stats))
                record["layers"]["trace.untraced_s"] = (
                    record["pass_s"] - covered)
                if first_traced is None:
                    first_traced = list(tracer.spans)
                tracer.reset()
            passes.append(record)
            walls.append(perf_counter() - pass_start)
            # stop before a pass that would end past the time budget
            elapsed = perf_counter() - start
            if (len(passes) >= (2 if trace else 1)
                    and elapsed + statistics.median(walls) > seconds):
                break
    if tracer:
        tr.write_spans(OUT / f"spans-{workload}.jsonl",
                       {"setup": setup_spans, "pass": first_traced})

    plain = [r for r in passes if not r["traced"]]
    pooled = [t for r in plain for t in r["item_s"]]
    pass_s = statistics.median(r["pass_s"] for r in plain)
    if trace:
        traced = [r for r in passes if r["traced"]]
        metrics = tr.median_metrics([r["layers"] for r in traced])
        metrics["trace.overhead_s"] = (
            statistics.median(r["pass_s"] for r in traced) - pass_s)
        units = layer_units(metrics)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": pass_s,
            "item_s.p50": statistics.median(pooled),
            "item_s.p90": statistics.quantiles(pooled, n=10)[8],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    return {
        "workload": workload, "seed": seed,
        "primes": inputs.primes, "items": len(inputs.items),
        "passes": len(passes),
        "samples": {"setup_s": len(setups), "pass_s": len(plain),
                    "item_s": len(pooled)},
        "correct": checker.failed == 0 and restored,
        "restored": restored,
        "attempted": checker.attempted, "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }


def layer_units(metrics):
    def unit(name):
        if name.endswith("_s"):
            return "s"
        if name.endswith("_frac"):
            return "ratio"
        return "count"
    return {k: unit(k) for k in metrics}


def machine():
    model = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    import numpy
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def summary(report):
    """Human-readable lines: every end-to-end metric by name and unit."""
    n = report["samples"]
    lines = [f"workload {report['workload']}  seed {report['seed']}  "
             f"items/pass {report['items']}  passes {report['passes']}"]
    notes = {"setup_s": f"median of {n['setup_s']} set-ups",
             "pass_s": f"median of {n['pass_s']} passes",
             "item_s.p50": f"{n['item_s']} samples",
             "item_s.p90": f"{n['item_s']} samples"}
    for name, m in report["metrics"].items():
        note = notes.get(name, "")
        lines.append(f"  {name:42s} {m['value']:14.6g} {m['unit']:6s} {note}")
    frac = report["failed"] / report["attempted"]
    lines.append(f"  {'failed_frac':42s} {frac:14.6g} {'ratio':6s} "
                 f"{report['failed']} of {report['attempted']} items")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            print(repr(setup_probe(args.workload, args.seed)))
            return 0
        report = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in summary(report):
        print(line)
    print(json.dumps({"machine": machine(), "workload": report["workload"],
                      "seed": report["seed"], "primes": report["primes"]}))
    print(json.dumps({k: report[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
