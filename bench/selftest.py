"""Self-test of the benchmark, and the writer of its golden digests.

    python3 bench/selftest.py                 # one minimal run per workload
    python3 bench/selftest.py --write-golden  # refresh golden.json

The self-test runs each workload for a single untraced pass and for one
untraced plus one traced pass, and prints every metric of each run. It
checks that every metric named in
BENCHMARK.json is reported with its unit and nothing else, that no
tracer wrapper is left in the library, that every item passed (traced
results equal untraced ones, since each pass is compared byte for byte
with the first) and that the result line is what the contract asks.
"""

import hashlib
import json
import sys

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def write_golden():
    """Digest of every item's bytes at the golden seed; refuses to write
    if any item fails its oracle."""
    wl = run.import_library()
    doc = {"seed": run.GOLDEN_SEED, "workloads": {}}
    for workload in run.WORKLOADS:
        with run.workdir() as path:
            inputs = wl.setup(workload, run.GOLDEN_SEED, path)
            results = run.run_pass(inputs.items)
        checker = run.Checker(wl, inputs.items, None)
        checker.check(results)
        if checker.failed:
            raise SystemExit(f"{workload}: {checker.failed} items failed")
        doc["workloads"][workload] = {
            item.name: hashlib.sha256(wl.serialise(r)).hexdigest()
            for item, (_, r) in zip(inputs.items, results)}
    run.GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.GOLDEN}")


def selftest():
    import tracer
    spec = json.loads(BENCHMARK.read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in run.WORKLOADS:
        for trace in (False, True):
            rep = run.measure(workload, 1, 0, trace)
            tag = f"{workload} trace={int(trace)}"
            got = {k: m["unit"] for k, m in rep["metrics"].items()}
            want = expected[trace]
            bad = sorted(k for k in set(got) | set(want)
                         if got.get(k) != want.get(k))
            if bad:
                problems.append(f"{tag}: name or unit differs from "
                                f"BENCHMARK.json: {bad}")
            printed = {line.split()[0]: line.split()[2]
                       for line in run.summary(rep)[1:]}
            if {k: printed.get(k) for k in want} != want:
                problems.append(f"{tag}: summary lacks a metric or unit")
            if tracer.wrappers_left() or not rep["restored"]:
                problems.append(f"{tag}: wrappers left {tracer.wrappers_left()}")
            if rep["failed"]:
                problems.append(f"{tag}: {rep['failed']} of "
                                f"{rep['attempted']} items failed")
            if rep["passes"] != (2 if trace else 1):
                problems.append(f"{tag}: {rep['passes']} passes")
            print("\n".join(run.summary(rep)), flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--write-golden"]:
        write_golden()
        sys.exit(0)
    sys.exit(selftest())
