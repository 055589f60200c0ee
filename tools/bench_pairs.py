"""Benchmark a parent revision against the working tree in alternating pairs.

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_9.json

Run from the root of the repository. Both sides run from a fresh
`git archive` in a temporary directory (removed at the end; set TMPDIR
to choose where): the parent revision, and the working tree as it is on
disk, untracked files included and ignored ones (`__pycache__`,
`.bench_out`) left out.
For every workload of BENCHMARK.json and each of ten fixed seeds,
`bench/run.py` runs once in each tree for the benchmark's run length, the
tree that goes first alternating from pair to pair, so slow drift of the
host falls on both sides alike. The output file holds the machine block,
both revisions, the seeds, a per-metric summary (medians, quartiles, how
many pairs the working tree won and the median pair ratio by the side
that ran first) and every result object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(4, 14))   # ten pairs per workload


def git(*args, cwd=ROOT, env=None):
    return subprocess.run(["git", *args], cwd=cwd, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def disk_tree():
    """Tree id of the working tree as it is on disk, untracked files
    included and ignored ones not, built in a throwaway index so the real
    one is not touched."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git("add", "-A", ".", env=env)
        return git("write-tree", env=env)


def export(tree_ish, dest):
    """Unpack `git archive tree_ish` into the existing directory dest."""
    archive = subprocess.run(["git", "archive", tree_ish], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def revision(rev, tree):
    """Commit and src/ tree of a side: rev is the parent revision, or None
    for the working tree, and tree is what the side runs from."""
    return {"commit": git("rev-parse", "--verify",
                          f"{rev or 'HEAD'}^{{commit}}"),
            "src_tree": git("rev-parse", f"{tree}:src"),
            "dirty": rev is None and bool(git("status", "--porcelain",
                                              "src"))}


def run_bench(root, workload, seed, seconds):
    """(machine block, result object) of one bench/run.py run in root."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True,
                         text=True).stdout.splitlines()
    return json.loads(out[-2])["machine"], json.loads(out[-1])


def summarise(runs, metrics):
    """Per metric: each side's median and quartiles, the relative change
    of the medians, the pairs in which the working tree did better, and
    the median change/parent ratio of a pair (minus 1), split by the
    side that ran first, so a run-order effect shows in the file."""
    out = {}
    for name, better in metrics.items():
        side = {k: [r["metrics"][name]["value"] for r in runs[k]]
                for k in ("parent", "change")}
        stats = {}
        for k, vals in side.items():
            q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
            stats[k] = {"median": med, "q1": q1, "q3": q3}
        sign = -1 if better == "lower" else 1
        stats["change_median_vs_parent"] = (
            stats["change"]["median"] / stats["parent"]["median"] - 1)
        stats["change_wins"] = sum(sign * (c - p) > 0 for p, c in
                                   zip(side["parent"], side["change"]))
        stats["pairs"] = len(side["parent"])
        by_first = {"change": [], "parent": []}
        for p, c, first in zip(side["parent"], side["change"],
                               (r["ran_first"] for r in runs["change"])):
            by_first["change" if first else "parent"].append(c / p - 1)
        stats["pair_change_median_by_first"] = {
            k: statistics.median(v) for k, v in by_first.items() if v}
        out[name] = stats
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD",
                    help="revision to compare the working tree against")
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}

    trees = {"parent": args.parent, "change": disk_tree()}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {side: Path(tmp) / side for side in trees}
        for side, tree in trees.items():
            roots[side].mkdir()
            export(tree, roots[side])
        revisions = {"parent": revision(args.parent, args.parent),
                     "change": revision(None, trees["change"])}
        runs, machine = {}, None
        for workload in workloads:
            runs[workload] = {"parent": [], "change": []}
            for k, seed in enumerate(SEEDS):
                order = ("parent", "change")[::1 if k % 2 == 0 else -1]
                for side in order:
                    machine, result = run_bench(roots[side], workload,
                                                seed, seconds)
                    runs[workload][side].append(
                        {"seed": seed, "ran_first": side == order[0],
                         **result})
                    print(f"{workload} seed {seed} {side}: pass_s "
                          f"{result['metrics']['pass_s']['value']:.4g} "
                          f"correct {result['correct']}", file=sys.stderr)
    doc = {
        "what": "bench/run.py result objects for the parent and the "
                "working tree, run in alternating pairs on one machine "
                "(ran_first marks the side that went first)",
        "command": "python3 bench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "machine": machine,
        "revisions": revisions,
        "seeds": list(SEEDS),
        "summary": {w: summarise(runs[w], metrics) for w in workloads},
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
