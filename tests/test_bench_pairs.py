import importlib.util
import json
import py_compile
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_pair_ratios_split_by_run_order():
    # BENCH_13's certify pass: the change was slower in both run orders
    metrics = {m["name"]: m["better"] for m in
               json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = json.loads((ROOT / "BENCH_13.json").read_text())["runs"]
    summary = _bench_pairs().summarise(runs["certify"], metrics)
    by_first = summary["pass_s"]["pair_change_median_by_first"]
    assert round(by_first["change"] * 100, 1) == 9.5
    assert round(by_first["parent"] * 100, 1) == 13.0
    assert all(set(s["pair_change_median_by_first"]) == {"change", "parent"}
               for s in summary.values())


def test_working_tree_export_holds_the_sources_and_no_caches(
        tmp_path, monkeypatch):
    bp = _bench_pairs()
    # a throwaway repository over the tree, so the test needs no checkout
    git_dir, dest = tmp_path / "git", tmp_path / "tree"
    subprocess.run(["git", "init", "-q", str(git_dir)], check=True)
    monkeypatch.setenv("GIT_DIR", str(git_dir / ".git"))
    monkeypatch.setenv("GIT_WORK_TREE", str(ROOT))
    dest.mkdir()
    # the byte-code cache an import of the library leaves in the tree
    init = ROOT / "src" / "geproci" / "__init__.py"
    assert Path(py_compile.compile(str(init), doraise=True)).is_file()
    bp.export(bp.disk_tree(), dest)
    assert (dest / "bench" / "run.py").is_file()
    assert (dest / "src" / "geproci" / "__init__.py").is_file()
    assert not list(dest.rglob("__pycache__"))
