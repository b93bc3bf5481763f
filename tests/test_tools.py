"""The repository's scripts under ``tools/``, loaded from their paths."""

import json
import subprocess
from pathlib import Path


def fake_tree(root, name):
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text("", "utf-8")
    return tree


def test_ab_gives_each_tree_a_fresh_bytecode_cache(script, tmp_path, monkeypatch):
    ab = script("tools/ab.py")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "inherited"))
    parent, change = fake_tree(tmp_path, "parent"), fake_tree(tmp_path, "change")
    (parent / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "m", "better": "higher", "bound": 0.25}]}), "utf-8")
    line = json.dumps({"correct": True, "failed": 0, "attempted": 1,
                       "metrics": {"w.m": {"value": 1.0}}})
    runs = []

    def run(command, env, **kwargs):
        tree = Path(command[1]).parents[1].name
        cache = env["PYTHONPYCACHEPREFIX"]
        # a tree's first run finds its cache empty
        assert Path(cache).exists() == any(t == tree for t, _, _ in runs)
        Path(cache).mkdir(exist_ok=True)
        runs.append((tree, cache, env))
        return subprocess.CompletedProcess(command, 0, line + "\n", "")

    monkeypatch.setattr(ab.subprocess, "run", run)
    assert ab.main([str(parent), str(change), "--pairs", "3", "--seconds", "1"]) == 0
    assert [tree for tree, _, _ in runs] == ["parent", "change", "change", "parent",
                                             "parent", "change"]
    assert all("PYTHONDONTWRITEBYTECODE" not in env for _, _, env in runs)
    caches = {tree: {cache for t, cache, _ in runs if t == tree} for tree in ("parent", "change")}
    assert all(len(dirs) == 1 for dirs in caches.values())
    (parent_cache,), (change_cache,) = caches.values()
    assert parent_cache != change_cache
    for cache in (parent_cache, change_cache):
        assert not Path(cache).is_relative_to(tmp_path)
        assert not Path(cache).exists()  # removed when the comparison ends
