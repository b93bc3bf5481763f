"""The repository's scripts under ``tools/``, loaded from their paths."""

import json
import subprocess
import time
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


def test_scale_checks_every_run_against_the_goldens(script, capsys):
    scale = script("tools/scale.py")
    src = scale.ROOT / "src"
    started = time.perf_counter()
    assert scale.main([str(src), str(src), "--decisions", "40", "--pairs", "1"]) == 0
    assert time.perf_counter() - started < 2.0
    out = capsys.readouterr().out
    assert "# d40: 40 decisions" in out and "wrong report" not in out
    rows = [line.split() for line in out.splitlines() if line.startswith("d40 ")]
    assert [row[1] for row in rows] == [name for name, _ in scale.METRICS]
    assert all(row[-1] in ("0/1", "1/1") for row in rows)


def test_scale_fails_a_run_whose_report_misses_a_violation(script, monkeypatch, capsys):
    scale = script("tools/scale.py")
    data = scale.generate.BundledData(scale.ROOT / "src" / "govshapes" / "data")
    doc = scale.document(data, 40, 1)
    focus = [f"ex:decision001_{tag}" for tag, count in doc.per_copy for _ in range(count)]

    def run_child(code, src, doc_path, cache):
        # the report doc expects, less one violation on the change's CLI run
        shown = focus[1:] if cache.name == "change" and code is scale._CLI else focus
        text = "sh:conforms false .\n" + "".join(
            f"[ a sh:ValidationResult ; sh:focusNode {f} ]\n" for f in shown)
        return {"conforms": False, "focus": focus, "text": text, "status": 1,
                **{name: 1.0 for name, _ in scale.METRICS}, "gc_pct": 1.0, "rss_mb": 1.0}

    monkeypatch.setattr(scale, "run_child", run_child)
    src = str(scale.ROOT / "src")
    assert scale.main([src, src, "--decisions", "40", "--pairs", "1"]) == 1
    assert "pair 1 d40 change: wrong report" in capsys.readouterr().out
