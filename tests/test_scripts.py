import importlib.util
import json
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MACHINE_FACTS = {"nproc", "python", "numpy", "scipy"}


def test_layer_times_rate_group_keeps_the_rate_solve_keys():
    path = ROOT / "scripts" / "layer_times.py"
    spec = importlib.util.spec_from_file_location("layer_times", path)
    layer_times = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layer_times)
    figures = layer_times.rate()
    record = json.loads((ROOT / "BENCH_rate_solve.json").read_text(encoding="utf-8"))
    assert set(figures) == set(record["layers"]["change"]) - MACHINE_FACTS
    assert all(math.isfinite(v) and v > 0 for v in figures.values()), figures


def test_readme_names_only_scripts_that_exist():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"scripts/\w+\.py", readme))
    assert named
    assert [path for path in sorted(named) if not (ROOT / path).is_file()] == []
