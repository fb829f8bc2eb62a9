"""Import-level checks: package layering and the benchmark scripts.

Both run in a fresh interpreter, so what the test session has already
imported cannot hide a missing or unwanted import.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "benchmarks"

#: Imports every path in ``sys.argv[1:]`` as a module named by its stem.
_IMPORT_FILES = """
import importlib.util, pathlib, sys
for path in map(pathlib.Path, sys.argv[1:]):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = module
    spec.loader.exec_module(module)
"""


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)]),
        PYTHONDONTWRITEBYTECODE="1",
    )
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def _tree(root: pathlib.Path) -> dict:
    return {path: path.stat().st_mtime_ns for path in root.rglob("*")}


def test_campaign_loads_no_analysis_module():
    # The campaign layer sits below the experiment drivers.
    proc = _python(
        "import sys, repro.campaign\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_benchmark_script_imports():
    # A benchmark that still names a deleted API fails here, not only
    # in the separate benchmark jobs; importing one writes nothing.
    scripts = sorted(BENCH_DIR.glob("bench_*.py"))
    assert scripts
    before = _tree(BENCH_DIR)
    proc = _python(_IMPORT_FILES, *map(str, scripts))
    assert proc.returncode == 0, proc.stderr
    assert _tree(BENCH_DIR) == before
