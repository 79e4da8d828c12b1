import ast
import subprocess
import sys
import time
from pathlib import Path

import macmahon


def test_all_lists_exactly_the_imported_names():
    # a stale or missing __all__ entry would go unnoticed until a star import
    tree = ast.parse(Path(macmahon.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(macmahon.__all__) == len(set(macmahon.__all__))
    assert set(macmahon.__all__) == imported
    namespace: dict = {}
    exec("from macmahon import *", namespace)
    assert set(macmahon.__all__) <= set(namespace)


def test_config_gives_every_test_a_deadline(pytestconfig):
    # a test that loops dumps every thread's stack and ends the run
    # instead of hanging it
    assert pytestconfig.inipath == Path(__file__).resolve().parents[1] / "pyproject.toml"
    text = pytestconfig.inipath.read_text(encoding="utf-8")
    assert "faulthandler_timeout = 60\n" in text
    assert "faulthandler_exit_on_timeout = true\n" in text


def test_a_looping_test_fails_at_its_deadline(tmp_path):
    (tmp_path / "pytest.ini").write_text("[pytest]\n", encoding="utf-8")
    (tmp_path / "test_loop.py").write_text(
        "def test_loops_forever():\n    while True:\n        pass\n", encoding="utf-8")
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-o", "faulthandler_timeout=2", "-o", "faulthandler_exit_on_timeout=true", "test_loop.py"]
    start = time.monotonic()
    run = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=30)
    assert time.monotonic() - start < 30
    assert run.returncode != 0
    output = run.stdout + run.stderr
    assert "Timeout" in output
    assert "test_loops_forever" in output
