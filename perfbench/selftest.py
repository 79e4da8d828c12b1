"""Self-test of the benchmark; asserts no timings.

Run from the root of a checkout:
    python3 perfbench/selftest.py

For each workload, on its cheapest case only, it checks that
  - every metric named in BENCHMARK.json is printed, with its unit, for
    --trace 0 (end-to-end) and --trace 1 (per layer), and fail_frac is 0;
  - a deliberately wrong reference digest shows up as fail_frac > 0;
and that the benchmark exits nonzero without a result when the program's
sources are missing.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
sys.path.insert(0, str(HERE))
from worker import SMOKE  # noqa: E402


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr}")
    obj = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(obj) == {"correct", "attempted", "failed", "metrics"}, obj.keys()
    assert isinstance(obj["attempted"], int) and obj["attempted"] >= 1
    assert isinstance(obj["failed"], int)
    return obj


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    workloads = [w["name"] for w in spec["workloads"]]
    assert sorted(workloads) == sorted(SMOKE), workloads
    reference = json.loads((HERE / "reference_digests.json").read_text())

    for workload in workloads:
        for trace in (0, 1):
            obj = result(run(workload, trace))
            assert obj["correct"] and obj["failed"] == 0, (workload, trace, obj)
            got = {name: m["unit"] for name, m in obj["metrics"].items()}
            assert got == expected[trace], (workload, trace, got)
            assert all(isinstance(m["value"], (int, float)) for m in obj["metrics"].values())
        print(f"ok  {workload}: every metric printed with its unit, fail_frac = 0")

        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            wrong = dict(reference)
            wrong[SMOKE[workload]] = "0" * 64
            path = Path(tmp) / "wrong.json"
            path.write_text(json.dumps(wrong))
            obj = result(run(workload, 0, "--reference", str(path)))
        assert not obj["correct"] and obj["failed"] / obj["attempted"] > 0, obj
        print(f"ok  {workload}: a wrong reference digest gives fail_frac = "
              f"{obj['failed']}/{obj['attempted']}")

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "tmp*", "__pycache__"))
        proc = run(workloads[0], 0, cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  without the program's sources: exit code "
          f"{proc.returncode} and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
