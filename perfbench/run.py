"""Benchmark of the macmahon package: one workload per fresh subprocess.

Run from the root of a checkout:
    python3 perfbench/run.py --workload verify-numeric --seed 1 --seconds 35 --trace 0

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics (setup_s, wall_norm_s, peak_rss_mb); with --trace 1 it holds the
per-layer metrics of the traced pass.  The line before it is a human
summary that adds fail_frac (and, untraced, the unscaled wall time and
the host probe time).  The full record (provenance, raw samples) and the
traced spans go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
WORKLOADS = ("verify-numeric", "verify-symbolic", "tables")
# set-up is also timed in this many extra processes that stop after set-up
SETUP_SAMPLES = 8
# a run must end within 180 s; every worker gets what is left of this
RUN_LIMIT_S = 170.0


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def start_worker(args, extra: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; return the record it prints."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--reference", args.reference, *extra]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, capture_output=True,
                          text=True, timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="run only the workload's cheapest case (self-test)")
    parser.add_argument("--reference", default=str(HERE / "reference_digests.json"),
                        help="JSON file of expected stdout sha256 per case")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the digests of outputs that pass their oracle "
                             "into the --reference file")
    args = parser.parse_args()

    if not (ROOT / "src" / "macmahon" / "cli.py").is_file():
        print(f"error: no macmahon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                setups.append(start_worker(args, ["--setup-only"], deadline)["setup_s"])
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        extra = ["--spans", str(OUT / f"{stem}-spans.json")] if args.trace else []
        record = start_worker(args, extra, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(record["setup_s"])
    if args.write_reference:
        return write_reference(Path(args.reference), record["outputs"])

    attempted, failed = record["attempted"], record["failed"]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in record["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_norm_s": {"value": record["wall_norm_s"], "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    record["provenance"] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    record["samples"]["setup_s"] = setups
    record["metrics"] = metrics
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    fail_frac = failed / attempted if attempted else 1.0
    summary = " ".join(f"{name}={m['value']:.6g}{m['unit'] if m['unit'] != 'count' else ''}"
                       for name, m in metrics.items())
    print(f"{args.workload} seed={args.seed} trace={args.trace} {summary} "
          f"fail_frac={fail_frac:.6g} ({failed}/{attempted})"
          + ("" if args.trace else f" unscaled wall_s={record['wall_s']:.6g}s"
             f" probe={record['probe_us']:.4g}us"))
    for reason in record["failures"]:
        print(f"  failed: {reason}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def write_reference(path: Path, outputs: dict) -> int:
    bad = [case_id for case_id, out in outputs.items() if out["oracle"]]
    if bad:
        print(f"error: oracle failed for {bad}; reference not written", file=sys.stderr)
        return 1
    reference = json.loads(path.read_text()) if path.exists() else {}
    reference.update({case_id: out["sha256"] for case_id, out in outputs.items()})
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} digests to {path}")
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "identity.first_factor_us_per_word":
        return "us/word"
    if name == "trace.coverage":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
