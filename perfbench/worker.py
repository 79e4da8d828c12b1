"""One workload in one process: set up, time the cases, check every output.

`run.py` starts this script in a fresh interpreter per workload and reads
the JSON record it prints as its last line.  The program under test is the
`macmahon` package in the checkout's `src/`, driven only through
`macmahon.cli.main(argv)` (untraced passes) or through the same public calls
that `verify_master` and the CLI handlers make (traced passes).

Usage (normally only through run.py):
    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --t0 PERF_COUNTER [--smoke] [--reference FILE]
        [--setup-only] [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DEFAULT_REFERENCE = HERE / "reference_digests.json"
MATRIX_DIR = HERE / "out" / "matrices"

# Each "random" case reads its matrix from a JSON file that set-up writes:
# nonzero entries uniform on {-3..-1, 1..3}, drawn from the workload seed,
# with zeros at a fixed set of round(m*m/7) positions (the modal zero count
# of the uniform law on {-3..3}).  The cost of `first_factor` falls steeply
# with the number of zeros and depends on where they sit (a 5x5 case takes
# 1.6 s with six zeros and 3.7 s with two), so fixing the positions keeps
# the work of a case the same for every seed; only the values change.
VERIFY_NUMERIC = [
    ("random", 4, 3, 6),
    ("random", 4, 4, 6),
    ("random", 5, 4, 6),
    ("random", 3, 3, 8),
    ("random", 4, 2, 7),
    ("ones", 4, 4, 8),
]
VERIFY_SYMBOLIC = [(3, 3, 6), (4, 3, 5), (4, 4, 5), (3, 2, 6)]
TABLES = [
    ("series/4-3-9", ["series", "--m", "4", "--k", "3", "--cap", "9"]),
    ("normal-form/5-5/5,4,3,2,1,5,4,3,2,1",
     ["normal-form", "--m", "5", "--k", "5", "--word", "5,4,3,2,1,5,4,3,2,1"]),
    ("charpoly/symbolic/7", ["charpoly", "--m", "7", "--matrix", "symbolic"]),
    ("count/strict/8-4-60", ["count", "--m", "8", "--k", "4", "--len", "60"]),
    ("count/weak/6-3-80", ["count", "--m", "6", "--k", "3", "--len", "80", "--variant", "weak"]),
]
# the cheapest case of each workload, used by --smoke
SMOKE = {"verify-numeric": "verify/random/4-2-7",
         "verify-symbolic": "verify/symbolic/3-2-6",
         "tables": "count/strict/8-4-60"}
WORKLOADS = ("verify-numeric", "verify-symbolic", "tables")


def zero_positions(m: int) -> set[tuple[int, int]]:
    """The fixed zero pattern of every m x m benchmark matrix."""
    cells = [(i, j) for i in range(m) for j in range(m)]
    return set(random.Random(f"zeros:{m}").sample(cells, round(m * m / 7)))


def write_matrix(path: Path, m: int, rng: random.Random) -> None:
    zeros = zero_positions(m)
    entries = [[0 if (i, j) in zeros else rng.choice((-3, -2, -1, 1, 2, 3))
                for j in range(m)] for i in range(m)]
    path.write_text(json.dumps({"m": m, "mode": "numeric", "entries": entries}))


def build_cases(workload: str, seed: int, matrix_dir: Path) -> list[dict]:
    """The workload's case list; only the random matrices, written to
    `matrix_dir`, depend on `seed`."""
    cases = []
    if workload == "verify-numeric":
        for kind, m, k, cap in VERIFY_NUMERIC:
            case_id = f"verify/{kind}/{m}-{k}-{cap}"
            matrix = kind
            if kind == "random":
                path = matrix_dir / f"seed{seed}-{m}-{k}-{cap}.json"
                write_matrix(path, m, random.Random(f"{seed}:{case_id}"))
                matrix = str(path)
            argv = ["verify", "--m", str(m), "--k", str(k), "--cap", str(cap),
                    "--matrix", matrix, "--format", "json"]
            cases.append({"id": case_id, "argv": argv})
    elif workload == "verify-symbolic":
        for m, k, cap in VERIFY_SYMBOLIC:
            argv = ["verify", "--m", str(m), "--k", str(k), "--cap", str(cap),
                    "--matrix", "symbolic", "--format", "json"]
            cases.append({"id": f"verify/symbolic/{m}-{k}-{cap}", "argv": argv})
    elif workload == "tables":
        for case_id, argv in TABLES:
            cases.append({"id": case_id, "argv": argv + ["--format", "json"]})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cases


def admissible_words(cases: list[dict]) -> int:
    """Sum over the verify cases of the number of admissible words up to cap."""
    from macmahon.counting import count_admissible
    from macmahon.words import AlgebraParams
    total = 0
    for case in cases:
        argv = case["argv"]
        if argv[0] == "verify":
            opts = dict(zip(argv[1::2], argv[2::2]))
            params = AlgebraParams(int(opts["--m"]), int(opts["--k"]))
            total += sum(count_admissible(params, int(opts["--cap"])).values)
    return total


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ------------------------------------------------------------ host speed

# The host's speed drifts by up to 1.7x over seconds (other tenants share
# its cores), and CPU time drifts with it.  So while a case runs, a timer
# signal interrupts it every PROBE_INTERVAL_S and times one fixed probe
# loop; the case's time is then scaled by PROBE_NOMINAL_S over the mean
# probe time.  The probe allocates no container objects, so it does not
# change when the garbage collector runs, and its data is a few KB, so
# what the program leaves in the caches changes its time little.
PROBE_INTERVAL_S = 0.01
PROBE_NOMINAL_S = 250e-6
_PROBE_KEYS = [(i & 7, i >> 3) for i in range(64)]
_PROBE_TABLE = dict.fromkeys(_PROBE_KEYS, 0)


def _probe_loop() -> int:
    table = _PROBE_TABLE
    total = 0
    for round_ in range(16):
        for key in _PROBE_KEYS:
            table[key] = (table[key] + round_) & 0xFFFF
            total += (round_ << 40) // 7
    return total


class HostProbe:
    """Probe times taken on timer ticks while one case runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.last_mean = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _probe_loop()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        """Disarm the timer; return (seconds spent in ticks, mean probe time).

        A case too short for a tick takes the previous case's mean, or one
        probe run now if it is the first.
        """
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        spent = sum(self.samples)
        if self.samples:
            self.last_mean = statistics.fmean(self.samples)
        elif not self.last_mean:
            self._tick()
            self.last_mean = self.samples[0]
        return spent, self.last_mean


def run_cli(argv: list[str], probe: HostProbe | None) -> tuple[float, float, int, str, str]:
    """One timed call of `cli.main`, under the host probe if one is given.

    Returns (seconds, mean probe seconds or 0.0, exit code, stdout, error);
    the seconds exclude the probe ticks.
    """
    from macmahon.cli import main
    out = io.StringIO()
    error = ""
    gc.collect()
    if probe:
        probe.start()
    try:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash of the program is a failed case
            code, error = -1, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    finally:
        ticks_s, probe_s = probe.stop() if probe else (0.0, 0.0)
    return elapsed - ticks_s, probe_s, code, out.getvalue(), error


# ----------------------------------------------------------------- oracles


def oracle(argv: list[str], text: str) -> str:
    """Check one case's output by a route that shares no cache with it.

    Returns "" when the output is right, else a one-line reason.
    """
    from macmahon.charpoly import SymMatrix, enumerate_partial_perms, scale_rows_by_t
    from macmahon.polyring import Poly
    from macmahon.rewrite import reversion_vector
    from macmahon.words import AlgebraParams

    obj = json.loads(text)
    opts = dict(zip(argv[1::2], argv[2::2]))
    command = argv[0]
    if command == "verify":
        degrees = obj["per_degree"]
        if obj["pass"] is not True or obj["first_failure"] is not None:
            return "verify did not pass"
        if [d["d"] for d in degrees] != list(range(int(opts["--cap"]) + 1)):
            return "verify did not report every degree"
        if not all(d["ok"] and d["residual_terms"] == 0 for d in degrees):
            return "verify has a failing degree"
        return ""
    if command == "count":
        values = [table["values"] for table in obj["tables"]]
        methods = [table["method"] for table in obj["tables"]]
        if methods != ["dp", "transfer", "series"] or len(values[0]) != int(opts["--len"]) + 1:
            return "count tables malformed"
        if not (values[0] == values[1] == values[2]) or obj["agree"] is not True:
            return "count methods disagree"
        return ""
    if command == "series":
        if obj["lhs"] != obj["rhs"] or obj["equal"] is not True:
            return "series lhs != rhs"
        return ""
    if command == "normal-form":
        params = AlgebraParams(int(opts["--m"]), int(opts["--k"]))
        word = tuple(int(c) for c in opts["--word"].split(","))
        expected = {w: str(c) for w, c in reversion_vector(word, params).items()}
        got = {tuple(term["word"]): term["coeff"] for term in obj["terms"]}
        return "" if got == expected else "normal form != reversion vector"
    if command == "charpoly":
        m = int(opts["--m"])
        scaled = scale_rows_by_t(SymMatrix.symbolic(m))
        for r in range(m + 1):
            total = Poly.zero()
            for pp in enumerate_partial_perms(m, r):
                total = total + (-1) ** (pp.inv + r) * pp.a_weight(scaled)
            if obj["coeffs"][r] != total.to_json_terms():
                return f"charpoly c_{r} != partial-permutation expansion"
        return ""
    return f"no oracle for {command}"


# --------------------------------------------------------------- tracing


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, case id)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.case = ""

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.case)

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self time per span name over spans[first:]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for index in range(first, len(self.spans)):
            name, start, end, _, _ = self.spans[index]
            totals[name] = totals.get(name, 0.0) + (end - start) - child[index]
        return totals


def replay(case: dict, tracer: Tracer, counts: dict) -> str:
    """Run one case as the public calls its CLI handler makes, one span per call.

    Returns the bytes the CLI would print, so the replay is checked against
    the same reference digest as the untraced call.
    """
    from macmahon import cli
    from macmahon.charpoly import (SymMatrix, char_coeffs, matrix_from_json_obj,
                                   scale_rows_by_t, second_factor)
    from macmahon.counting import DP, SERIES, TRANSFER, count_admissible, f_series
    from macmahon.identity import _report_from_residuals, first_factor
    from macmahon.rewrite import normal_form
    from macmahon.words import AlgebraParams

    span = tracer.span
    tracer.case = case["id"]
    with span("case"):
        with span("cli.parse"):
            args = cli.build_parser().parse_args(case["argv"])
        if args.command != "charpoly":
            with span("words.params"):
                params = AlgebraParams(args.m, args.k)
        if args.command == "charpoly":
            with span("charpoly.load_matrix"):
                matrix = SymMatrix.symbolic(args.m)
            with span("charpoly.char_coeffs"):
                coeffs = char_coeffs(scale_rows_by_t(matrix))
            counts["charpoly.terms"] += sum(len(c.terms) for c in coeffs)
            with span("cli.format"):
                text = json.dumps({"m": args.m, "coeffs": [c.to_json_terms() for c in coeffs]},
                                  indent=2, sort_keys=True) + "\n"
        elif args.command == "verify":
            with span("charpoly.load_matrix"):
                if args.matrix == "ones":
                    matrix = SymMatrix.ones(args.m)
                elif args.matrix == "symbolic":
                    matrix = SymMatrix.symbolic(args.m)
                else:
                    with open(args.matrix, encoding="utf-8") as handle:
                        matrix = matrix_from_json_obj(json.load(handle))
            with span("identity.first_factor"):
                ff = first_factor(matrix, params, args.cap)
            with span("identity.series"):
                series = ff.series()
            with span("charpoly.second_factor"):
                sf = second_factor(matrix, params)
            with span("polyring.product"):
                product = series * sf
            with span("identity.residual"):
                residuals = [product.t_component(d) - (1 if d == 0 else 0)
                             for d in range(args.cap + 1)]
                report = _report_from_residuals(params, args.cap, ff.mode, residuals)
            counts["identity.g_terms"] += len(ff.coeffs)
            counts["identity.series_terms"] += len(series.poly.terms)
            counts["charpoly.sf_terms"] += len(sf.terms)
            counts["polyring.product_pairs"] += len(series.poly.terms) * len(sf.terms)
            with span("cli.format"):
                text = json.dumps(report.to_json_obj(), indent=2, sort_keys=True) + "\n"
        elif args.command == "count":
            tables = []
            for method in (DP, TRANSFER, SERIES):
                with span("counting.count"):
                    tables.append(count_admissible(params, args.len, args.variant, method))
            agree = tables[0].values == tables[1].values == tables[2].values
            with span("cli.format"):
                text = json.dumps({"tables": [t.to_json_obj() for t in tables], "agree": agree},
                                  indent=2, sort_keys=True) + "\n"
        elif args.command == "series":
            with span("counting.f_series"):
                result = f_series(params, args.cap, args.variant)
            with span("cli.format"):
                text = json.dumps(result.to_json_obj(), indent=2, sort_keys=True) + "\n"
        elif args.command == "normal-form":
            word = tuple(int(c) for c in args.word.split(","))
            with span("rewrite.normal_form"):
                combination = normal_form(word, params)
            counts["rewrite.nf_terms"] += len(combination)
            with span("cli.format"):
                text = json.dumps({"m": params.m, "k": params.k, "word": list(word),
                                   "terms": combination.to_json_obj()},
                                  indent=2, sort_keys=True) + "\n"
    counts["cli.bytes_out"] += len(text.encode("utf-8"))
    return text


# spans whose self time is reported, each as the metric "<span>_s"
TIMED_SPANS = ("identity.first_factor", "identity.series", "identity.residual",
               "polyring.product", "charpoly.second_factor", "charpoly.char_coeffs",
               "rewrite.normal_form", "counting.f_series", "counting.count", "cli.format")
COUNTS = ("identity.g_terms", "identity.series_terms", "charpoly.sf_terms",
          "polyring.product_pairs", "rewrite.nf_terms", "charpoly.terms", "cli.bytes_out")


# ------------------------------------------------------------------ main


class Checker:
    """Counts attempted and failed case runs.

    A failure is a nonzero exit, an exception, a stdout digest that differs
    from the reference, or an oracle mismatch.  Checks run after timing;
    the oracle runs once per case, on the first output, and every later
    output of the case must have the same digest.
    """

    def __init__(self, reference: dict):
        self.reference = reference
        self.first: dict[str, tuple[list, str, str]] = {}
        self.runs: list[tuple[str, int, str, str]] = []
        self.verdict: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, case: dict, code: int, text: str, error: str = "") -> None:
        text_digest = digest(text)
        self.first.setdefault(case["id"], (case["argv"], text, text_digest))
        self.runs.append((case["id"], code, text_digest, error))

    def finish(self) -> None:
        for case_id, (argv, text, _) in self.first.items():
            try:
                self.verdict[case_id] = oracle(argv, text)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                self.verdict[case_id] = f"output unreadable: {type(exc).__name__}: {exc}"
        for case_id, code, text_digest, error in self.runs:
            reason = error or ("" if code == 0 else f"exit code {code}")
            if not reason and text_digest != self.reference.get(case_id):
                reason = "stdout digest differs from the reference"
            if not reason and text_digest != self.first[case_id][2]:
                reason = "stdout differs between runs"
            reason = reason or self.verdict[case_id]
            self.attempted += 1
            if reason:
                self.failed += 1
                self.reasons.append(f"{case_id}: {reason}")
        self.runs.clear()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="perf_counter() of the parent just before it started this process")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--reference", default=str(DEFAULT_REFERENCE))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="file to write the traced spans to")
    opts = parser.parse_args()

    # set-up: import, input generation, reference digests, work bases
    sys.path.insert(0, str(SRC))
    import macmahon.cli  # noqa: F401  (import time belongs to set-up)

    MATRIX_DIR.mkdir(parents=True, exist_ok=True)
    cases = [c for c in build_cases(opts.workload, opts.seed, MATRIX_DIR)
             if not opts.smoke or c["id"] == SMOKE[opts.workload]]
    with open(opts.reference, encoding="utf-8") as handle:
        reference = json.load(handle)
    words = admissible_words(cases)
    setup_s = time.perf_counter() - opts.t0
    if opts.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    checker = Checker(reference)
    case_samples: dict[str, list[float]] = {c["id"]: [] for c in cases}
    norm_case_samples: dict[str, list[float]] = {c["id"]: [] for c in cases}
    traced_case_samples: dict[str, list[float]] = {c["id"]: [] for c in cases}
    probe_samples: list[float] = []
    pass_samples: list[float] = []
    layer_samples: dict[str, list[float]] = {name + "_s": [] for name in TIMED_SPANS}
    coverage_samples: list[float] = []
    counts: dict[str, int] = {}
    tracer = Tracer()
    # the traced pass times its untraced calls without the probe, so that
    # host.wall_s and trace.overhead_s compare like with like
    probe = None if opts.trace else HostProbe()

    def run_pass() -> float:
        """Time each case through cli.main; when tracing, replay it right
        after on the same input, so host drift hits both runs alike."""
        first = len(tracer.spans)
        pass_counts = dict.fromkeys(COUNTS, 0)
        untraced = total = 0.0
        for case in cases:
            elapsed, probe_s, code, text, error = run_cli(case["argv"], probe)
            case_samples[case["id"]].append(elapsed)
            if probe:
                norm_case_samples[case["id"]].append(elapsed * PROBE_NOMINAL_S / probe_s)
                probe_samples.append(probe_s)
            checker.record(case, code, text, error)
            untraced += elapsed
            total += elapsed
            if opts.trace:
                gc.collect()
                error, text = "", ""
                root = len(tracer.spans)  # index of the replay's "case" span
                try:
                    text = replay(case, tracer, pass_counts)
                except Exception as exc:  # a crash of the program is a failed case
                    error = f"{type(exc).__name__}: {exc}"
                checker.record(case, 0, text, error)
                _, start, end, _, _ = tracer.spans[root]
                traced_case_samples[case["id"]].append(end - start)
                total += end - start
        pass_samples.append(untraced)
        if opts.trace:
            selfs = tracer.self_times(first)
            for name in TIMED_SPANS:
                layer_samples[name + "_s"].append(selfs.get(name, 0.0))
            traced = sum(end - start for name, start, end, _, _ in tracer.spans[first:]
                         if name == "case")
            layered = sum(t for name, t in selfs.items() if name != "case")
            coverage_samples.append(layered / traced if traced else 0.0)
            if not counts:  # the first pass's counts, which repeat exactly for a seed
                counts.update(pass_counts)
        return total

    start = time.perf_counter()
    deadline = start + opts.seconds
    while True:
        cost = run_pass()
        if time.perf_counter() + cost > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measured_s = time.perf_counter() - start
    checker.finish()

    wall_s = sum(statistics.median(v) for v in case_samples.values())
    record = {
        "workload": opts.workload,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.reasons[:20],
        "outputs": {case_id: {"sha256": first[2], "oracle": checker.verdict[case_id]}
                    for case_id, first in checker.first.items()},
        "measured_s": measured_s,
        "inputs": [c["argv"] for c in cases],
        "samples": {"pass_s": pass_samples, "case_s": case_samples,
                    "case_norm_s": norm_case_samples, "probe_s": probe_samples},
    }
    if probe:
        record["wall_norm_s"] = sum(statistics.median(v) for v in norm_case_samples.values())
        record["probe_us"] = statistics.median(probe_samples) * 1e6
    else:
        first_factor_s = statistics.median(layer_samples["identity.first_factor_s"])
        layers = {metric: statistics.median(v) for metric, v in layer_samples.items()}
        layers.update(counts)
        layers["words.admissible_words"] = words
        layers["identity.first_factor_us_per_word"] = (
            first_factor_s * 1e6 / words if words else 0.0)
        layers["host.wall_s"] = wall_s
        layers["trace.coverage"] = statistics.median(coverage_samples)
        layers["trace.overhead_s"] = sum(
            statistics.median(v) for v in traced_case_samples.values()) - wall_s
        record["per_layer"] = layers
        record["samples"].update({"traced_case_s": traced_case_samples,
                                  "layer_s": layer_samples, "coverage": coverage_samples})
        if opts.spans:
            with open(opts.spans, "w", encoding="utf-8") as handle:
                json.dump({"fields": ["name", "start", "end", "parent", "case"],
                           "spans": tracer.spans}, handle)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
