"""The qlat benchmark: one closed-loop client sending seeded CLI requests.

    python3 bench/run.py --workload local-orders --seed 1 --seconds 35 --trace 0

One request at a time, no threads: ``qlat.cli.main(argv)`` is called in
this process with the request on a redirected stdin.  Every response is
checked against its golden record and the group cross-checks, outside the
timed region.  Times are reported in reference time (see refclock.py).

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the run first sends some rounds untraced, then the same
rounds again with the span tracer installed, and reports the per-layer
metrics and the ratio of the two times.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import corpus as corpora
import tracer as tracing
from refclock import WINDOW, RefClock
from harness import ROOT, SRC, child_env, golden_problem, group_problems, run_inprocess

SETUP_REPEATS = 5
ABOVE_P90 = 10  # samples a run must hold above its p90
TRACE_BASELINE_SHARE = 0.3  # share of --seconds spent on the untraced pass
START_REPEATS = 7  # spawns per median in python.startup_ms / cli.import_ms

END_TO_END = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
RUN_LEVEL_LAYER = {
    "cli.import_ms": "ms",
    "python.startup_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

_CLI_SPANS = ("cli.build_parser", "cli._read_request", "cli._write_response", "cli.handler")
# Spans each workload must reach; a zero count there is flagged.
REACH = {
    "local-orders": _CLI_SPANS + (
        "exact_padic.valuation", "exact_padic.Mat2.__mul__", "exact_padic.module_hnf",
        "exact_padic.module_intersect", "exact_padic.smith_local",
        "bt_tree.canonical_vertex", "bt_tree.neighbors", "bt_tree.distance",
        "bt_tree.step_toward_end", "local_orders.order_closure",
        "local_orders.decompose_shifted_eichler", "local_orders.three_maximal_orders",
        "branches.mu_margin", "branches.shape_margin", "branches.classify_single",
        "branches.intersect_shapes", "branches.branch_of_order", "spinor_local.spinor_image",
    ),
    "tree-enum": _CLI_SPANS + (
        "bt_tree.canonical_vertex", "bt_tree.neighbors", "bt_tree.ball", "bt_tree.export_dot",
        "local_orders.order_closure", "local_orders.contains_shifted",
        "branches.enumerate_branch",
    ),
    "global-classfield": _CLI_SPANS + (
        "quadforms.class_group", "quadforms.form_cycle", "quadforms.compose",
        "quadforms.class_rep", "quadforms.prime_form",
        "global_classfield.spinor_class_field", "global_classfield.narrow_ray_class_group",
        "global_classfield.rep_field_comm_quadratic", "global_classfield.rep_field_rank3",
        "global_classfield.rep_field_rank4", "global_classfield.is_local_square",
        "global_classfield.is_unramified_or_split",
    ),
}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


# ---------------------------------------------------------------------------
# The program under test, imported into this process


class InProcess:
    """Requests through ``qlat.cli.main`` imported into this process."""

    def __init__(self):
        self.main = None

    def load(self) -> None:
        """A fresh import of the package, as a new process would do it."""
        for name in [n for n in sys.modules if n == "qlat" or n.startswith("qlat.")]:
            del sys.modules[name]
        self.main = importlib.import_module("qlat.cli").main

    def send(self, item):
        return run_inprocess(self.main, item["argv"], item["stdin"])


# ---------------------------------------------------------------------------
# Measurement


class Tally:
    def __init__(self):
        self.raw: list[float] = []  # seconds per request as measured
        self.latencies: list[float] = []  # the same in reference seconds
        self.weights: list[float] = []  # per request, see measure()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds = 0

    def above_p90(self) -> int:
        if len(self.raw) < 2:
            return 0
        p90 = statistics.quantiles(self.raw, n=10)[8]
        return sum(1 for x in self.raw if x > p90)

    def check(self, group, outcomes) -> None:
        bad = {}
        for pos, (item, out) in enumerate(zip(group, outcomes)):
            problem = golden_problem(item["golden"], out)
            if problem:
                bad.setdefault(pos, problem)
        for pos, problem in group_problems(group, outcomes):
            bad.setdefault(pos, problem)
        self.attempted += len(group)
        self.failed += len(bad)
        for pos, problem in sorted(bad.items()):
            self.problems.append(f"{' '.join(group[pos]['argv'])} {group[pos]['stdin']}: {problem}")


def measure(sender, corpus, seconds: float, above_p90: int, rounds: int | None = None) -> Tally:
    """Send whole rounds until `seconds` have passed and at least
    `above_p90` samples lie above the p90 (or exactly `rounds` rounds),
    timing the reference kernel between requests (see refclock.py).

    A run may pass the end of the corpus and start it again.  Each round
    of the corpus then weighs the same in the metrics however often it was
    sent, so the mix measured is the corpus's whatever the seed repeats."""
    tally, clock, marks, positions = Tally(), RefClock(), [], []
    clock.sample()
    deadline = time.perf_counter() + seconds
    while True:
        for group in corpus.rounds[tally.rounds % len(corpus.rounds)]:
            outcomes = []
            for item in group:
                marks.append(clock.mark())
                outcomes.append(sender.send(item))
                if clock.due():
                    clock.sample()
            tally.raw += [out.elapsed for out in outcomes]
            positions += [tally.rounds % len(corpus.rounds)] * len(outcomes)
            tally.check(group, outcomes)
        tally.rounds += 1
        if rounds is not None:
            if tally.rounds >= rounds:
                break
        elif time.perf_counter() >= deadline and tally.above_p90() >= above_p90:
            break
    for _ in range(WINDOW):
        clock.sample()
    tally.latencies = [x * clock.scale(m) for x, m in zip(tally.raw, marks)]
    passes, rest = divmod(tally.rounds, len(corpus.rounds))
    tally.weights = [1 / (passes + (pos < rest)) for pos in positions]
    return tally


def set_up(sender, workload: str, seed: int):
    """Corpus generation, imports and warm-up; returns (corpus, seconds, problems)."""
    start = time.perf_counter()
    corpus = corpora.draw(workload, seed)
    sender.load()
    warm = Tally()
    for item in corpus.warmup:
        warm.check([item], [sender.send(item)])
    return corpus, time.perf_counter() - start, warm.problems


def cold_start_ms(env: dict) -> tuple[float, float]:
    """Median bare interpreter start, and median `import qlat.cli` on top of it."""

    def once(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       capture_output=True, timeout=60)
        return time.perf_counter() - start

    bare, imported = [], []
    for _ in range(START_REPEATS):
        bare.append(once("pass"))
        imported.append(once("import qlat.cli"))
    bare_s = statistics.median(bare)
    return 1e3 * bare_s, 1e3 * (statistics.median(imported) - bare_s)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB


# ---------------------------------------------------------------------------
# Run record


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              encoding="utf-8", timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qlat").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_record(args, corpus, tally: Tally) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": nproc,
        "corpus_digest": corpus.digest,
        "corpus_requests": corpus.size,
        "requests": tally.attempted,
        "samples": len(tally.latencies),
        "rounds": tally.rounds,
        "failed": tally.failed,
        "failed_fraction": tally.failed / tally.attempted,
        "manifest": corpus.manifest(),
    }


def emit(record: dict, extra: dict | None, tally: Tally, warm_problems, metrics: dict) -> None:
    for problem in (warm_problems + tally.problems)[:20]:
        print(f"bench: failed: {problem}", file=sys.stderr)
    print(json.dumps({"run": record}, sort_keys=True))
    if extra is not None:
        print(json.dumps(extra, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0 and not warm_problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def quantile(values: list[float], weights: list[float], q: float) -> float:
    """The smallest value whose cumulative weight reaches share `q`."""
    pairs = sorted(zip(values, weights))
    target, total = q * sum(weights), 0.0
    for value, weight in pairs:
        total += weight
        if total >= target:
            return value
    return pairs[-1][0]


def timing(latencies: list[float], weights: list[float]) -> dict:
    """Requests per second spent inside them, and the p50 and p90 latency."""
    return {
        "requests_per_s": sum(weights) / sum(w * x for w, x in zip(weights, latencies)),
        "latency_p50_ms": 1e3 * quantile(latencies, weights, 0.5),
        "latency_p90_ms": 1e3 * quantile(latencies, weights, 0.9),
    }


def run_untraced(args, sender) -> None:
    clock, setups = RefClock(), []
    for _ in range(SETUP_REPEATS):
        for _ in range(WINDOW):
            clock.sample()
        mark = clock.mark()
        corpus, seconds, warm_problems = set_up(sender, args.workload, args.seed)
        setups.append((seconds, mark))
    for _ in range(WINDOW):
        clock.sample()
    tally = measure(sender, corpus, args.seconds, ABOVE_P90)
    metrics = {
        **timing(tally.latencies, tally.weights),
        "setup_s": statistics.median(seconds * clock.scale(m) for seconds, m in setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    raw = {**timing(tally.raw, tally.weights),
           "setup_s": statistics.median(seconds for seconds, _ in setups)}
    record = run_record(args, corpus, tally)
    record["raw"] = raw
    emit(record, None, tally, warm_problems,
         {name: (metrics[name], unit) for name, unit in END_TO_END.items()})


def run_traced(args, sender) -> None:
    corpus, _, warm_problems = set_up(sender, args.workload, args.seed)
    base = measure(sender, corpus, args.seconds * TRACE_BASELINE_SHARE, 0)
    spans = tracing.Tracer()
    spans.install()
    try:
        traced = measure(sender, corpus, 0, 0, rounds=base.rounds)
    finally:
        spans.uninstall()
    tally = Tally()  # both passes count towards attempted and failed
    for part in (base, traced):
        tally.latencies += part.latencies
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.problems += part.problems
    tally.rounds = base.rounds
    startup_ms, import_ms = cold_start_ms(child_env())
    values = spans.metrics()
    values["cli.import_ms"] = import_ms
    values["python.startup_ms"] = startup_ms
    values["trace.overhead_ratio"] = sum(traced.latencies) / sum(base.latencies)
    units = {**tracing.metric_units(), **RUN_LEVEL_LAYER}
    unreached = [name for name in REACH[args.workload]
                 if name not in spans.absent and spans.calls[name] == 0]
    report = {"trace": {"absent": spans.absent, "unbound": spans.unbound, "unreached": unreached}}
    for name in unreached:
        print(f"bench: span {name} recorded no calls on {args.workload}", file=sys.stderr)
    emit(run_record(args, corpus, tally), report, tally, warm_problems,
         {name: (values[name], unit) for name, unit in units.items()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpora.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qlat" / "cli.py").is_file():
        fail(f"no qlat sources under {SRC}; run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop("QLAT_MAX_VERTICES", None)  # every request sees the default budget
    sender = InProcess()
    try:
        (run_traced if args.trace else run_untraced)(args, sender)
    except corpora.CorpusError as exc:
        fail(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
