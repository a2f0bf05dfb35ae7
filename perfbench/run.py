"""The localcluster benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload ring100k-local --seed 1 --seconds 40 --trace 0

Run from the repository root. The workload's inputs are generated from
the seed in a child process (``gen.py``) into a scratch directory under
the root, which is removed at the end. Then, in this process, within a
window of ``--seconds``:

* set-up: ``load_edge_list`` on each graph file, several times;
* queries: a closed loop with one client runs the workload's query list
  on the warmed graphs, pass after pass;
* CLI: each command runs as one ``python -m localcluster`` subprocess.

Only one thing runs at a time, and the run and its children are pinned
to one CPU, so the benchmark never uses more than one core. Loads and CLI calls are
spread evenly over the window and queries fill the time between them;
the run ends once the window is over and at least ``min_queries``
queries completed, which may be part-way through a pass: query lists
are ordered so that every prefix is an even mix.

Machine speed. On a shared machine the CPU's speed drifts by up to 20%
for tens of seconds at a time, which no amount of work inside one run
averages out. So right after each query and each load the run times a
fixed reference computation (``reference_unit``) a few times, and scales
the operation's time by NOMINAL_REFERENCE_MS / (their median). A change
to the program moves the scaled times as it moves the raw ones; the raw
values and the reference time are kept in the run record. A CLI call
runs in a child process for seconds, and the reference timed right after
it tracked its speed worse than the run's median reference does, so CLI
times are scaled by the run's median reference time instead.

Every answer is certified after the timed interval. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
split with ``--trace 1``. A traced run alternates untraced and traced
passes of the query list, traces the CLI from a child process
(``cli_child.py``), and reports ``trace.overhead_frac`` from the two.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ".perfbench_work"
CHILD_TIMEOUT_S = 150
NOMINAL_REFERENCE_MS = 3.0
QUERY_REFERENCE_REPS = 3  # reference runs after each query
LOAD_REFERENCE_REPS = 5  # after each load
E2E_UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
    "cli_p50_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Tally:
    """Operations (queries and CLI calls) attempted and failed, and why."""

    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, what: str, *, incorrect: bool = False) -> None:
        self.failed += 1
        self.incorrect += incorrect
        if len(self.errors) < 20:
            self.errors.append(what)


_REF_KEYS = np.arange(20_000) % 997
_REF_VALUES = np.random.default_rng(0).random(20_000)


def reference_unit() -> float:
    """Fixed work in the program's own mix: a dict-heavy Python loop and small numpy kernels."""
    d: dict[int, float] = {}
    for k in range(3000):
        d[k % 1009] = d.get(k % 1009, 0.0) + k * 0.5
    order = np.argsort(_REF_VALUES, kind="stable")
    return sum(d.values()) + float(np.bincount(_REF_KEYS, _REF_VALUES[order]).sum())


class Speed:
    """Times the reference computation, to scale measured times to the nominal speed."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, reps: int) -> float:
        """Run the reference ``reps`` times now; returns the scale factor they give."""
        now = []
        for _ in range(reps):
            t0 = time.perf_counter()
            reference_unit()
            now.append(time.perf_counter() - t0)
        self.samples += now
        return NOMINAL_REFERENCE_MS / (statistics.median(now) * 1e3)

    def factor(self) -> float:
        """The scale factor over every sample so far."""
        return NOMINAL_REFERENCE_MS / (statistics.median(self.samples) * 1e3)


@dataclass
class Samples:
    """Timings of one kind of operation, raw and scaled."""

    raw: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)

    def add(self, seconds: float, speed: Speed, reps: int) -> None:
        self.raw.append(seconds)
        self.scaled.append(seconds * speed.sample(reps))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="localcluster benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- operations ---------------------------------------------------------------------


def generate(workload: str, seed: int, work: Path) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed), "--out", str(work)],
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    with open(work / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def load(work: Path, name: str):
    """One ``load_edge_list``; returns its result and its wall time."""
    from localcluster import io as lio

    t0 = time.perf_counter()
    loaded = lio.load_edge_list(work / name)
    return loaded, time.perf_counter() - t0


def load_inputs(manifest: dict, work: Path, speed: Speed, setup: Samples) -> list:
    """Load each graph once and map its seed sets to internal ids."""
    from workloads import GraphInput

    inputs = []
    for entry in manifest["graphs"]:
        (g, lm), seconds = load(work, entry["file"])
        setup.add(seconds, speed, LOAD_REFERENCE_REPS)
        sets = [np.array([lm.internal(x) for x in s["labels"]], dtype=np.int64) for s in entry["seed_sets"]]
        inputs.append(GraphInput(g, lm, entry["file"], [s["file"] for s in entry["seed_sets"]], sets))
    return inputs


def run_query(q, latencies: list[float], tally: Tally):
    """One timed query; its output, or the exception it raised."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        out = q.call()
    except Exception as exc:  # a failed query is counted, and the loop goes on
        out = exc
    latencies.append(time.perf_counter() - t0)
    if isinstance(out, Exception):
        tally.fail(f"{q.kind}: {type(out).__name__}: {out}")
    return out


def run_cli(call, work: Path, tally: Tally, spans_path: Path | None = None):
    """Run one CLI command; returns (wall seconds, printed set as sorted labels, or None)."""
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    if spans_path is None:
        cmd = [sys.executable, "-m", "localcluster", *call.argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), "--", *call.argv]
    tally.attempted += 1
    name = call.argv[0]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        tally.fail(f"cli {name}: no answer within {CHILD_TIMEOUT_S} s")
        return time.perf_counter() - t0, None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        tally.fail(f"cli {name}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return wall, None
    try:
        return wall, sorted(json.loads(proc.stdout)["set"])
    except (ValueError, KeyError):
        tally.fail(f"cli {name}: output is not a result object", incorrect=True)
        return wall, None


# -- certificates ---------------------------------------------------------------------


def certify(plan, first: list, tally: Tally) -> list:
    """Check each first-pass answer; returns its set as sorted labels, or None."""
    from workloads import CertificateError

    labels = []
    for q, lm, out in zip(plan.queries, plan.label_maps, first):
        if isinstance(out, Exception):
            labels.append(None)
            continue
        try:
            q.check(out)
        except CertificateError as exc:
            tally.fail(f"{q.kind}: certificate: {exc}", incorrect=True)
            labels.append(None)
            continue
        labels.append(sorted(lm.external(v) for v in q.set_of(out)))
    return labels


def compare_pass(plan, first: list, outputs: list, tally: Tally) -> None:
    """A repeated pass must return the sets the first pass returned."""
    for q, a, b in zip(plan.queries, first, outputs):
        if isinstance(a, Exception) or isinstance(b, Exception):
            continue  # already counted
        if q.set_of(a) != q.set_of(b):
            tally.fail(f"{q.kind}: answer changed between passes", incorrect=True)


def compare_cli(plan, printed: list, labels: list, tally: Tally) -> None:
    """Each command must print the set its library query returned."""
    for call, got in zip(plan.cli, printed):
        want = labels[call.query] if call.query < len(labels) else None
        if got is not None and got != want:
            tally.fail(f"cli {call.argv[0]}: printed set differs from the library answer", incorrect=True)


def digest(plan, labels: list) -> str:
    """Hash of every answer, to compare two commits bit for bit."""
    kinds = [q.kind for q in plan.queries] + [c.argv[0] for c in plan.cli]
    blob = json.dumps(list(zip(kinds, labels)), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- the two kinds of run ---------------------------------------------------------------


def untraced(spec, manifest, plan, work: Path, seconds: float, tally: Tally, record: dict, speed, setup) -> dict:
    """Queries, further set-up loads and CLI calls, interleaved over the window."""
    loads = [e["file"] for e in manifest["graphs"]] * (spec.setup_reps - 1)
    due = [(k * seconds / len(loads), "load", f) for k, f in enumerate(loads)]
    due += [((k + 0.5) * seconds / len(plan.cli), "cli", k) for k in range(len(plan.cli))]
    due.sort(key=lambda d: d[0])

    queries = Samples()
    by_kind: dict[str, list[float]] = {}
    passes: list[list] = []
    cli_walls: list[float] = []
    printed: list = [None] * len(plan.cli)
    n = len(plan.queries)
    done = 0
    t_start = time.perf_counter()
    while True:
        now = time.perf_counter() - t_start
        if due and due[0][0] <= now:
            _, kind, item = due.pop(0)
            if kind == "load":
                setup.add(load(work, item)[1], speed, LOAD_REFERENCE_REPS)
            else:
                wall, printed[item] = run_cli(plan.cli[item], work, tally)
                cli_walls.append(wall)
            continue
        if now >= seconds and not due and done >= spec.min_queries:
            break
        if done % n == 0:
            passes.append([])
        q = plan.queries[done % n]
        latency: list[float] = []
        passes[-1].append(run_query(q, latency, tally))
        queries.add(latency[0], speed, QUERY_REFERENCE_REPS)
        by_kind.setdefault(q.kind, []).append(latency[0])
        done += 1

    labels = certify(plan, passes[0], tally)
    for outputs in passes[1:]:
        compare_pass(plan, passes[0], outputs, tally)
    compare_cli(plan, printed, labels, tally)

    def summary(kind: str, cli_factor: float) -> dict[str, float]:
        setup_s, latencies = getattr(setup, kind), getattr(queries, kind)
        return {
            "setup_s": statistics.median(setup_s),
            "query_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
            "query_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
            "queries_per_s": len(latencies) / sum(latencies),
            "cli_p50_s": statistics.median(cli_walls) * cli_factor,
        }

    metrics = summary("scaled", speed.factor())
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["digest"] = digest(plan, labels + printed)
    record["reference_ms"] = statistics.median(speed.samples) * 1e3
    record["raw"] = summary("raw", 1.0)
    record["kind_p50_ms_raw"] = {k: round(statistics.median(v) * 1e3, 3) for k, v in by_kind.items()}
    p90 = metrics["query_p90_ms"] / 1e3
    record["samples"] = {
        "setup_loads": len(setup.raw),
        "queries": len(queries.raw),
        "passes": len(passes),
        "beyond_p90": sum(x > p90 for x in queries.scaled),
        "cli_calls": len(cli_walls),
        "reference": len(speed.samples),
    }
    return metrics


def traced(spec, manifest, plan, work: Path, seconds: float, tally: Tally, record: dict, speed) -> dict:
    """Per-layer split: traced loads, traced query passes, traced CLI children."""
    from tracer import Span, Tracer, cli_layer_metrics, install, query_layer_metrics, setup_layer_metrics

    tr = Tracer()
    install(tr)
    try:
        for _ in range(spec.setup_reps):
            for entry in manifest["graphs"]:
                load(work, entry["file"])
    finally:
        tr.uninstall()
    metrics = setup_layer_metrics(tr.spans)

    # A traced pass covers the first min_queries queries (or the whole list,
    # if shorter), so its counts are the same on every run of a seed.
    queries = plan.queries[: spec.min_queries]
    plain_walls, traced_walls, first, traced_spans = [], [], None, None
    t_start = time.perf_counter()
    while not traced_walls or time.perf_counter() - t_start < seconds:
        t0 = time.perf_counter()
        outputs = [run_query(q, [], tally) for q in queries]
        plain_walls.append(time.perf_counter() - t0)
        if first is None:
            first = outputs
        else:
            compare_pass(plan, first, outputs, tally)
        speed.sample(LOAD_REFERENCE_REPS)

        tr = Tracer()
        install(tr)
        try:
            t0 = time.perf_counter()
            outputs = []
            for q in queries:
                with tr.span(f"query.{q.kind}"):
                    outputs.append(run_query(q, [], tally))
            traced_walls.append(time.perf_counter() - t0)
        finally:
            tr.uninstall()
        compare_pass(plan, first, outputs, tally)
        traced_spans = traced_spans or tr.spans
        speed.sample(LOAD_REFERENCE_REPS)

    labels = certify(plan, first, tally)
    commands, printed = [], []
    for k, call in enumerate(plan.cli):
        spans_path = work / f"cli_spans_{k}.json"
        printed.append(run_cli(call, work, tally, spans_path)[1])
        if spans_path.exists():
            with open(spans_path, encoding="utf-8") as fh:
                blob = json.load(fh)
            commands.append((blob["import_s"], [Span(**s) for s in blob["spans"]]))
    compare_cli(plan, printed, labels, tally)

    metrics.update(query_layer_metrics(traced_spans))
    if commands:
        metrics.update(cli_layer_metrics(commands))
    f = speed.factor()
    metrics = {k: v * f if k.endswith("_ms") else v for k, v in metrics.items()}
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    record["digest"] = digest(plan, labels + printed)
    record["reference_ms"] = statistics.median(speed.samples) * 1e3
    record["samples"] = {
        "setup_loads": spec.setup_reps * len(manifest["graphs"]),
        "plain_passes": len(plain_walls),
        "traced_passes": len(traced_walls),
        "cli_calls": len(commands),
        "reference": len(speed.samples),
    }
    return metrics


def run_record(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "client": "closed loop, 1 client",
        "nominal_reference_ms": NOMINAL_REFERENCE_MS,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "localcluster" / "__init__.py").is_file():
        print(f"error: the program's source ({SRC / 'localcluster'}) is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import unit_of
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    record = run_record(args)
    # One CPU for this process and every child, so that the reference
    # computation runs where the CLI children run.
    record["cpu_affinity"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {record["cpu_affinity"]})
    tally = Tally()
    work = ROOT / WORK_DIR / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        manifest = generate(args.workload, args.seed, work)
        speed, setup = Speed(), Samples()
        inputs = load_inputs(manifest, work, speed, setup)
        plan = spec.plan(inputs, manifest, work)
        if args.trace:
            metrics = traced(spec, manifest, plan, work, args.seconds, tally, record, speed)
        else:
            metrics = untraced(spec, manifest, plan, work, args.seconds, tally, record, speed, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / WORK_DIR).rmdir()
        except OSError:
            pass

    units = {k: E2E_UNITS.get(k) or unit_of(k) for k in metrics}
    record["failed_frac"] = tally.failed / tally.attempted
    record["errors"] = tally.errors
    for name in sorted(metrics):
        print(f"{name:28s} {metrics[name]:14.6g} {units[name]}")
    print(f"{'failed_frac':28s} {record['failed_frac']:14.6g} ratio ({tally.failed} of {tally.attempted})")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
