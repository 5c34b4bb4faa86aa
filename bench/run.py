"""restfuzz benchmark: fuzz the bundled mock target, check the output, print metrics.

Run from the repository root:

    python3 bench/run.py --workload miner-bugs --seed 0 --seconds 42 --trace 0

Each fuzzing run gets a fresh ``restfuzz serve`` child with all four seeded
bugs armed (reset before the run) and a fresh fuzzer process that calls
``restfuzz.cli.main(["fuzz", ...])`` with a request budget (training, where
the mode has it, is synchronous every N requests), so a run is
deterministic at a fixed fuzzer seed.  The load is a closed loop: one
fuzzer, one keep-alive connection, each request waits for the previous
reply.  Fuzzer and target take turns, so both run on one CPU.

End-to-end runs (``--trace 0``) fuzz each seed of the workload's fixed
panel once, then repeat the panel in turn while ``--seconds`` allow another
run; ``--seed`` sets where in the panel the run starts.  The panel is fixed
because requests-to-bug differs by tens of percent from one fuzzer seed to
the next, far more than any bound a change could be held to.  Counts (requests
to all bugs, bugs found, pass rate, templates with a 2xx, behaviour
branches) are means over the panel and repeat exactly; a repeat whose
counts differ from its seed's first run fails the benchmark.  Times (wall
and the fuzzer's CPU) are summed over short windows of each run, taking
each window's shortest time over the repeats of its seed (see
``end_to_end``), and averaged over the panel; ``setup_s`` is the median
over all runs.

Traced runs (``--trace 1``) fuzz seed ``--seed``, alternating an untraced
and a traced run, and print the per-layer metrics (medians over the traced
runs) plus the tracing overhead: traced versus untraced requests per
second.

The last line of stdout is one JSON object: ``correct``, ``attempted``
(requests sent), ``failed`` (transport failures) and ``metrics``.  Run
directories with the fuzzer's reports, captured output, ``result.json``
and a machine note land under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from target import Target  # noqa: E402

FUZZ_TIMEOUT_S = 150.0
GRAMMAR = Path("src/restfuzz/data/mock_target.grammar.json")

# How each seeded bug shows up in the error report (the acceptance suite's
# table, kept here so the benchmark does not import the tests).
BUG_SIGNATURES = {
    "b-uaf": ("GET /groups/{id}/attributes", 500),
    "b-undef": ("PUT /groups/{id}", 500),
    "b-perpage": ("GET /groups", 500),
    "b-parentid": ("POST /groups", 500),
}

CHECKERS = ["--enable-uaf-checker", "--enable-datadriven-checker"]


@dataclass(frozen=True)
class Workload:
    budget: int  # requests per fuzzing run
    panel: tuple[int, ...]  # fuzzer seeds behind every end-to-end figure
    args: tuple[str, ...]


WORKLOADS = {
    # The paper's full pipeline, as acceptance criterion 5 runs it.  Seed 0
    # reaches b-undef at request 5070; no other workload reaches it.  One
    # seed, so that a run holds enough repeats of it to time its windows.
    "miner-bugs": Workload(6000, (0,), (
        "--mode", "miner", "--train-every-requests", "2000", "--train-sync", *CHECKERS)),
    # Weighted selection, no checkers, no training: the per-request path
    # (sequences, rendering, client, mock, collection) undiluted.
    "seq-only": Workload(3000, (0, 1), ("--mode", "seq-only")),
    # BFS frontier and traditional rendering; checker traffic dominates.
    "baseline-checkers": Workload(4000, (0, 1), ("--mode", "baseline", *CHECKERS)),
}

END_TO_END_UNITS = {
    "req_per_s": "req/s",
    "s_to_all_bugs": "s",
    "requests_to_all_bugs": "requests",
    "bugs_found": "count",
    "pass_rate": "fraction",
    "templates_2xx": "count",
    "branches_hit": "count",
    "delivered_share": "fraction",
    "fuzzer_cpu_s_per_kreq": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

_BUG_LAYERS = {}
for _bug in BUG_SIGNATURES:
    _BUG_LAYERS[f"reporting.requests_to.{_bug}"] = "requests"
    _BUG_LAYERS[f"reporting.s_to.{_bug}"] = "s"

PER_LAYER_UNITS = {
    "recommender.train_s": "s",
    "recommender.s_per_epoch": "s",
    "recommender.us_per_example": "us",
    "recommender.accuracy_s": "s",
    "recommender.generate_ms_per_list": "ms",
    "recommender.rounds": "count",
    "model.batch_loss_and_grads_s": "s",
    "model.batch_loss_and_grads.calls": "count",
    "model.forward_s": "s",
    "model.forward.calls": "count",
    "client.send_s": "s",
    "client.send_ms_p50": "ms",
    "client.send_ms_p99": "ms",
    "client.requests": "requests",
    "client.transport_failures": "count",
    "client.overhead_s": "s",
    "mock_service.dispatch_s": "s",
    "mock_service.execute_s": "s",
    "mock_service.lock_wait_s": "s",
    "rendering.steps": "count",
    "rendering.render_s": "s",
    "execution.calls": "count",
    "execution.self_s": "s",
    "orchestrator.iterations": "count",
    "orchestrator.self_s": "s",
    "sequences.select_seed_s": "s",
    "sequences.select_seed.calls": "count",
    "sequences.extend_s": "s",
    "sequences.extend.calls": "count",
    "sequences.seeds_final": "count",
    "collection.seed_templates_s": "s",
    "checkers.uaf_s": "s",
    "checkers.uaf.requests": "requests",
    "checkers.uaf.violations": "count",
    "checkers.datadriven_s": "s",
    "checkers.datadriven.requests": "requests",
    "checkers.datadriven.violations": "count",
    "budget.main_share": "fraction",
    "budget.uaf_share": "fraction",
    "budget.datadriven_share": "fraction",
    "collection.record_s": "s",
    "collection.record.calls": "count",
    "collection.undefined_pairs_for_s": "s",
    "collection.undefined_pairs_for.calls": "count",
    "collection.training_corpus_s": "s",
    "collection.admit_s": "s",
    "collection.events_final": "count",
    "collection.pairs_final": "count",
    "reporting.bucket_error_s": "s",
    "reporting.bucket_error.calls": "count",
    "reporting.buckets": "count",
    "reporting.write_reports_s": "s",
    **_BUG_LAYERS,
    "grammar.parse_s": "s",
    "trace.untraced_req_per_s": "req/s",
    "trace.traced_req_per_s": "req/s",
    "trace.overhead_share": "fraction",
}


@dataclass
class Execution:
    """One fuzzing run and what it found."""

    fuzz_seed: int
    traced: bool
    budget: int
    setup_s: float
    result: dict
    metrics_json: dict
    buckets: list[dict]
    branches: int

    @property
    def requests(self) -> int:
        return self.result["requests"]

    @property
    def seconds(self) -> float:
        return self.result["seconds"]

    @property
    def req_per_s(self) -> float:
        return self.requests / self.seconds

    def first_seen(self) -> dict[str, dict]:
        """Bug -> its first bucket's discovery (requests, seconds, window)."""
        found: dict[str, dict] = {}
        for bug, signature in BUG_SIGNATURES.items():
            for hit in self.result["discoveries"]:
                if (hit["template_id"], hit["status"]) == signature:
                    found[bug] = hit
                    break
        return found

    def to_all_bugs(self) -> dict | None:
        """The discovery that completed the set of bugs; None if one was missed."""
        found = self.first_seen()
        if len(found) < len(BUG_SIGNATURES):
            return None
        return max(found.values(), key=lambda hit: hit["window"])

    def counts(self) -> dict[str, float]:
        """The figures that must repeat exactly at a fixed fuzzer seed."""
        last = self.to_all_bugs()
        return {
            "requests": self.requests,
            "windows": len(self.result["windows"]["wall"]),
            "requests_to_all_bugs": self.budget if last is None else last["requests"],
            "bugs_found": len(self.first_seen()),
            "pass_rate": self.metrics_json["pass_rate"],
            "templates_2xx": self.metrics_json["unique_request_templates"],
            "branches_hit": self.branches,
        }


class Bench:
    """The fuzzing runs of one benchmark run and the problems they showed."""

    def __init__(self, root: Path, workload: str, out: Path):
        self.root = root
        self.src = root / "src"
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.out = out
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), os.environ.get("PYTHONPATH")) if p
        )
        self.problems: list[str] = []
        self.executions: list[Execution] = []
        self.cpus = sorted(os.sched_getaffinity(0))

    def execute(self, fuzz_seed: int, traced: bool, cpu: int) -> None:
        # The fuzzer and the target take turns (each waits for the other's
        # reply), so both run on one CPU, inherited from here.  On a shared
        # host that halves the run-to-run spread of letting them move
        # between CPUs whose speeds rise and fall independently.
        os.sched_setaffinity(0, {cpu})
        index = len(self.executions)
        run_dir = self.out / f"{index:03d}-seed{fuzz_seed}{'-traced' if traced else ''}"
        run_dir.mkdir(parents=True)
        with Target.start(self.src, self.env, traced, run_dir / "mock_layers.json") as target:
            target.reset()
            argv = ["fuzz", "--spec", str(self.root / GRAMMAR), "--target", target.url,
                    "--max-requests", str(self.workload.budget), "--seed", str(fuzz_seed),
                    *self.workload.args, "--report-dir", str(run_dir)]
            job = {"src": str(self.src), "run_dir": str(run_dir), "trace": traced,
                   "argv": argv}
            (run_dir / "job.json").write_text(json.dumps(job, indent=1))
            with open(run_dir / "stdout.txt", "wb") as out, \
                    open(run_dir / "stderr.txt", "wb") as err:
                spawned = time.monotonic()
                child = subprocess.Popen(
                    [sys.executable, str(HERE / "fuzz_child.py"), str(run_dir / "job.json")],
                    stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=self.env,
                )
                try:
                    returncode = child.wait(FUZZ_TIMEOUT_S)
                finally:
                    if child.poll() is None:
                        child.kill()
                        child.wait()
            if returncode != 0:
                raise RuntimeError(f"fuzzer process exited with {returncode}; "
                                   f"see {run_dir / 'stderr.txt'}")
            branches = target.behavior_branches()
        result = json.loads((run_dir / "result.json").read_text())
        if traced:
            result["layers"].update(json.loads((run_dir / "mock_layers.json").read_text()))
        execution = Execution(
            fuzz_seed=fuzz_seed,
            traced=traced,
            budget=self.workload.budget,
            setup_s=target.setup_s + (result["main_entered"] - spawned),
            result=result,
            metrics_json=json.loads((run_dir / "metrics.json").read_text()),
            buckets=[json.loads(line) for line in
                     (run_dir / "errors.jsonl").read_text().splitlines()],
            branches=branches,
        )
        self.check(execution)
        self.executions.append(execution)

    def check(self, execution: Execution) -> None:
        where = f"{self.name} fuzz seed {execution.fuzz_seed}"
        if execution.result["exit_code"] != 0:
            self.problems.append(f"{where}: cli.main returned {execution.result['exit_code']}")
        if execution.metrics_json["requests_sent"] < self.workload.budget:
            self.problems.append(f"{where}: sent {execution.metrics_json['requests_sent']} "
                                 f"of {self.workload.budget} requests")
        signatures = set(BUG_SIGNATURES.values())
        for bucket in execution.buckets:
            if (bucket["template_id"], bucket["status"]) not in signatures:
                self.problems.append(f"{where}: bucket {bucket['bucket_id']} matches "
                                     f"no seeded bug")
        if self.name == "miner-bugs" and execution.fuzz_seed == 0:
            missed = sorted(set(BUG_SIGNATURES) - set(execution.first_seen()))
            if missed:
                self.problems.append(f"{where}: missed {', '.join(missed)}")
        for earlier in self.executions:
            if (earlier.fuzz_seed == execution.fuzz_seed
                    and earlier.counts() != execution.counts()):
                self.problems.append(f"{where}: counts differ between runs of one seed: "
                                     f"{earlier.counts()} vs {execution.counts()}")
                break

    def run(self, seeds: list[int], seconds: float, trace: bool) -> None:
        """Fuzz each seed once, then repeat them in turn while time allows.

        With ``trace`` each round is an untraced and a traced run of one seed.
        """
        started = time.monotonic()
        rounds: list[float] = []
        for i in itertools.count():
            fuzz_seed = seeds[i % len(seeds)]
            round_started = time.monotonic()
            # Each pass over the seeds runs on the next CPU, so a CPU the
            # host slows for a while holds back only some repeats of a seed.
            cpu = self.cpus[i // len(seeds) % len(self.cpus)]
            self.execute(fuzz_seed, traced=False, cpu=cpu)
            if trace:
                self.execute(fuzz_seed, traced=True, cpu=cpu)
            rounds.append(time.monotonic() - round_started)
            if self.problems:
                return
            elapsed = time.monotonic() - started
            if i + 1 >= len(seeds) and elapsed + statistics.median(rounds) > seconds:
                return


def panel_order(panel: tuple[int, ...], seed: int) -> list[int]:
    """The workload's fixed panel of fuzzer seeds, rotated by the benchmark seed."""
    start = seed % len(panel)
    return list(panel[start:] + panel[:start])


def best_windows(runs: list[Execution], clock: str) -> list[float]:
    """Each window's shortest time over the runs of one fuzzer seed."""
    return [min(column) for column in zip(*(e.result["windows"][clock] for e in runs))]


def end_to_end(executions: list[Execution]) -> dict[str, float]:
    """Counts from each panel seed's first run; times from its best windows.

    A run of a fixed fuzzer seed does the same work every time, so each
    window (see ``fuzz_child.Windows``) is the same work in every repeat; its
    shortest time over the repeats leaves out the moments the shared host
    slowed that run down.  Per-seed figures are averaged over the panel, so
    every run weighs each fuzzer seed equally however many repeats it got.
    """
    by_seed: dict[int, list[Execution]] = {}
    for execution in executions:
        by_seed.setdefault(execution.fuzz_seed, []).append(execution)

    def panel_mean(value) -> float:
        return statistics.fmean(value(runs) for runs in by_seed.values())

    def req_per_s(runs):
        return runs[0].requests / sum(best_windows(runs, "wall"))

    def s_to_all_bugs(runs):
        """A missed bug counts as the whole run."""
        best = best_windows(runs, "wall")
        last = runs[0].to_all_bugs()
        return sum(best if last is None else best[:last["window"] + 1])

    def cpu_s_per_kreq(runs):
        return sum(best_windows(runs, "cpu")) * 1000.0 / runs[0].requests

    requests = sum(e.requests for e in executions)
    transport = sum(e.result["transport"] for e in executions)
    out = {"req_per_s": panel_mean(req_per_s), "s_to_all_bugs": panel_mean(s_to_all_bugs)}
    for key in ("requests_to_all_bugs", "bugs_found", "pass_rate", "templates_2xx",
                "branches_hit"):
        out[key] = panel_mean(lambda runs: runs[0].counts()[key])
    out["delivered_share"] = 1.0 - transport / requests
    out["fuzzer_cpu_s_per_kreq"] = panel_mean(cpu_s_per_kreq)
    out["peak_rss_mb"] = panel_mean(
        lambda runs: statistics.median(e.result["peak_rss_mb"] for e in runs))
    out["setup_s"] = statistics.median(e.setup_s for e in executions)
    return out


def per_layer(executions: list[Execution]) -> dict[str, float]:
    traced = [e for e in executions if e.traced]
    untraced = [e for e in executions if not e.traced]
    rows = []
    for execution in traced:
        layers = dict(execution.result["layers"])
        layers["client.overhead_s"] = (layers["client.send_s"]
                                       - layers["mock_service.dispatch_s"])
        found = execution.first_seen()
        for bug in BUG_SIGNATURES:
            hit = found.get(bug, {"requests": execution.budget, "seconds": execution.seconds})
            layers[f"reporting.requests_to.{bug}"] = hit["requests"]
            layers[f"reporting.s_to.{bug}"] = hit["seconds"]
        rows.append(layers)
    out = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    traced_rps = statistics.median(e.req_per_s for e in traced)
    untraced_rps = statistics.median(e.req_per_s for e in untraced)
    out["trace.untraced_req_per_s"] = untraced_rps
    out["trace.traced_req_per_s"] = traced_rps
    out["trace.overhead_share"] = 1.0 - traced_rps / untraced_rps
    return {name: out[name] for name in PER_LAYER_UNITS}


def steal_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks from /proc/stat; zeros where unavailable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():  # a plain checkout; do not search parents
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="restfuzz benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so every child process is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / GRAMMAR).is_file() or not (root / "src/restfuzz/cli.py").is_file():
        print("bench: run from the repository root; src/restfuzz is missing",
              file=sys.stderr)
        return 2
    out = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    panel = WORKLOADS[args.workload].panel
    seeds = [args.seed] if args.trace else panel_order(panel, args.seed)
    bench = Bench(root, args.workload, out)
    load_before = os.getloadavg()
    steal_before = steal_ticks()
    started = time.monotonic()
    try:
        bench.run(seeds, args.seconds, bool(args.trace))
    except Exception as exc:  # report the failed run as incorrect, not a crash
        traceback.print_exc()
        bench.problems.append(f"{type(exc).__name__}: {exc}")
    wall = time.monotonic() - started
    steal_after = steal_ticks()

    executions = bench.executions
    machine = {
        "nproc": len(bench.cpus),
        "python": platform.python_version(),
        "numpy": executions[0].result["numpy"] if executions else None,
        "commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "fuzz_seeds": seeds,
        "budget": bench.workload.budget,
        "runs": len(executions),
        "wall_s": wall,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "steal_ticks": steal_after[0] - steal_before[0],
        "steal_share": ((steal_after[0] - steal_before[0])
                        / max(steal_after[1] - steal_before[1], 1)),
    }
    (out / "machine.json").write_text(json.dumps(machine, indent=1))
    print("machine: " + json.dumps(machine))
    for problem in bench.problems:
        print(f"problem: {problem}")

    correct = not bench.problems
    metrics: dict[str, dict] = {}
    if correct:
        if args.trace:
            values = per_layer(executions)
            metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
        else:
            values = end_to_end(executions)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    summary = {
        "correct": correct,
        "attempted": max(sum(e.requests for e in executions), 1),
        "failed": sum(e.result["transport"] for e in executions),
        "metrics": metrics,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
