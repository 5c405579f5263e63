"""End-to-end and per-layer benchmark of fanoconic.

Run from the root of a checkout; fanoconic is taken from its `src/`:

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 20 --trace 0

Workloads (see README.md and workloads.py): verify-default, verify-perturb,
class-queries.  Each run

  * times `import fanoconic` plus the section draw in fresh processes,
    several times (setup_s);
  * repeats whole rounds of the workload for --seconds, each round one
    process: `python3 -m fanoconic.cli verify ...` for the verify
    workloads, one batch of CLI queries for class-queries;
  * checks every answer against computations made apart from fanoconic
    (checks.py); a wrong answer counts as a failed operation;
  * prints one JSON line: correct, attempted, failed and the metrics.

With --trace 0 the metrics are wall_s, setup_s and peak_rss_mib, measured
with tracing off.  With --trace 1 the rounds alternate untraced and traced
processes; the traced ones wrap fanoconic's module boundaries
(tracer.py), and the run prints the per-layer metrics together with the
tracing overhead.  Spans and results are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from checks import check_query, check_verify, program_sections
from tracer import layer_metrics
from workloads import COEFF_RANGE, WORKLOADS, Workload, make_batch, verify_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
MIN_SETUPS = 5
RUN_LIMIT_S = 170.0

UNITS = (("_ms", "ms"), ("_s", "s"), ("_mib", "MiB"), ("_ratio", "ratio"),
         ("_bits", "bits"))


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


@dataclass(frozen=True)
class Child:
    wall_s: float
    peak_rss_mib: float
    code: int
    stdout: str
    stderr: str


def run_child(argv, deadline: float, tag: str) -> Child:
    """Run one process to its end, timing it and reading its peak RSS.

    The process is killed at the deadline (time.monotonic) and always
    reaped before this returns.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out_path = os.path.join(OUT, f"{tag}.stdout")
    err_path = os.path.join(OUT, f"{tag}.stderr")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(wall, usage.ru_maxrss / 1024, proc.returncode,
                     out.read().decode(), err.read().decode())


class Ledger:
    """Counts operations and checks each answer once per distinct output.

    Rounds repeat the same commands, and the program promises byte-identical
    output for identical commands, so an answer that differs from the first
    one given for its command is a failure too.
    """

    def __init__(self, workload: Workload, batch):
        self.workload = workload
        self.batch = batch
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._first = [None] * len(batch)
        self._verdicts = {}
        self._sections = {}

    def _sections_for(self, seed, perturb, coeff_range):
        key = (seed, perturb, coeff_range)
        if key not in self._sections:
            self._sections[key] = program_sections(seed, perturb, coeff_range)
        return self._sections[key]

    def _check(self, argv, code, stdout):
        if self.workload.kind == "verify":
            return check_verify(argv, code, stdout, self._sections_for)
        return check_query(argv, code, stdout)

    def record(self, answers):
        for i, argv in enumerate(self.batch):
            answer = answers[i] if i < len(answers) else (None, "")
            problems = self._verdicts.get((i, answer))
            if problems is None:
                problems = self._verdicts[(i, answer)] = self._check(argv, *answer)
            if self._first[i] is None:
                self._first[i] = answer
            elif answer != self._first[i]:
                problems = problems + [f"{argv[0]}: answer differs from an earlier run"]
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(problems)

    def operation(self, ok: bool, problem: str):
        """Count an operation that has no answer to check, only success."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


class Runner:
    def __init__(self, workload: Workload, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.batch = make_batch(workload, seed)
        self.ledger = Ledger(workload, self.batch)
        self.tag = f"{workload.name}-{seed}"
        self.batch_path = os.path.join(OUT, f"batch-{self.tag}.json")
        with open(self.batch_path, "w") as fh:
            json.dump(self.batch, fh)
        self.rounds = 0

    def child(self, argv) -> Child:
        return run_child([sys.executable, *argv], self.deadline, f"child-{self.tag}")

    def setup_s(self) -> float | None:
        """Set-up time of one fresh process: import plus the section draw."""
        child = self.child([WORKER, "setup", self.workload.setup_mode,
                            str(verify_seed(self.seed)), str(COEFF_RANGE)])
        try:
            value = json.loads(child.stdout)["setup_s"] if child.code == 0 else None
        except (ValueError, KeyError):
            value = None
        self.ledger.operation(value is not None,
                              f"set-up exited {child.code}: {child.stderr[-300:]}")
        return value

    def round(self, traced: bool) -> tuple[Child, str | None]:
        """One round of the workload in one process; its answers are checked."""
        spans_path = None
        if traced:
            spans_path = os.path.join(OUT, f"spans-{self.tag}-{self.rounds}.json")
            child = self.child([WORKER, "batch", self.batch_path, spans_path])
        elif self.workload.kind == "verify":
            child = self.child(["-m", "fanoconic.cli", *self.batch[0]])
        else:
            child = self.child([WORKER, "batch", self.batch_path])
        self.rounds += 1
        if self.workload.kind == "verify" and not traced:
            answers = [(child.code, child.stdout)]
        else:
            try:
                answers = [(a["code"], a["stdout"]) for a in json.loads(child.stdout)]
            except (ValueError, KeyError, TypeError):
                answers = []
                self.ledger.problems.append(
                    f"batch exited {child.code}: {child.stderr[-300:]}")
        self.ledger.record(answers)
        return child, spans_path


def settled(values: list) -> list:
    """All but the first round, which warms the machine up and is checked
    but not timed; a run of one round keeps it."""
    return values[1:] or values


def measure(workload: Workload, seed: int, seconds: float, trace: bool):
    """One benchmark run.

    Returns the result object that run.py prints, and the per-round
    samples behind its medians.
    """
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    runner = Runner(workload, seed, deadline)

    if not trace:
        # Set-up probes are spread between the rounds, so that both medians
        # see the same mix of machine states.
        setups, children = [], []
        start = time.perf_counter()
        while not children or time.perf_counter() - start < seconds:
            setups.append(runner.setup_s())
            children.append(runner.round(traced=False)[0])
        while len(setups) < MIN_SETUPS:
            setups.append(runner.setup_s())
        setups = [s for s in setups if s is not None]
        samples = {"wall_s": [c.wall_s for c in children], "setup_s": setups,
                   "peak_rss_mib": [c.peak_rss_mib for c in children]}
        metrics = {
            "wall_s": statistics.median(settled(samples["wall_s"])),
            "setup_s": statistics.median(setups) if setups else 0.0,
            "peak_rss_mib": max(samples["peak_rss_mib"]),
        }
    else:
        plain, traced, layers = [], [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            plain.append(runner.round(traced=False)[0].wall_s)
            child, spans_path = runner.round(traced=True)
            traced.append(child.wall_s)
            if child.code == 0:
                with open(spans_path) as fh:
                    layers.append(layer_metrics(json.load(fh)["spans"]))
        # median_low keeps each count whole and each time one that was measured
        metrics = {key: statistics.median_low(layer[key] for layer in settled(layers))
                   for key in (layers[0] if layers else {})}
        samples = {"traced_wall_s": traced, "untraced_wall_s": plain}
        metrics["trace.traced_wall_s"] = statistics.median(settled(traced))
        metrics["trace.untraced_wall_s"] = statistics.median(settled(plain))
        metrics["trace.overhead_s"] = (metrics["trace.traced_wall_s"]
                                       - metrics["trace.untraced_wall_s"])

    ledger = runner.ledger
    for problem in ledger.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fanoconic", "__init__.py")):
        print(f"error: no fanoconic package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result, samples = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
    path = os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"result": result, "samples": samples}, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
