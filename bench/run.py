"""gradmarket benchmark: end-to-end timings, or a traced per-layer run.

    python3 bench/run.py --workload wide-commit --seed 1 --seconds 20 --trace 0

Run from the root of a gradmarket checkout; the package is imported from
its `src/`. `--workload all` (the default) runs every workload in its own
process. With `--trace 0` the run times whole operations and reports the
end-to-end metrics; with `--trace 1` it times one operation untraced and
the same operation again with every layer wrapped in spans (spans.py), and
reports the per-layer metrics. A traced run does a fixed amount of work,
so that its counts repeat exactly, and ignores `--seconds`. Every
operation's output is checked; a failed check or an exception counts as a
failed operation. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; the line before it
summarises the run (environment, sample counts, wall-clock medians,
ops_failed_ratio, failures). See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_REPEATS = 5  # fresh processes per run; setup_s is their median
MIN_SAMPLES = 3  # timed operations of each kind per run, however short the run
MAX_SKIPS = 20  # input seeds in a row that may fail the fixed-rho guard
CHILD_TIMEOUT_S = 170

END_TO_END = [
    ("session_s", "s"),
    ("train_iter_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class Runner:
    """Runs and checks the operations of one workload."""

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.seed = seed
        self.drawn = 0  # input seeds drawn so far
        self.skipped = 0  # of those, outside the workload's fixed rho
        # One iteration per sim.run_training call: the rho guard can vouch
        # only for a call's first session, later ones run on an updated model.
        self.configs = {
            "session": wl.config(ROOT),
            "train": wl.config(ROOT, iterations=1),
        }
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def next_seed(self, kind: str) -> int:
        """The next input seed of this run on which every honest owner fits
        the workload's fixed rho. A seed that does not is outside the
        workload: it is skipped, and rho is never changed to admit it."""
        from gradmarket import sim
        from workloads import WorkloadError, guard_rho, op_seed

        for _ in range(MAX_SKIPS + 1):
            seed = op_seed(self.seed, self.drawn)
            self.drawn += 1
            session_seed = seed if kind == "session" else sim.derive_seed(seed, "iter.1")
            try:
                guard_rho(self.configs[kind], seed, session_seed)
                return seed
            except WorkloadError as exc:
                self.skipped += 1
                last = exc
        raise WorkloadError(f"{MAX_SKIPS + 1} seeds in a row exceed rho; last: {last}")

    def run(self, kind: str, seed: int) -> tuple[float, dict | Exception]:
        """Wall-clock seconds of one operation, and its report or exception."""
        from gradmarket import sim

        entry = sim.run_session if kind == "session" else sim.run_training
        t0 = time.perf_counter()
        try:
            outcome = entry(self.configs[kind], seed)
        except Exception as exc:  # counted as a failed operation, never fatal
            outcome = exc
        return time.perf_counter() - t0, outcome

    def check(self, kind: str, seed: int, outcome: dict | Exception) -> None:
        from workloads import check_iteration, check_session

        if isinstance(outcome, Exception):
            problems = [f"{type(outcome).__name__}: {outcome}"]
        elif kind == "session":
            problems = check_session(self.wl, self.configs[kind], outcome)
        else:
            problems = [p for it in outcome["sessions"] for p in check_iteration(self.wl, it)]
        self.record(kind, seed, problems)

    def record(self, kind: str, seed: int, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{kind} seed {seed}: " + "; ".join(problems))

    def timed(self, kind: str, probe=None, seed: int | None = None):
        """Run and check one operation, on the next seed unless one is given.
        Returns its seconds, wall-clock and at nominal speed if a SpeedProbe
        runs, and its report or exception."""
        if seed is None:
            seed = self.next_seed(kind)
        mark = len(probe.speeds) if probe else 0
        elapsed, outcome = self.run(kind, seed)
        speed = probe.mean_speed(mark) if probe else 1.0
        self.check(kind, seed, outcome)
        return elapsed, elapsed * speed, outcome


def setup_seconds(config, seed: int) -> tuple[float, float]:
    """Set-up time measured inside a fresh process (setup_child.py):
    wall-clock, and at nominal speed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_child.py"), json.dumps(config.to_dict()), str(seed)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    wall, nominal = proc.stdout.split()
    return float(wall), float(nominal)


def measure(wl, seed: int, seconds: float) -> tuple[Runner, dict, dict]:
    from speed import SpeedProbe
    from workloads import op_seed

    runner = Runner(wl, seed)
    # untimed warm-up: field._INV_CACHE and field._DOMAINS fill on first use
    runner.timed(wl.primary)
    wall: dict[str, list[float]] = {"session": [], "train": []}
    nominal: dict[str, list[float]] = {"session": [], "train": []}
    spent = {"session": 0.0, "train": 0.0}
    start = time.perf_counter()
    with SpeedProbe() as probe:
        # each kind gets half the time, so cheap sessions get more samples
        while time.perf_counter() - start < seconds or min(map(len, wall.values())) < MIN_SAMPLES:
            kind = min(spent, key=spent.get)
            w, n, _ = runner.timed(kind, probe)
            wall[kind].append(w)
            nominal[kind].append(n)
            spent[kind] += w
    setup = [
        setup_seconds(runner.configs["session"], op_seed(seed, f"setup.{i}"))
        for i in range(SETUP_REPEATS)
    ]
    values = {
        "session_s": statistics.median(nominal["session"]),
        "train_iter_s": statistics.median(nominal["train"]),
        "setup_s": statistics.median(n for _, n in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "samples": {
            "session_s": len(wall["session"]),
            "train_iter_s": len(wall["train"]),
            "setup_s": len(setup),
        },
        "wall_clock_s": {
            "session": statistics.median(wall["session"]),
            "train_iter": statistics.median(wall["train"]),
            "setup": statistics.median(w for w, _ in setup),
        },
        "mean_speed": statistics.mean(probe.speeds),
    }
    return runner, {name: (values[name], unit) for name, unit in END_TO_END}, info


def traced(wl, seed: int) -> tuple[Runner, dict, dict]:
    from speed import SpeedProbe
    from spans import PER_LAYER, tracing

    runner = Runner(wl, seed)
    kind = wl.primary
    runner.timed(kind)  # untimed warm-up
    s = runner.next_seed(kind)
    with SpeedProbe() as probe:
        _, untraced_s, plain = runner.timed(kind, probe, s)
        with tracing(runner.configs[kind].K) as tracer:
            traced_wall, traced_s, report = runner.timed(kind, probe, s)
    if isinstance(plain, dict) and isinstance(report, dict):
        same = json.dumps(plain, sort_keys=True) == json.dumps(report, sort_keys=True)
        runner.record(kind, s, [] if same else ["traced report differs from the untraced one"])
    values = tracer.metrics(traced_s, untraced_s)
    info = {
        "trace_overhead_s": traced_s - untraced_s,
        "share_of_op": {
            "commit": values["commit.s"] / traced_wall,
            "snip+field": (values["snip.s"] + values["field.s"]) / traced_wall,
        },
    }
    return runner, {name: (values[name], unit) for name, unit in PER_LAYER}, info


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def run_one(args) -> int:
    from workloads import WORKLOADS, WorkloadError

    wl = WORKLOADS[args.workload]
    try:
        if args.trace:
            runner, metrics, info = traced(wl, args.seed)
        else:
            runner, metrics, info = measure(wl, args.seed, args.seconds)
    except WorkloadError as exc:
        print(f"workload error: {exc}", file=sys.stderr)
        return 3
    failed = runner.failed
    summary = {
        "workload": wl.name,
        "trace": args.trace,
        "env": environment(args.seed),
        **info,
        "ops_failed_ratio": failed / runner.attempted,
        "seeds_outside_rho": runner.skipped,
        "failures": runner.failures[:10],
    }
    print("summary: " + json.dumps(summary, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print(f"{name}: " + "\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gradmarket" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} is not a gradmarket checkout (needs src/gradmarket and configs/)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
