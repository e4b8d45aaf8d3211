"""fedfair benchmark: one closed-loop runner for the sweeps, oracle and
interactive workloads.

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 38 --trace 0

With ``--trace 0`` the runner executes the workload's CLI commands one at a
time as subprocesses, checks every output and prints the end-to-end
metrics.  With ``--trace 1`` it instead times each module's public
functions in-process (see ``layers.py``) and prints the per-layer metrics.
The last stdout line is one JSON object: correct, attempted, failed and
metrics.  The run exits 2 without a result when the fedfair sources are
missing.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# No step may use more threads than the 2-core reference machine has, and
# library thread pools would add jitter to single-call timings.  Set before
# numpy loads, here and in every child.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
CHILD_TIMEOUT_S = 150.0

# End-to-end metrics: name -> unit.  work_per_s is instances verified per
# second (sweeps), Monte Carlo trials per second (oracle) or commands per
# second (interactive), each over CLI wall time.  Every time and rate is
# scaled to the reference machine speed (see "Machine speed" below).
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "cmd_p50_s": "s",
    "cmd_p90_s": "s",
    "peak_rss_mb": "MB",
}
WORK_NAMES = {
    "sweeps": "instances_per_s",
    "oracle": "trials_per_s",
    "interactive": "commands_per_s",
}


@dataclass(frozen=True)
class Child:
    code: int
    out: str
    err: str
    wall_s: float
    maxrss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


class Spawner:
    """The runner's handle on ``spawner.py``, started on first use and
    stopped, with any child in flight, when the runner exits."""

    def __init__(self) -> None:
        self.proc: subprocess.Popen | None = None

    def run(self, job: dict) -> dict:
        if self.proc is None:
            self.proc = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("spawner.py"))],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
            )
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process exited")
        return json.loads(reply)

    def close(self) -> None:
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        proc.stdin.close()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.terminate()  # kills and reaps its child, then exits
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()


SPAWNER = Spawner()
atexit.register(SPAWNER.close)


def run_child(args: list[str]) -> Child:
    """Run ``python args...`` to completion, with its wall time and max RSS.

    The spawner process starts the child, so that its max RSS is its own;
    output goes to files, read back here.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    out, err = OUT / "child.out", OUT / "child.err"
    reply = SPAWNER.run({
        "argv": [sys.executable, *args], "out": str(out), "err": str(err),
        "env": child_env(), "cwd": str(ROOT), "timeout": CHILD_TIMEOUT_S,
    })
    return Child(
        reply["code"],
        out.read_bytes().decode("utf-8", "replace"),
        err.read_bytes().decode("utf-8", "replace"),
        reply["wall_s"],
        reply["maxrss_kb"] / 1024.0,  # Linux reports KiB
    )


def run_cli(argv: tuple[str, ...]) -> Child:
    return run_child(["-m", "fedfair.cli", *argv])


def pass_quantile(means: list[float], q: float) -> float:
    """The q-quantile over a pass's commands of each command's mean latency
    in the run: the latency of the median (q=0.5) or 90th-percentile
    (q=0.9) command.  Averaging each command first keeps the machine's
    call-to-call jitter out; a run holds only a few samples of each
    command, and a single order statistic jumps from run to run."""
    ranked = sorted(means)
    return ranked[min(int(q * len(ranked)), len(ranked) - 1)]


# ---------------------------------------------------------------------------
# Run metadata (reported, never gated)


def git_commit() -> str:
    """HEAD of the checkout's own repository, read from .git without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload: str, seed: int, trace: int) -> dict:
    import numpy

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "fedfair").glob("*.py"))
    )
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "src_fedfair_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# Machine speed

# The reference machine is a shared host whose speed drifts by up to 2.4x
# over minutes, alike for interpreter and numpy work (see README.md).  A
# run therefore times a fixed piece of work that never touches fedfair,
# about every two seconds between commands, and divides every time by how
# slow the machine ran: (mean reference time in the run) / REFERENCE_S.
# Times are then in seconds of a machine on which ``reference_s()`` takes
# REFERENCE_S: about its time on the reference machine at the faster of
# the two speeds that machine switches between.
REFERENCE_S = 0.075
REFERENCE_EVERY_S = 2.0


def reference_s() -> float:
    """Wall time of one fixed mix of interpreter, small-array and
    large-array numpy work."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(240_000):
        total += i * i % 7
    table = {str(i): i for i in range(40_000)}
    total += sum(len(key) for key in table)
    rng = np.random.default_rng(12345)
    total += float(rng.standard_normal((256, 1024)).sum(axis=1).max())
    # A fresh 16 MB array: page faults and memory bandwidth, which the
    # Monte Carlo noise matrices lean on and the loop above does not.
    noise = rng.standard_normal(2_000_000)
    total += float((noise * noise).sum())
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics


def setup(name: str, seed: int, sizes):
    """One set-up: a fresh interpreter's ``import fedfair.cli`` plus input
    generation.  Returns the workload and the time taken."""
    from workloads import build

    child = run_child(["-c", "import fedfair.cli"])
    if child.code != 0:
        raise RuntimeError(f"import fedfair.cli failed: {child.err.strip()}")
    start = time.perf_counter()
    workload = build(name, seed, OUT / "inputs", sizes)
    return workload, child.wall_s + time.perf_counter() - start


def measure(name: str, seed: int, seconds: float, sizes) -> dict:
    """Cycle through the workload's commands, one at a time, until
    ``seconds`` have passed, at least one whole pass is done and the
    workload's minimum command count is reached.

    A run stops after the command in flight, not at the end of a pass, so
    it overruns ``seconds`` by at most one command.  Every time metric
    pools the whole run through each command's mean latency: a pass's wall
    time is their sum and the latency quantiles rank them.  Means rather
    than medians, because a run holds only a few samples of each long
    command and the machine's speed noise is close to symmetric; the mean
    of n samples is then the steadier estimate.
    Set-up runs before the first command and after every whole pass, and
    its median samples the whole run too.
    """
    # Untimed warm-up: the first interpreter after a fresh checkout
    # byte-compiles the package and fills the page cache.
    run_child(["-c", "import fedfair.cli"])
    workload, setup_s = setup(name, seed, sizes)
    setups = [setup_s]
    commands = workload.commands
    samples: list[list[float]] = [[] for _ in commands]
    rss: list[float] = []
    failures: list[str] = []
    references = [reference_s()]
    attempted = 0
    start = last_reference = time.perf_counter()
    while (
        attempted < len(commands)
        or attempted < workload.min_commands
        or time.perf_counter() - start < seconds
    ):
        position = attempted % len(commands)
        command = commands[position]
        child = run_cli(command.argv)
        attempted += 1
        problem = command.verdict(child.code, child.out)
        if problem:
            failures.append(f"{command.kind} {' '.join(command.argv)}: {problem}")
        samples[position].append(child.wall_s)
        rss.append(child.maxrss_mb)
        if position == len(commands) - 1:
            for _ in range(sizes.setup_reps):
                setups.append(setup(name, seed, sizes)[1])
        if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
            references.append(reference_s())
            last_reference = time.perf_counter()
    means = [statistics.fmean(s) for s in samples]
    # modularity has no instances to count, so it is not in the rate
    work = sum(c.work for c in commands if c.work)
    work_wall = sum(m for m, c in zip(means, commands) if c.work)
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(means),
        "work_per_s": work / work_wall,
        "cmd_p50_s": pass_quantile(means, 0.5),
        "cmd_p90_s": pass_quantile(means, 0.9),
    }
    slowdown = statistics.fmean(references) / REFERENCE_S
    values = {k: v * slowdown if k == "work_per_s" else v / slowdown for k, v in raw.items()}
    values["peak_rss_mb"] = max(rss)
    by_kind: dict[str, list[float]] = {}
    for command, s in zip(commands, samples):
        by_kind.setdefault(command.kind, []).extend(s)
    return {
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()},
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "notes": {
            "passes": attempted / len(commands),
            "commands": attempted,
            "setups": len(setups),
            "work_metric": f"{name}.{WORK_NAMES[name]}",
            "failed_ratio": len(failures) / attempted,
            "slowdown": slowdown,
            "references": len(references),
            "unscaled": raw,
            "median_s_by_kind": {
                kind: [len(v), round(statistics.median(v), 4)] for kind, v in by_kind.items()
            },
        },
    }


# ---------------------------------------------------------------------------


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweeps", "oracle", "interactive"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    # SIGTERM unwinds like an exception, so atexit stops the spawner and
    # whatever child it is running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not (SRC / "fedfair" / "cli.py").is_file():
        print(f"error: fedfair sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import FULL

    if args.trace:
        from layers import profile

        result = profile(args.workload, args.seed, FULL)
    else:
        result = measure(args.workload, args.seed, args.seconds, FULL)

    meta = metadata(args.workload, args.seed, args.trace)
    OUT.mkdir(parents=True, exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, **result}, indent=2) + "\n")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print("meta " + json.dumps(meta))
    print("notes " + json.dumps(result["notes"]))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
