"""acdterm benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; acdterm is imported from `src/`.
Workloads (see workloads.py): leq_cycle, unify_chain, bool_width, oracle_check.

Load is a closed loop: one process, one client, no threads; the next goal
starts when the previous one has finished. A run makes one untimed warm-up
pass over the seed's goal list, then repeats timed passes until `--seconds`
have gone by. Every answer is checked with the workload's own
engine-independent check; `attempted` and `failed` count every goal run.

With `--trace 0` the last line of stdout reports the end-to-end metrics:
set-up time (median of fresh interpreters importing acdterm and building the
goals), goals and engine steps per second of time spent inside acdterm, the
median and 90th percentile of the time per goal (the sample count, one per
timed run of a goal, is `goal_samples` on the line before), peak RSS up to
the end of the warm-up pass, and the share of goals answered correctly.

Times are wall time brought to a fixed machine speed (see speed.py): every
pass times a fixed reference every 0.05 s of goal time, and each goal time is
scaled by the nominal over the median of the references timed nearest to it.
The rates divide the goals and engine steps of all timed passes by the sum
of their scaled times. Set-up time is scaled by references timed just before
and after each fresh interpreter. The line before the result also gives the
unscaled figures and each pass's scale.

With `--trace 1` the run alternates an untraced pass and a traced pass and
reports per-layer metrics: counts from the first traced pass, times as the
median over traced passes, and `trace_overhead_ratio`, traced over untraced
time of the same goals. Per-layer times are not scaled. The spans of the
first traced pass are written to `.bench_work/spans/`.

The line before the result carries `trace_digest`, a sha256 over the json
trace record of every step of every goal of the warm-up pass, in order.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 11
SPAN_CAP = 20_000

# Run in a fresh interpreter: the time to import acdterm and build one pass.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
from pathlib import Path
workloads.WORKLOADS[sys.argv[3]]().setup(int(sys.argv[4]), Path(sys.argv[5]))
print(time.perf_counter() - t0)
"""


class Timer:
    """Times one goal's calls into acdterm, inside its span when traced."""

    def __init__(self, tracer=None, index: int = 0):
        self.tracer = tracer
        self.index = index
        self.elapsed = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.begin_goal(self.index)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = perf_counter() - self.t0
        if self.tracer is not None:
            self.tracer.end_goal()
        return False


@dataclass
class Pass:
    times: list[float] = field(default_factory=list)
    steps: int = 0
    failed: int = 0
    outcomes: list = field(default_factory=list)
    references: list[float] = field(default_factory=list)
    # For each goal, how many references were timed before it.
    slots: list[int] = field(default_factory=list)

    def scaled_times(self) -> list[float]:
        """Goal times at the nominal speed, each scaled by the references
        timed nearest to it: up to speed.WINDOW before it and as many after."""
        return [
            t * speed.scale(self.references[max(0, k - speed.WINDOW):k + speed.WINDOW])
            for t, k in zip(self.times, self.slots)
        ]


def run_pass(workload, goals, keep: bool, tracer=None) -> Pass:
    result = Pass(references=[speed.sample()])
    since_reference = 0.0
    for index, goal in enumerate(goals):
        timer = Timer(tracer, index)
        try:
            outcome = workload.run_goal(goal, timer)
            ok = outcome.finished and workload.check(goal, outcome.answer)
        except Exception:  # a crash is a failed goal; the loop goes on
            traceback.print_exc(file=sys.stderr)
            outcome, ok = None, False
        result.times.append(timer.elapsed)
        result.slots.append(len(result.references))
        since_reference += timer.elapsed
        if since_reference >= speed.EVERY_S:
            result.references.append(speed.sample())
            since_reference = 0.0
        result.failed += not ok
        result.steps += outcome.steps if outcome else 0
        if keep:
            result.outcomes.append(outcome)
    return result


def setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """The median set-up time at the nominal speed, and unscaled. Each probe
    is scaled by references timed in this process just before and after it."""
    scaled, unscaled = [], []
    for _ in range(SETUP_REPEATS):
        references = [speed.sample() for _ in range(speed.WINDOW)]
        with tempfile.TemporaryDirectory(dir=WORK, prefix="setup-") as tmp:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), name, str(seed), tmp],
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
        references += [speed.sample() for _ in range(speed.WINDOW)]
        elapsed = float(proc.stdout.split()[-1])
        scaled.append(elapsed * speed.scale(references))
        unscaled.append(elapsed)
    return statistics.median(scaled), statistics.median(unscaled)


def end_to_end(workload, goals, warmup: Pass, seconds: float, seed: int):
    # Peak RSS of building the goals and running each once. Later passes
    # repeat the same goals; the allocator's arenas made their peak step by
    # 1 MiB from run to run.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s, setup_unscaled = setup_seconds(workload.name, seed)
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(run_pass(workload, goals, keep=False))
    scaled = [t for p in passes for t in p.scaled_times()]
    unscaled = [t for p in passes for t in p.times]
    attempted = len(goals) * len(passes) + len(warmup.times)
    failed = sum(p.failed for p in passes) + warmup.failed
    metrics = {
        "setup_s": (setup_s, "s"),
        "goals_per_s": (len(scaled) / sum(scaled), "1/s"),
        "steps_per_s": (sum(p.steps for p in passes) / sum(scaled), "1/s"),
        "goal_s.p50": (statistics.median(scaled), "s"),
        "goal_s.p90": (statistics.quantiles(scaled, n=10)[8], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    info = {
        "goal_samples": len(scaled),
        "timed_passes": len(passes),
        "pass_seconds": [sum(p.times) for p in passes],
        "pass_scales": [speed.scale(p.references) for p in passes],
        "unscaled": {
            "setup_s": setup_unscaled,
            "goals_per_s": len(unscaled) / sum(unscaled),
            "goal_s.p50": statistics.median(unscaled),
            "goal_s.p90": statistics.quantiles(unscaled, n=10)[8],
        },
    }
    return attempted, failed, metrics, info


def per_layer(workload, goals, warmup: Pass, seconds: float, seed: int):
    from tracer import METRICS, Tracer  # imports acdterm, so only once src/ is on the path

    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        first = not rounds
        plain = run_pass(workload, goals, keep=False)
        tracer = Tracer(span_cap=SPAN_CAP if first else 0)
        with tracer:
            traced = run_pass(workload, goals, keep=first, tracer=tracer)
        rounds.append((plain, traced, tracer))
    _plain, traced, tracer = rounds[0]
    spans = WORK / "spans" / f"{workload.name}-seed{seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans)

    per_round = [t.metrics() for _p, _t, t in rounds]
    metrics = {}
    for name, unit in METRICS:
        if unit == "s":
            value = statistics.median(m[name] for m in per_round)
        else:
            value = per_round[0][name]
        metrics[name] = (value, unit)
    metrics["trace_overhead_ratio"] = (
        statistics.median(sum(t.times) / sum(p.times) for p, t, _ in rounds),
        "ratio",
    )
    attempted = len(warmup.times) + sum(len(p.times) + len(t.times) for p, t, _ in rounds)
    failed = warmup.failed + sum(p.failed + t.failed for p, t, _ in rounds)
    info = {
        "traced_rounds": len(rounds),
        "traced_digest_outcomes": traced.outcomes,
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return attempted, failed, metrics, info


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "acdterm" / "__init__.py").is_file():
        print(f"bench: no acdterm sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import acdterm
    import workloads

    if Path(acdterm.__file__).resolve().parent != SRC / "acdterm":
        print(f"bench: imported acdterm from {acdterm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    with tempfile.TemporaryDirectory(dir=WORK, prefix="run-") as tmp:
        goals = workload.setup(args.seed, Path(tmp))
        # The first pass warms caches up and gives the digest; it is not timed.
        warmup = run_pass(workload, goals, keep=True)
        measure = per_layer if args.trace else end_to_end
        attempted, failed, metrics, info = measure(workload, goals, warmup, args.seconds, args.seed)

    digest = workloads.trace_digest(warmup.outcomes)
    correct = failed == 0
    if "traced_digest_outcomes" in info:
        traced_digest = workloads.trace_digest(info.pop("traced_digest_outcomes"))
        correct = correct and traced_digest == digest
        info["traced_trace_digest"] = traced_digest
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace_digest": digest,
        "goals_per_pass": len(goals),
        **info,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
