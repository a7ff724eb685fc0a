"""Benchmark of ctrskit, run from the root of a source checkout:

    python3 perfbench/run.py --workload corpus_prove --seed 1 --seconds 55 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, measured untraced; with
``--trace 1`` the per-layer metrics of a traced run (see perfbench/README.md).
Every pass's answers are checked; failures are counted against attempts.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds run details: pass times, the calibration loop, the answer digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Set-up is timed in a fresh interpreter, as a user of the command line pays
# it, once before every pass and at least this many times per run.
SETUP_MIN_SAMPLES = 9
SETUP_CHILD = """
import sys, time
sys.path[:0] = sys.argv[3:5]
started = time.perf_counter()
import ctrskit, ctrskit.experiment
imported = time.perf_counter()
import workloads
ready = time.perf_counter()
workloads.WORKLOADS[sys.argv[1]].prepare(ctrskit, int(sys.argv[2]))
print(imported - started + time.perf_counter() - ready)
"""
CALIBRATION_LOOPS = 3_000_000


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a record of machine speed during
    the run, printed beside the metrics and never used to scale them."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i & 7
    return time.perf_counter() - started


def import_ctrskit():
    sys.path.insert(0, str(SRC))
    import ctrskit
    import ctrskit.experiment  # the batch runner; the package does not import it

    if Path(ctrskit.__file__).resolve().parent != SRC / "ctrskit":
        raise ImportError(f"ctrskit imported from {ctrskit.__file__}, not from {SRC}")
    return ctrskit


def timed_setup(name: str, seed: int) -> float:
    """Seconds to import ctrskit and prepare the inputs in a new interpreter."""
    child = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, name, str(seed), str(HERE), str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(child.stdout)


class Tally:
    """Checked answers of every pass of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.definite = 0
        self.digest = None
        self.problems: list[str] = []

    def add(self, checked) -> None:
        digest = hashlib.sha256(
            "\n".join(sorted(json.dumps(a) for a in checked.answers)).encode()
        ).hexdigest()
        self.attempted += checked.attempted
        self.definite += checked.definite
        if self.digest is None:
            self.digest = digest
        if digest != self.digest:
            # Answers differ from an earlier pass over the same inputs.
            self.failed += checked.attempted
            self.problems.append(f"pass answers differ: digest {digest}")
        else:
            self.failed += checked.failed
        self.problems.extend(checked.problems[: max(0, 20 - len(self.problems))])


def rounds(seconds: float):
    """Yields once per round of measuring: always once, then again while the
    longest round so far would still end within ``seconds`` of the start, so
    that a run never overruns its time."""
    deadline = time.perf_counter() + seconds
    longest = 0.0
    while True:
        began = time.perf_counter()
        yield
        ended = time.perf_counter()
        longest = max(longest, ended - began)
        if ended + longest > deadline:
            return


def timed_pass(ck, workload, inputs=None, seed: int = 0):
    """One pass; with ``inputs=None`` the pass prepares its inputs first.
    Returns (wall ns, inputs, output); checking is left to the caller."""
    started = time.perf_counter_ns()
    if inputs is None:
        inputs = workload.prepare(ck, seed)
    output = workload.run(ck, inputs)
    return time.perf_counter_ns() - started, inputs, output


def end_to_end(ck, workload, name: str, seed: int, seconds: float, tally: Tally, details: dict) -> dict:
    inputs = workload.prepare(ck, seed)
    setup, passes = [], []
    cpu = time.process_time()
    for _ in rounds(seconds):
        setup.append(timed_setup(name, seed))
        elapsed, _, output = timed_pass(ck, workload, inputs)
        tally.add(workload.check(ck, inputs, output))
        passes.append(elapsed / 1e9)
    details["measure_cpu_s"] = time.process_time() - cpu
    while len(setup) < SETUP_MIN_SAMPLES:
        setup.append(timed_setup(name, seed))
    details.update(passes_s=passes, setup_s=setup)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        # The mean over the whole run: the host's slow spells last seconds to
        # minutes, and the mean of a run's passes moves less with them than
        # the median or the fastest pass does (see perfbench/README.md).
        "pass_s": (statistics.fmean(passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "definite_share": (tally.definite / max(tally.attempted, 1), "ratio"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    if name == "cond_simulation":
        metrics["sim_steps_per_s"] = (tally.attempted / sum(passes), "1/s")
    return metrics


def per_layer(ck, workload, name: str, seed: int, seconds: float, tally: Tally, details: dict) -> dict:
    """Alternate untraced and traced passes, each preparing its inputs (import
    excluded); the per-layer metrics are those of the median traced pass."""
    tracer = tracing.Tracer(ck)
    untraced, traced, samples = [], [], []
    for _ in rounds(seconds):
        elapsed, inputs, output = timed_pass(ck, workload, seed=seed)
        tally.add(workload.check(ck, inputs, output))
        untraced.append(elapsed)

        tracer.reset()
        tracer.install()
        try:
            elapsed, inputs, output = timed_pass(ck, workload, seed=seed)
        finally:
            tracer.uninstall()
        # Checked after uninstalling, so that the checks add no spans.
        tally.add(workload.check(ck, inputs, output))
        traced.append(elapsed)
        samples.append(tracer.metrics(elapsed))

    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{name}.tsv.gz"
    tracer.write(span_file)
    details.update(
        untraced_s=[t / 1e9 for t in untraced],
        traced_s=[t / 1e9 for t in traced],
        spans=len(tracer.starts),
        span_file=str(span_file.relative_to(ROOT)),
        missing=tracer.missing,
    )
    # Every per-layer metric comes from the traced pass of median wall time,
    # so that its layer self times add up to its wall time.
    middle = sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]
    metrics = {metric: (value, tracing.unit(metric)) for metric, value in samples[middle].items()}
    wall, base = traced[middle] / 1e9, statistics.median(untraced) / 1e9
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.untraced_s"] = (base, "s")
    metrics["trace.overhead_s"] = (wall - base, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ctrskit" / "__init__.py").is_file():
        print(f"error: no ctrskit sources under {SRC}", file=sys.stderr)
        return 2
    ck = import_ctrskit()
    workload = workloads.WORKLOADS[args.workload]
    details: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    calibration = [calibrate()]
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    metrics = measure(ck, workload, args.workload, args.seed, args.seconds, tally, details)
    calibration.append(calibrate())
    details.update(
        calibration_s=calibration,
        digest=tally.digest,
        definite=tally.definite,
        problems=tally.problems,
    )
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
