"""weaksdp benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload library|verify|witness --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
With `--trace 0` the workload runs whole rounds through its pool of operations
as a closed loop for about S seconds, and the end-to-end metrics are
reported, with timings at the reference host speed (see hostspeed.py). With
`--trace 1` one round runs untraced and then one traced, and the per-layer
metrics are reported (S is not used). The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Results and spans are also written under `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import REFERENCE_S, kernel_s
from layers import Sizes, catalogue, layer_metrics
from spans import Tracer
from stats import beyond, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("op_s_p50", "s", "lower"),
    ("op_s_p90", "s", "lower"),
    ("correct_share", "share", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


@dataclass
class Pass:
    """Outcome of running operations: each run's wall time and the host
    kernel's time right after it."""

    durations: list[float] = field(default_factory=list)
    kernel: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    items: int = 0
    failed: list[int] = field(default_factory=list)  # pool index of each failed run

    def scaled(self) -> list[float]:
        """Each run's time at the reference host speed: wall time times
        REFERENCE_S over the median of the five kernel times around it."""
        return [
            took * REFERENCE_S / statistics.median(self.kernel[max(0, i - 2):i + 3])
            for i, took in enumerate(self.durations)
        ]


def set_up(workload, workdir: Path) -> float:
    """Set the workload up SETUP_REPEATS times, the last set-up kept; the
    median time, each at the reference host speed of the kernel runs around it."""
    times = []
    for repeat in range(SETUP_REPEATS):
        target = workdir / f"setup{repeat}"
        target.mkdir()
        before = [kernel_s() for _ in range(3)]
        start = time.perf_counter()
        workload.setup(target)
        took = time.perf_counter() - start
        after = [kernel_s() for _ in range(3)]
        times.append(took * REFERENCE_S / statistics.median(before + after))
        if repeat:
            shutil.rmtree(workdir / f"setup{repeat - 1}")
    return statistics.median(times)


def run_ops(workload, result: Pass, tracer=None) -> Pass:
    """One round, as a closed loop: each operation of the pool starts when the
    previous one, its check and a run of the host kernel have ended. Only the
    operation is timed; its check records no spans."""
    for op in workload.pool:
        result.kinds.append(op.kind)
        if tracer is not None:
            tracer.op = (op.index, op.kind)
        start = time.perf_counter()
        try:
            output = workload.run(op)
        except Exception:
            result.durations.append(time.perf_counter() - start)
            traceback.print_exc()
            ok = False
        else:
            result.durations.append(time.perf_counter() - start)
            with tracer.paused() if tracer is not None else nullcontext():
                try:
                    ok = workload.check(op, output)
                except Exception:
                    traceback.print_exc()
                    ok = False
        result.kernel.append(kernel_s())
        if ok:
            result.items += workload.items(op)
        else:
            result.failed.append(op.index)
    return result


def run_rounds(workload, seconds: float) -> Pass:
    """Whole rounds, at least two, for about `seconds`: another round starts
    only while it is expected, at the mean round time so far, to end within
    half a round of the deadline."""
    result = Pass()
    start = time.perf_counter()
    for done in itertools.count():
        elapsed = time.perf_counter() - start
        if done >= 2 and elapsed + elapsed / done / 2 >= seconds:
            return result
        run_ops(workload, result)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux: KiB


@contextmanager
def frozen_heap():
    """Move what set-up left alive out of the collector's reach while timing.
    The pool belongs to the benchmark, not to the operation a user runs, and
    its size should not change how long the collector's passes take."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def timings(done: Pass, durations: list[float]) -> dict[str, float]:
    return {
        "items_per_s": done.items / sum(durations),
        "op_s_p50": percentile(durations, 50),
        "op_s_p90": percentile(durations, 90),
    }


def measure(workload, seconds: float) -> tuple[Pass, dict[str, float]]:
    """End-to-end metrics of a closed loop that runs for `seconds`, with
    timings at the reference host speed."""
    with frozen_heap():
        done = run_rounds(workload, seconds)
    attempted = len(done.durations)
    return done, {
        **timings(done, done.scaled()),
        "correct_share": (attempted - len(done.failed)) / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }


def measure_traced(workload, spans_path: Path) -> tuple[Pass, dict[str, float]]:
    """Per-layer metrics of one round, and the tracing overhead against an
    untraced round just before it. On `library` the traced round is also
    the byte-identical rebuild of the untraced one."""
    with frozen_heap():
        reference = run_ops(workload, Pass())
    sizes = Sizes(lambda: tracer.op)
    tracer = Tracer(observers=sizes.observers())
    tracer.install()
    try:
        with frozen_heap():
            traced = run_ops(workload, Pass(), tracer=tracer)
    finally:
        tracer.uninstall()
    traced.failed += reference.failed
    tracer.write(spans_path)
    metrics = layer_metrics(tracer.spans, sizes)
    metrics["trace.overhead_share"] = sum(traced.scaled()) / sum(reference.scaled()) - 1
    if tracer.missing:
        print("# not found, reported as 0: " + ", ".join(tracer.missing))
    return traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("library", "verify", "witness"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = SRC / "weaksdp"
    if not (package / "__init__.py").is_file():
        print(f"error: no weaksdp source under {package}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import weaksdp

    if Path(weaksdp.__file__).resolve().parent != package.resolve():
        print(f"error: imported weaksdp from {weaksdp.__file__}, not {package}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = WORKLOADS[args.workload](args.seed)
    workdir = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))
    try:
        setup_s = set_up(workload, workdir)
        rss_after_setup = peak_rss_mb()
        if args.trace:
            done, metrics = measure_traced(workload, OUT / f"spans-{tag}.jsonl")
            units = {name: unit for name, unit, _ in catalogue()}
        else:
            done, metrics = measure(workload, args.seconds)
            metrics["setup_s"] = setup_s
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(done.durations)
    samples = {"operations": attempted, "pool": len(workload.pool),
               "rounds": attempted // len(workload.pool), "setup_repeats": SETUP_REPEATS}
    if not args.trace:
        samples.update({f"beyond_p{q}": beyond(attempted, q) for q in (50, 90)})
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "item": workload.item, "samples": samples,
        "cores": os.cpu_count(), "python": platform.python_version(),
        "machine": platform.machine(), "failed_share": len(done.failed) / attempted,
        "peak_rss_mb_after_setup": rss_after_setup,
        "host_kernel_s_median": statistics.median(done.kernel),
        "reference_kernel_s": REFERENCE_S,
    }
    if not args.trace:
        context["wall_clock"] = timings(done, done.durations)
    result = {
        "correct": not done.failed,
        "attempted": attempted,
        "failed": len(done.failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    for key, value in context.items():
        print(f"# {key}: {value}")
    for name, entry in result["metrics"].items():
        print(f"{name:48s} {entry['value']:>16.6g} {entry['unit']}")
    record = {**context, **result, "durations": done.durations, "kernel": done.kernel,
              "kinds": done.kinds}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
