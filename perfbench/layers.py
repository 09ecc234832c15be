"""Per-layer metrics of one traced pass: calls and self time of every traced
function, self time by size category, and exact size metrics taken from what
the traced calls returned or wrote."""

from __future__ import annotations

import os

from spans import NAME, OP, ORDER, SIZED, TRACED, self_times
from stats import max_bits

# Size categories the workloads reach; see workloads.Library for why n=40 is not one.
CATEGORY = {5: "n5", 10: "n10", 20: "n20"}

SIZE_METRICS = (
    ("generator.raw_bits_max", "bits", "lower"),
    ("generator.x_bits_max", "bits", "lower"),
    ("certify.g_bits_max", "bits", "lower"),
    ("certify.t_bits_max", "bits", "lower"),
    ("echelon.gamma_bits_max", "bits", "lower"),
    ("echelon.witness_bits_max", "bits", "lower"),
    ("formats.native_bytes_per_instance", "bytes", "lower"),
    ("formats.sdpa_bytes_per_instance", "bytes", "lower"),
    ("formats.cbf_bytes_per_instance", "bytes", "lower"),
    ("linalg.is_positive_definite.true_ratio", "share", "higher"),
    ("certify.sieve_detect.hit_ratio_clean", "share", "higher"),
    ("certify.sieve_detect.hit_ratio_messy", "share", "lower"),
    ("echelon.validate_echelon.calls_tampered", "count", "lower"),
    ("trace.overhead_share", "share", "lower"),
)


def catalogue() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for name in TRACED:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    for name in SIZED:
        out += [(f"{name}.self_s.{suffix}", "s", "lower") for suffix in CATEGORY.values()]
    return out + list(SIZE_METRICS)


def _ratio(hits: int, total: int) -> float:
    return hits / total if total else 0.0


class Sizes:
    """Observers that keep what size metrics need from traced calls.

    Objects are only collected here; their bit lengths are computed after the
    pass, so that the work does not land in any span's self time. Only file
    sizes are read at once, a few microseconds per written file."""

    def __init__(self, current_op):
        self.current_op = current_op
        self.generated = []
        self.certificates = []
        self.witnesses = []
        self.pd_tests = [0, 0]  # positive verdicts, tests
        self.sieve = {"clean": [0, 0], "messy": [0, 0]}  # detections, calls
        self.written = {"native": [0, 0], "sdpa": [0, 0], "cbf": [0, 0]}  # bytes, files

    def observers(self) -> dict:
        return {
            "generator.generate": lambda args, result: self.generated.append(result),
            "certify.verify_weak_infeasibility": lambda args, result: self.certificates.append(args[0]),
            "echelon.asymptote_witness": lambda args, result: self.witnesses.append(result),
            "linalg.is_positive_definite": self._pd_test,
            "certify.sieve_detect": self._sieve,
            "formats.write_native": self._writer("native"),
            "formats.write_sdpa": self._writer("sdpa"),
            "formats.write_cbf": self._writer("cbf"),
        }

    def _pd_test(self, args, result) -> None:
        self.pd_tests[0] += bool(result)
        self.pd_tests[1] += 1

    def _sieve(self, args, result) -> None:
        tally = self.sieve.get(self.current_op()[1])
        if tally is not None:
            tally[0] += result is not None
            tally[1] += 1

    def _writer(self, fmt: str):
        def observe(args, result) -> None:
            self.written[fmt][0] += os.path.getsize(args[1])
            self.written[fmt][1] += 1
        return observe

    def metrics(self) -> dict[str, float]:
        def most(values) -> int:
            return max(values, default=0)

        return {
            "generator.raw_bits_max": most(
                max(max_bits(g.raw.b), *(max_bits(a.to_rows()) for a in g.raw.A))
                for g in self.generated),
            "generator.x_bits_max": most(max_bits(x.to_rows()) for g in self.generated for x in g.xseq),
            "certify.g_bits_max": most(max_bits(c.row_ops.to_rows()) for c in self.certificates),
            "certify.t_bits_max": most(max_bits(c.transform.to_rows()) for c in self.certificates),
            "echelon.gamma_bits_max": most(max_bits(w.gammas) for w in self.witnesses),
            "echelon.witness_bits_max": most(max_bits(w.x_out.to_rows()) for w in self.witnesses),
            **{f"formats.{fmt}_bytes_per_instance": _ratio(*tally) for fmt, tally in self.written.items()},
            "linalg.is_positive_definite.true_ratio": _ratio(*self.pd_tests),
            "certify.sieve_detect.hit_ratio_clean": _ratio(*self.sieve["clean"]),
            "certify.sieve_detect.hit_ratio_messy": _ratio(*self.sieve["messy"]),
        }


def layer_metrics(spans, sizes: Sizes) -> dict[str, float]:
    metrics: dict[str, float] = {name: 0 for name, _, _ in catalogue()}
    tampered = 0
    for span, own in zip(spans, self_times(spans)):
        name = span[NAME]
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.self_s"] += own
        suffix = CATEGORY.get(span[ORDER])
        if suffix is not None:
            metrics[f"{name}.self_s.{suffix}"] += own
        if name == "echelon.validate_echelon" and span[OP][1].startswith("tamper"):
            tampered += 1
    metrics.update(sizes.metrics())
    metrics["echelon.validate_echelon.calls_tampered"] = tampered
    return metrics
