"""In-memory span tracing of weaksdp's public functions, installed from outside.

`Tracer.install` replaces every reference to a listed function, in every
loaded `weaksdp.*` module, by a timing wrapper. Functions are matched by
object identity, not by the module that defines them, so a function that
moves to another module (or is re-exported under the same name) is still
traced everywhere it is called through a module global. A listed name that no
longer exists is recorded in `missing` and reported with zero calls.

Spans are kept in memory as plain lists and written out when the run ends.
Nothing here touches the package's source files.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from contextlib import contextmanager

# Public functions timed per layer, by the module that owns them today.
LAYERS: dict[str, tuple[str, ...]] = {
    "exact": ("congruence", "inner"),
    "linalg": (
        "determinant", "inverse", "solve_linear", "random_unimodular",
        "psd_certify", "is_positive_definite",
    ),
    "echelon": (
        "validate_echelon", "check_infeasibility_cert", "check_not_strong_cert",
        "asymptote_witness",
    ),
    "generator": (
        "choose_structures", "base_equations", "extend_constraints", "messify",
        "generate", "invert_provenance",
    ),
    "certify": ("check_reformulation", "verify_weak_infeasibility", "sieve_detect"),
    "formats": (
        "read_native", "write_native", "read_sdpa", "write_sdpa", "write_cbf",
        "render_blocks",
    ),
    "paper_instances": ("library_build",),
}

TRACED = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)

# Spans of these functions also record the order n of the instance they act
# on, which splits their self time by size category.
SIZED = (
    "generator.choose_structures", "generator.base_equations",
    "generator.extend_constraints", "generator.messify",
    "certify.check_reformulation", "echelon.check_infeasibility_cert",
    "echelon.check_not_strong_cert",
    "formats.write_native", "formats.write_sdpa", "formats.write_cbf",
)

# Span fields; a span is a list so that the wrapper can fill it in place.
NAME, START, END, PARENT, OP, ORDER = range(6)


def instance_order(args) -> int:
    """Order n of the first argument that carries one, directly or through
    `.clean` (a generated instance) or `.instance` (a bundle); 0 if none."""
    for arg in args:
        for holder in (arg, getattr(arg, "clean", None), getattr(arg, "instance", None)):
            n = getattr(holder, "n", None)
            if isinstance(n, int):
                return n
    return 0


def _package_modules() -> list[types.ModuleType]:
    return [
        module for key, module in list(sys.modules.items())
        if module is not None and (key == "weaksdp" or key.startswith("weaksdp."))
    ]


def _locate(module_label: str, fn: str, modules) -> types.FunctionType | None:
    """The function object now known as `fn`: from its listed module if it is
    still there, otherwise from whichever package module defines it."""
    home = sys.modules.get(f"weaksdp.{module_label}")
    candidate = getattr(home, fn, None) if home is not None else None
    if isinstance(candidate, types.FunctionType):
        return candidate
    for module in modules:
        candidate = getattr(module, fn, None)
        if isinstance(candidate, types.FunctionType) and candidate.__name__ == fn:
            return candidate
    return None


class Tracer:
    """Records one span per call of a traced function while `active`.

    `op` tags every span with the benchmark operation that caused it, as an
    (index, kind) pair.
    `observers` maps a traced name to a callback `(args, result)` run after
    the span has ended; it sees what the call returned, for size metrics.
    """

    def __init__(self, observers=None):
        self.spans: list[list] = []
        self.op = None
        self.active = True
        self.missing: list[str] = []
        self._observers = dict(observers or {})
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def wrap(self, name: str, fn):
        """A wrapper around `fn` that records a span and returns fn's result unchanged."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sized = name in SIZED
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    instance_order(args) if sized else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = _package_modules()
        targets: dict[int, tuple[str, object]] = {}
        for module_label, fns in LAYERS.items():
            for fn in fns:
                obj = _locate(module_label, fn, modules)
                if obj is None:
                    self.missing.append(f"{module_label}.{fn}")
                else:
                    targets[id(obj)] = (f"{module_label}.{fn}", obj)
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is None or hit[1] is not value:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self.wrap(hit[0], value)
                setattr(module, attr, wrappers[id(value)])
                self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextmanager
    def paused(self):
        """Calls made inside (output checks) record no spans."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    result = []
    for span, kids in zip(spans, children):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for kid_start, kid_end in sorted((spans[k][START], spans[k][END]) for k in kids):
            kid_start, kid_end = max(kid_start, reach), min(kid_end, end)
            if kid_end > kid_start:
                covered += kid_end - kid_start
                reach = kid_end
        result.append(end - start - covered)
    return result
