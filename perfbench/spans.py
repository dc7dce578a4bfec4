"""Outside-in span tracing for the benchmark's traced runs.

The benchmark wraps the public functions of each teleion layer from its own
files; the program itself is not changed. A function is wrapped under every
name a teleion module binds it to, so a call through `from .protocol import
exact_run` in `cli` or `tomography` is traced as well as a call through
`protocol.exact_run`. Spans stay in memory and are written once, at the end.
"""
from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

# (defining module, function). `qcore` is not wrapped: its time rolls into
# the callers' self time.
LAYER_FUNCTIONS = (
    ("teleion.cli", "main"),
    ("teleion.cli", "load_config"),
    ("teleion.protocol", "exact_run"),
    ("teleion.protocol", "calibrate_phase"),
    ("teleion.protocol", "run_shot"),
    ("teleion.noise", "depolarize_density_tensor"),
    ("teleion.trap", "apply_pulse"),
    ("teleion.trap", "fluorescence_measure"),
    ("teleion.tomography", "teleported_counts"),
    ("teleion.tomography", "mle_state"),
    ("teleion.tomography", "mle_process"),
    ("teleion.tomography", "bootstrap_process"),
    ("teleion.tomography", "affine_decompose"),
)
ROOT_SPAN = "cli.main"

# Solvers whose iteration count and convergence flag are recorded. The
# wrapper always asks for diagnostics and hands the caller only what it
# asked for, so fits whose diagnostics the CLI discards (the bootstrap's)
# are counted too.
DIAGNOSED = ("tomography.mle_state", "tomography.mle_process")


def span_name(module: str, function: str) -> str:
    return f"{module.removeprefix('teleion.')}.{function}"


class Recorder:
    """Spans as [name, start, end, parent span or None, (iterations, converged) or None]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, name: str, fn):
        spans, local, clock = self.spans, self._local, time.perf_counter
        diagnosed = name in DIAGNOSED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                if not diagnosed:
                    return fn(*args, **kwargs)
                wanted = kwargs.pop("return_diagnostics", False)
                result, diag = fn(*args, return_diagnostics=True, **kwargs)
                span[4] = (int(diag.iterations), bool(diag.converged))
                return (result, diag) if wanted else result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def dump(self) -> list[list]:
        """Spans with the parent given as an index into the list (-1 for none)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            [name, start, end, -1 if parent is None else index[id(parent)], extra]
            for name, start, end, parent, extra in self.spans
        ]


def install(recorder: Recorder) -> list[str]:
    """Wrap every layer function at each binding in the loaded teleion modules.

    Returns the `module.attribute` bindings that were replaced. A function
    missing from its module is skipped, so its metrics read zero calls.
    """
    for module, _ in LAYER_FUNCTIONS:
        importlib.import_module(module)
    namespaces = [
        m for name, m in sorted(sys.modules.items())
        if name == "teleion" or name.startswith("teleion.")
    ]
    patched = []
    for module, function in LAYER_FUNCTIONS:
        original = getattr(sys.modules[module], function, None)
        if original is None:
            continue
        wrapped = recorder.wrap(span_name(module, function), original)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapped)
                    patched.append(f"{ns.__name__}.{attr}")
    return patched


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out
