"""Per-layer tracing from outside the program.

`Tracer.install` wraps every public function of each layer module and rebinds
the wrapper wherever the package binds the original: in its own module (so
calls inside the module are traced too) and in every module that imported it.
Each call records a span (function, start, end, parent span, op id) in flat
in-memory arrays; a few functions also add exact counts computed from their
arguments. `Tracer.remove` restores the original bindings; the two can
alternate. Self time per layer comes from the span tree after the run; `dump`
writes the spans out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "dirichlet_hardy"
LAYERS = ("arith", "dseries", "norms", "bounds", "experiments", "cli", "report")

# stage metric -> functions whose outermost spans it times (inclusive);
# `<layer>.self_s` is the self time of the layer's other functions
STAGES = {
    "norms.rng_s": ("norms.steinhaus_uniforms",),
    "norms.reduce_s": ("norms.pairwise_sum",),
    "norms.disc_s": ("norms.disc_norm",),
    "dseries.multiply_s": ("dseries.dirichlet_multiply",),
    "dseries.generator_s": (
        "dseries.generate", "dseries.zeta_partial", "dseries.zeta_power_partial",
        "dseries.euler_factor_power", "dseries.extremal_product",
        "dseries.fractional_primitive", "dseries.duality_witness",
    ),
    "arith.sieve_s": ("arith.sieve_primes",),
}

COUNTS = (
    "norms.samples", "norms.phase_evals", "norms.rng_cols_generated", "norms.rng_cols_used",
    "dseries.conv_pairs", "dseries.conv_terms_out", "report.bytes_out",
)


def support_prime_count(f, table) -> int:
    """Distinct primes dividing some index of f's support: the RNG columns one chunk needs."""
    spf = table.smallest_factor
    primes = set()
    for n in f.coefficients:
        while n > 1:
            q = int(spf[n])
            primes.add(q)
            while n % q == 0:
                n //= q
    return len(primes)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter({name: 0 for name in COUNTS})
        self.current_op = -1
        self._stack = [-1]
        self._support_cols: dict[int, int] = {}
        self._patches: list[tuple[object, str, object, object]] = []

    # -- hooks: exact counts from the wrapped calls' arguments -------------

    def _before_mc_norm_many(self, span: int, a: dict) -> None:
        self._support_cols[span] = support_prime_count(a["f"], a["table"])

    def _after_mc_norm_many(self, a: dict, result) -> None:
        self.counts["norms.samples"] += a["samples"]
        self.counts["norms.phase_evals"] += a["samples"] * len(a["f"])

    def _after_steinhaus_uniforms(self, a: dict, result) -> None:
        self.counts["norms.rng_cols_generated"] += a["prime_count"]
        # the caller's span is on top of the stack again once this span has closed
        used = self._support_cols.get(self._stack[-1], a["prime_count"])
        self.counts["norms.rng_cols_used"] += used

    def _after_dirichlet_multiply(self, a: dict, result) -> None:
        self.counts["dseries.conv_pairs"] += len(a["f"]) * len(a["g"])
        self.counts["dseries.conv_terms_out"] += len(result)

    def _after_write_atomic(self, a: dict, result) -> None:
        self.counts["report.bytes_out"] += len(a["data"].encode("utf-8"))

    def _hooks(self, name: str):
        before = getattr(self, "_before_" + name.split(".")[1], None)
        after = getattr(self, "_after_" + name.split(".")[1], None)
        return before, after

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, func):
        fid = len(self.names)
        self.names.append(name)
        before, after = self._hooks(name)
        signature = inspect.signature(func) if (before or after) else None
        stack, fns, parents, ops, starts, ends = (
            self._stack, self.fn, self.parent, self.op, self.start, self.end)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = len(fns)
            fns.append(fid)
            parents.append(stack[-1])
            ops.append(tracer.current_op)
            starts.append(0.0)
            ends.append(0.0)
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
                if before:
                    before(span, bound)
            stack.append(span)
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[span] = t0
                ends[span] = t1
            if after:
                after(bound, result)
            return result

        return wrapper

    def _collect(self) -> None:
        """Wrap each public layer function once and find every place the package binds it."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in vars(module).items():
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((module, attr, obj, entry[1]))

    def install(self) -> None:
        if not self._patches:
            self._collect()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "fn": np.frombuffer(self.fn, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def metrics(self) -> dict[str, float]:
        """Per-layer calls and self time, stage times, and the exact counts."""
        return layer_metrics(self.names, self.arrays(), self.counts)

    def dump(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent],
                           minlength=duration.size)
    return duration - children


def outermost_time(names, spans, members: set[str]) -> float:
    """Inclusive time of the spans of `members` that have no ancestor among them."""
    fid_in = np.array([name in members for name in names], dtype=bool)
    fn, parent = spans["fn"], spans["parent"]
    selected = np.nonzero(fid_in[fn])[0]
    total = 0.0
    for span in selected:
        up = parent[span]
        while up >= 0 and not fid_in[fn[up]]:
            up = parent[up]
        if up < 0:
            total += spans["end"][span] - spans["start"][span]
    return float(total)


def layer_metrics(names, spans, counts) -> dict[str, float]:
    fn = spans["fn"]
    duration = spans["end"] - spans["start"]
    own = self_times(spans["parent"], duration)
    staged = {name for members in STAGES.values() for name in members}
    layer_of = np.array([LAYERS.index(name.split(".")[0]) for name in names], dtype=np.int64)
    unstaged = np.array([name not in staged for name in names], dtype=bool)
    out: dict[str, float] = {}
    calls = np.bincount(layer_of[fn], minlength=len(LAYERS))
    keep = unstaged[fn]
    self_s = np.bincount(layer_of[fn[keep]], weights=own[keep], minlength=len(LAYERS))
    for i, layer in enumerate(LAYERS):
        out[f"{layer}.calls"] = int(calls[i])
        out[f"{layer}.self_s"] = float(self_s[i])
    for stage, members in STAGES.items():
        out[stage] = outermost_time(names, spans, set(members))
    out.update({name: int(value) for name, value in counts.items()})
    factorize = names.index("arith.factorize")
    out["arith.factorize_calls"] = int(np.count_nonzero(fn == factorize))
    generated = counts["norms.rng_cols_generated"]
    # nothing generated means nothing wasted
    out["norms.rng_useful_frac"] = counts["norms.rng_cols_used"] / generated if generated else 1.0
    return out
