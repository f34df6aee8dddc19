"""Span tracing of hambr from the outside, by patching its public functions.

Every public function of the layer modules is replaced, at every module
attribute that refers to it, by a wrapper that records a span (name, parent,
operation id, start, end).  The runner and the sampler import their
collaborators by name, so the patch has to land on each of those names, not
only on the defining module.  Spans are kept in memory; self time is the span
duration minus the part of it that child spans cover.

Counters are updated at the same boundaries from the calls' arguments and
results.  Nothing here changes what the wrapped code computes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import weakref
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("sphere", "energy", "sampler", "partition", "losses", "synthgen",
          "metrics", "runner", "cli")

# Methods traced besides the module-level functions: the validating wrapper
# types (their __post_init__ is the validation cost) and the bank's writers.
METHODS = {
    "sphere.UnitVector": ("UnitVector", "__post_init__"),
    "sphere.TangentVector": ("TangentVector", "__post_init__"),
    "energy.FeatureBank.add": ("FeatureBank", "add"),
    "energy.FeatureBank.snapshot": ("FeatureBank", "snapshot"),
}

COUNTERS = (
    "energy.similarity_dots",
    "energy.bank_entries",
    "energy.bank_dropped",
    "sampler.chain_steps",
    "sampler.ridge_hit_ratio",
    "partition.em_iters",
    "partition.consensus_size",
    "losses.contrastive_pairs",
    "sphere.vectors_built",
)

ROOT_SPAN = "op"  # encloses one whole operation; not a layer


def public_functions(module) -> dict[str, object]:
    """Public module-level functions defined in `module`, keyed by bare name."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


def traced_names() -> list[str]:
    """Every span name the tracer can produce, layer by layer."""
    names = []
    for layer in LAYERS:
        module = importlib.import_module(f"hambr.{layer}")
        names += [f"{layer}.{fn}" for fn in sorted(public_functions(module))]
        names += sorted(n for n in METHODS if n.startswith(layer + "."))
    return names


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Calls and summed self time per span name.

    `spans` is a sequence of (name, parent, op, start, end) with `parent` the
    index of the enclosing span or -1.  Self time is the duration minus the
    summed durations of the direct children.
    """
    child = [0.0] * len(spans)
    for _name, parent, _op, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for i, (name, _parent, _op, start, end) in enumerate(spans):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child[i])
    return out


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Records spans and counters for operations run inside `operation()`."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[int, Counter] = {}
        self._op_ranges: dict[int, tuple[int, int]] = {}
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple] = []
        self._bank_adds = weakref.WeakKeyDictionary()
        self._last_argmin = None
        self._syntheses: list[tuple] = []

        from hambr import energy
        self._bank_type = energy.FeatureBank
        self._bank_snapshot = energy.FeatureBank.snapshot
        self._potential_batch = energy.potential_batch

    # -- patching ---------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the index children refer to
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, parent, self._op, start, end)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _count_em_iters(self, fit_gmm_1d):
        """fit_gmm_1d reports its EM iterations through its `trace` list."""
        @functools.wraps(fit_gmm_1d)
        def fit(*args, **kwargs):
            if "trace" in kwargs or len(args) > 3:
                return fit_gmm_1d(*args, **kwargs)
            trace: list = []
            model = fit_gmm_1d(*args, trace=trace, **kwargs)
            self._count("partition.em_iters", len(trace))
            return model

        return fit

    def _install(self):
        import hambr

        hooks = self._hooks()
        wrappers = {}  # id(original) -> wrapper
        modules = [hambr] + [importlib.import_module(f"hambr.{m}") for m in LAYERS]
        for layer, module in zip(LAYERS, modules[1:]):
            for fname, fn in public_functions(module).items():
                name = f"{layer}.{fname}"
                inner = self._count_em_iters(fn) if name == "partition.fit_gmm_1d" else fn
                wrappers[id(fn)] = self._wrap(name, inner, hooks.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for name, (cls_name, meth) in METHODS.items():
            cls = getattr(importlib.import_module(f"hambr.{name.split('.')[0]}"), cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original, hooks.get(name)))

    def _uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- counters ---------------------------------------------------------

    def _count(self, key, n=1):
        self.counters[self._op][key] += n

    def _snapshot(self, bank):
        # the unpatched method, so that counting records no span
        return self._bank_snapshot(bank) if isinstance(bank, self._bank_type) else bank

    def _hooks(self):
        count = self._count

        def class_free_energy(args, kwargs, result):
            snap = self._snapshot(_arg(args, kwargs, 1, "bank"))
            count("energy.similarity_dots", snap.size(_arg(args, kwargs, 2, "class_id")))

        def global_potential(args, kwargs, result):
            self._last_argmin = result[1]

        def riemannian_grad_U(args, kwargs, result):
            # the argmin class's similarities are computed once more after
            # the nested global_potential call that picked that class
            snap = self._snapshot(_arg(args, kwargs, 1, "bank"))
            count("energy.similarity_dots", snap.size(self._last_argmin))

        def potential_batch(args, kwargs, result):
            snap = self._snapshot(_arg(args, kwargs, 1, "bank"))
            count("energy.similarity_dots", len(result) * len(snap))

        def bank_add(args, kwargs, result):
            bank = args[0]
            self._bank_adds[bank] = self._bank_adds.get(bank, 0) + 1

        def compute_prototypes(args, kwargs, result):
            bank = _arg(args, kwargs, 0, "bank")
            held = len(bank)
            count("energy.bank_entries", held)
            if bank in self._bank_adds:
                count("energy.bank_dropped", self._bank_adds.pop(bank) - held)

        def synthesize_outliers(args, kwargs, result):
            snap = self._snapshot(_arg(args, kwargs, 0, "bank"))
            self._syntheses.append((snap, _arg(args, kwargs, 2, "params"),
                                    np.asarray(result.potentials)))

        def vector_built(args, kwargs, result):
            count("sphere.vectors_built")

        def contrastive_grads(args, kwargs, result):
            n = result[1].shape[0]
            negatives = kwargs.get("negatives", args[3] if len(args) > 3 else "first")
            both = negatives == "both"
            count("losses.contrastive_pairs", n * (2 * n - 1 if both else n))

        return {
            "energy.class_free_energy": class_free_energy,
            "energy.global_potential": global_potential,
            "energy.riemannian_grad_U": riemannian_grad_U,
            "energy.potential_batch": potential_batch,
            "energy.FeatureBank.add": bank_add,
            "losses.compute_prototypes": compute_prototypes,
            "sampler.synthesize_outliers": synthesize_outliers,
            "sampler.dshd_step": lambda a, k, r: count("sampler.chain_steps"),
            "partition.consensus_set":
                lambda a, k, r: count("partition.consensus_size", len(r)),
            "losses.contrastive_grads": contrastive_grads,
            "sphere.UnitVector": vector_built,
            "sphere.TangentVector": vector_built,
        }

    # -- operations -------------------------------------------------------

    @contextmanager
    def operation(self, op_id: int):
        """Trace everything called inside the block as operation `op_id`."""
        self._op = op_id
        self.counters[op_id] = Counter({key: 0 for key in COUNTERS})
        self._syntheses = []
        first = len(self.spans)
        self._install()
        self._stack.append(first)
        self.spans.append(None)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[first] = (ROOT_SPAN, -1, op_id, start, end)
            self._uninstall()
            self._op_ranges[op_id] = (first, len(self.spans))
        self._finish_ridge_ratio(op_id)

    def _finish_ridge_ratio(self, op_id: int):
        """Outliers above the bank-median potential, over outliers made."""
        hits = made = 0
        for snap, params, potentials in self._syntheses:
            points = np.concatenate([snap.features(c) for c in snap.classes])
            median = float(np.median(self._potential_batch(points, snap, params)))
            hits += int(np.count_nonzero(potentials > median))
            made += potentials.size
        self._syntheses = []
        self.counters[op_id]["sampler.ridge_hit_ratio"] = hits / made if made else 0.0

    def op_summary(self, op_id: int) -> dict[str, tuple[int, float]]:
        """Calls and self seconds per traced name, for one operation."""
        first, stop = self._op_ranges[op_id]
        local = [(name, parent - first if parent >= 0 else -1, op, start, end)
                 for name, parent, op, start, end in self.spans[first:stop]]
        return self_times(local)

    def dump(self, path) -> None:
        """Write every span as one JSON array per line: op, id, parent, name, start, end."""
        with open(path, "w") as fh:
            for i, (name, parent, op, start, end) in enumerate(self.spans):
                fh.write(json.dumps([op, i, parent, name, start, end]) + "\n")
