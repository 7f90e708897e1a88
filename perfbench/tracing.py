"""Span tracer that wraps privfed's layer functions at runtime.

Nothing under ``src/`` is edited: ``install`` replaces each traced function
in its defining module (or class) and rebinds every alias that a privfed
module imported by name, e.g. ``privfed.federation.he_encrypt``.  Each span
records its parent from a thread-local stack, so self time is the span's
wall and thread-CPU time minus those of its traced children.  Spans stay in
memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

# (span name, module, attribute); "Class.method" attributes wrap the method.
TARGETS = [
    ("data.generate_site", "privfed.data", "generate_site"),
    ("data.split_train_valid", "privfed.data", "split_train_valid"),
    ("learners.train_local", "privfed.learners", "train_local"),
    ("learners.loss_and_grad", "privfed.learners", "loss_and_grad"),
    ("learners.predict_batch", "privfed.learners", "predict_batch"),
    ("params.flatten", "privfed.params", "flatten"),
    ("params.unflatten", "privfed.params", "unflatten"),
    ("params.compute_delta", "privfed.params", "compute_delta"),
    ("params.apply_update", "privfed.params", "apply_update"),
    ("metrics.evaluate_scores", "privfed.metrics", "evaluate_scores"),
    ("metrics.auc", "privfed.metrics", "auc"),
    ("dp.svt_filter", "privfed.dp", "svt_filter"),
    ("he.ckks.keygen", "privfed.he.ckks", "keygen"),
    ("he.ckks.encode", "privfed.he.ckks", "encode"),
    ("he.ckks.encrypt", "privfed.he.ckks", "encrypt"),
    ("he.ckks.add", "privfed.he.ckks", "add"),
    ("he.ckks.mul_scalar_rescale", "privfed.he.ckks", "mul_scalar_rescale"),
    ("he.ckks.decrypt", "privfed.he.ckks", "decrypt"),
    ("he.ckks.decode", "privfed.he.ckks", "decode"),
    ("he.ckks.serialize_ct", "privfed.he.ckks", "serialize_ct"),
    ("he.ckks.deserialize_ct", "privfed.he.ckks", "deserialize_ct"),
    ("he.ntt.ntt", "privfed.he.ntt", "PrimeField.ntt"),
    ("he.ntt.intt", "privfed.he.ntt", "PrimeField.intt"),
    ("transport.frame_encode", "privfed.transport", "frame_encode"),
    ("transport.frame_decode", "privfed.transport", "frame_decode"),
    ("federation.aggregate_plain", "privfed.federation", "aggregate_plain"),
    ("federation.aggregate_encrypted", "privfed.federation", "aggregate_encrypted"),
]

SPAN_NAMES = [name for name, _, _ in TARGETS]


def _loss_rows(args, kwargs, result):
    x = args[2] if len(args) > 2 else kwargs["x"]
    return {"rows": len(x)}


def _svt_release(args, kwargs, result):
    return {"inputs": int(result.size), "released": int((result != 0).sum())}


# per-span attributes taken from a call's arguments and result
ATTRS = {
    "learners.loss_and_grad": _loss_rows,
    "dp.svt_filter": _svt_release,
}


class Tracer:
    """Records one span per traced call: (id, parent, name, thread, start,
    wall, cpu, self wall, self cpu, attributes)."""

    def __init__(self):
        self.spans: list[tuple] = []  # list.append is atomic under the GIL
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._origin = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            frame = [next(self._ids), 0.0, 0.0]  # id, children wall, children cpu
            stack.append(frame)
            w0 = time.perf_counter()
            c0 = time.thread_time()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                cpu = time.thread_time() - c0
                wall = time.perf_counter() - w0
                stack.pop()
                if parent is not None:
                    parent[1] += wall
                    parent[2] += cpu
                extra = attrs(args, kwargs, result) if attrs and result is not None else None
                self.spans.append(
                    (
                        frame[0],
                        parent[0] if parent else 0,
                        name,
                        threading.get_ident(),
                        w0 - self._origin,
                        wall,
                        cpu,
                        wall - frame[1],
                        cpu - frame[2],
                        extra,
                    )
                )

        return traced

    def install(self) -> None:
        """Wrap every target and rebind its aliases across loaded privfed modules."""
        for name, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapped = self.wrap(name, original)
            setattr(owner, leaf, wrapped)
            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] != "privfed" or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def layer_stats(self) -> dict:
        """Per span name: calls, summed self thread-CPU, summed self wait
        (self wall minus self CPU), plus the summed span attributes."""
        stats = {name: {"calls": 0, "cpu_s": 0.0, "wait_s": 0.0} for name in SPAN_NAMES}
        for _, _, name, _, _, _, _, self_wall, self_cpu, extra in self.spans:
            entry = stats[name]
            entry["calls"] += 1
            entry["cpu_s"] += self_cpu
            entry["wait_s"] += self_wall - self_cpu
            for key, value in (extra or {}).items():
                entry[key] = entry.get(key, 0) + value
        return stats

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(
                json.dumps(
                    ["id", "parent", "name", "thread", "start_s", "wall_s", "cpu_s",
                     "self_wall_s", "self_cpu_s", "attrs"]
                )
                + "\n"
            )
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
