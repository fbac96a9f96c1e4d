"""Span tracing installed from outside the package, and the per-layer
metrics and table derived from the spans.

`Tracer.install` wraps the package's public functions and methods with
span recorders; `uninstall` puts the originals back, so an untraced phase
runs the unmodified code.  Nothing in `src/` knows about tracing.

A span is `(name, start, end, parent, key, layer)`: `parent` is the index
of the enclosing span (-1 at top level), `key` names the set-up repetition
or timed operation it belongs to, and `layer` is set only on VJP spans, to
the innermost layer span that was open when the op recorded its tape
entry.  Backward time is attributed to layers through that field.
"""
from __future__ import annotations

import functools
import gzip
import json
import time
import tracemalloc
from collections import defaultdict

# differentiable ops of `wavetransformer.tensor.ops`; each gets a
# `tensor.ops.<name>` span and its VJP a `tensor.ops.<name>.vjp` span
TRACED_OPS = (
    "add", "sub", "mul", "scale", "add_const", "mul_const", "reshape",
    "transpose", "concat", "tensor_sum", "mean_all", "matmul", "linear",
    "embedding", "take_last_axis", "relu", "leaky_relu", "sigmoid", "tanh",
    "softmax", "log_softmax", "dropout", "conv1d", "conv2d", "max_pool_freq",
    "batch_norm", "layer_norm",
)
OP_PREFIX = "tensor.ops."

# layers whose tracemalloc footprint is recorded per call
MEMORY_LAYERS = ("encoder.tf.block",)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, str]] = []
        self.key = "setup0"
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.memory: dict[tuple[str, str], list[tuple[float, float]]] = defaultdict(list)
        self.layer_names: dict[int, str] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ----- recording -------------------------------------------------------

    def call(self, name: str, fn, *args, layer: str | None = None, **kwargs):
        # a closed span becomes a tuple of atoms, which the garbage collector
        # stops tracking; a growing list of lists would slow every collection
        parent = self.stack[-1][0] if self.stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append((idx, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.key, layer)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[(self.key, name)] += amount

    def current(self, predicate) -> str | None:
        for _, name in reversed(self.stack):
            if predicate(name):
                return name
        return None

    def call_measuring_memory(self, name: str, fn, *args, **kwargs):
        """Span plus tracemalloc: bytes still held after the call (output and
        tape-retained buffers) and the peak allocated during it."""
        tracemalloc.start()
        try:
            result = self.call(name, fn, *args, **kwargs)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        self.memory[(self.key, name)].append((retained / 2**20, peak / 2**20))
        return result

    # ----- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr, None)
        if original is None:  # gone from this version of the package: its metrics read 0
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def _span_wrapper(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                return self.call(name, original, *args, **kwargs)
            return wrapper
        return make

    def _layer_wrapper(self, kind: str):
        """Method wrapper naming the span from the instance's layer name."""
        def make(original):
            def wrapper(obj, *args, **kwargs):
                name = self.layer_names.get(id(obj), kind)
                if name.startswith(MEMORY_LAYERS):
                    return self.call_measuring_memory(name, original, obj, *args, **kwargs)
                return self.call(name, original, obj, *args, **kwargs)
            return wrapper
        return make

    def name_layers(self, model) -> None:
        """Map each block instance of `model` to its parameter-name prefix."""
        enc = model.encoder
        for i, block in enumerate(getattr(enc, "wave_blocks", [])):
            self.layer_names[id(block)] = f"encoder.temp.block{i + 1}"
        for i, block in enumerate(getattr(enc, "tf_blocks", [])):
            self.layer_names[id(block)] = f"encoder.tf.block{i + 1}"
        if getattr(enc, "merge", None) is not None:
            self.layer_names[id(enc.merge)] = "encoder.merge"

    def install(self, wt) -> None:
        """Wrap the package's public entry points; `wt` is a namespace of its
        modules (see `workloads.import_package`)."""
        if self._patches:
            return
        for mod, names in (
            (wt.audio, ("load_wav", "extract_features")),
            (wt.fileformats, ("write_wtf1", "read_wtf1")),
            (wt.training, ("load_checkpoint", "make_batch")),
            (wt.inference, ("decode",)),
            (wt.metrics, ("assemble_report",)),
        ):
            for fn in names:
                self._patch(mod, fn, self._span_wrapper(f"{mod.__name__.split('.')[-1]}.{fn}"))
        self._patch(wt.training, "batch_loss", self._span_wrapper("training.forward"))
        self._patch(wt.tensor, "backward", self._backward_wrapper)
        self._patch(wt.tensor, "clip_grad_norm", self._span_wrapper("training.clip"))
        self._patch(wt.tensor, "adam_step", self._span_wrapper("training.adam"))
        self._patch(wt.training.Checkpoint, "build_model", self._span_wrapper("training.build_model"))
        self._patch(wt.model.CaptionModel, "__init__", self._span_wrapper("model.build"))
        self._patch(wt.model.CaptionModel, "encode", self._span_wrapper("model.encode"))
        self._patch(wt.model.CaptionModel, "step_logprobs", self._step_wrapper)
        self._patch(wt.encoder.Encoder, "temporal_branch", self._span_wrapper("encoder.temp"))
        self._patch(wt.encoder.Encoder, "tf_branch", self._span_wrapper("encoder.tf"))
        for cls in ("WaveBlock", "TFBlock", "MergeNet"):
            if hasattr(wt.encoder, cls):
                self._patch(getattr(wt.encoder, cls), "__call__", self._layer_wrapper(cls))
        self._patch(wt.decoder.Decoder, "forward", self._decoder_wrapper)
        for op in TRACED_OPS:
            self._patch(wt.ops, op, self._span_wrapper(OP_PREFIX + op))
        self._patch(wt.core.Tape, "record", self._record_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ----- special wrappers ------------------------------------------------

    def _backward_wrapper(self, original):
        def wrapper(loss, tape, *args, **kwargs):
            self.count("tensor.tape_entries", len(tape))
            return self.call("training.backward", original, loss, tape, *args, **kwargs)
        return wrapper

    def _step_wrapper(self, original):
        def wrapper(model, prefix, *args, **kwargs):
            self.count("decoder.step_calls")
            self.count("decoder.positions_computed", len(prefix))
            return self.call("decoder.step", original, model, prefix, *args, **kwargs)
        return wrapper

    def _decoder_wrapper(self, original):
        # inside a decode step the step span already covers the forward pass
        def wrapper(*args, **kwargs):
            if self.stack and self.stack[-1][1] == "decoder.step":
                return original(*args, **kwargs)
            return self.call("decoder.forward", original, *args, **kwargs)
        return wrapper

    def _record_wrapper(self, original):
        def wrapper(tape, out, inputs, vjp):
            op = self.current(lambda n: n.startswith(OP_PREFIX)) or OP_PREFIX + "other"
            layer = self.current(lambda n: not n.startswith(OP_PREFIX)) or "other"

            def timed_vjp(g):
                return self.call(op + ".vjp", vjp, g, layer=layer)

            return original(tape, out, inputs, timed_vjp)
        return wrapper

    # ----- output ----------------------------------------------------------

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "key", "layer"],
                "spans": self.spans,
                "counts": [[k, n, v] for (k, n), v in sorted(self.counts.items())],
            }, fh)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

TF_BLOCKS = tuple(f"encoder.tf.block{i}" for i in (1, 2, 3))
TEMP_BLOCKS = tuple(f"encoder.temp.block{i}" for i in (1, 2, 3, 4))
METRIC_OPS = ("conv1d", "conv2d", "max_pool_freq", "batch_norm", "linear", "matmul",
              "softmax", "log_softmax", "layer_norm", "embedding")

# (metric, unit, better); every one is emitted by a traced run, as 0 where
# its layer does not run on the workload
PER_LAYER = (
    [(f"{n}_s", "s", "lower") for n in ("audio.load_wav", "audio.extract_features",
                                        "fileformats.write_wtf1", "fileformats.read_wtf1")]
    + [(f"{b}.fwd_s", "s", "lower") for b in TF_BLOCKS + TEMP_BLOCKS + ("encoder.merge",)]
    + [(f"{b}.bwd_s", "s", "lower") for b in TF_BLOCKS + ("encoder.temp", "encoder.merge", "decoder")]
    + [(f"{b}.{m}", "MB", "lower") for b in TF_BLOCKS for m in ("retained_mb", "alloc_peak_mb")]
    + [(f"{OP_PREFIX}{op}.{d}_s", "s", "lower") for op in METRIC_OPS for d in ("fwd", "vjp")]
    + [("tensor.tape_entries", "count", "lower"),
       ("decoder.forward_s", "s", "lower"),
       ("decoder.step_s", "s", "lower"),
       ("decoder.step_calls", "count", "lower"),
       ("decoder.positions_computed", "count", "lower"),
       ("inference.search_s", "s", "lower"),
       ("inference.tokens", "count", "lower"),
       ("inference.candidates", "count", "lower")]
    + [(f"training.{n}_s", "s", "lower") for n in ("make_batch", "forward", "backward", "clip", "adam")]
    + [("training.useful_frame_ratio", "ratio", "higher"),
       ("training.useful_token_ratio", "ratio", "higher"),
       ("model.build_s", "s", "lower"),
       ("training.load_checkpoint_s", "s", "lower"),
       ("metrics.assemble_report_s", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower")]
)


class Summary:
    """Span totals per (key, name): inclusive time, self time, calls, and
    VJP time per (key, layer)."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        child = [0.0] * len(tracer.spans)
        for name, start, end, parent, _, _ in tracer.spans:
            if parent >= 0:
                child[parent] += end - start
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.bwd = defaultdict(float)
        for i, (name, start, end, _, key, layer) in enumerate(tracer.spans):
            self.total[(key, name)] += end - start
            self.self_time[(key, name)] += end - start - child[i]
            self.calls[(key, name)] += 1
            if layer is not None:
                self.bwd[(key, layer)] += end - start

    def bwd_prefix(self, key: str, prefix: str) -> float:
        return sum(v for (k, layer), v in self.bwd.items() if k == key and layer.startswith(prefix))

    def memory(self, key: str, name: str, which: int) -> float:
        return max((m[which] for m in self.tracer.memory.get((key, name), [])), default=0.0)


def median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def per_layer_metrics(tracer: Tracer, op_keys: list[str], setup_keys: list[str],
                      op_stats: dict[str, dict], vocab_size: int,
                      overhead: float) -> dict[str, float]:
    """Each metric is its median over the traced operations; a layer that
    runs only during set-up reports its median over the set-up repetitions."""
    s = Summary(tracer)
    count = tracer.counts

    def steps(k):
        return count.get((k, "decoder.step_calls"), 0.0)

    fns = {
        "tensor.tape_entries": lambda k: count.get((k, "tensor.tape_entries"), 0.0),
        "decoder.step_calls": steps,
        "decoder.positions_computed": lambda k: count.get((k, "decoder.positions_computed"), 0.0),
        "decoder.step_s": lambda k: s.total[(k, "decoder.step")] / steps(k) if steps(k) else 0.0,
        "inference.search_s": lambda k: s.self_time[(k, "inference.decode")],
        "inference.candidates": lambda k: steps(k) * vocab_size,
        "encoder.temp.bwd_s": lambda k: s.bwd_prefix(k, "encoder.temp"),
        "decoder.bwd_s": lambda k: s.bwd_prefix(k, "decoder"),
    }
    for b in TF_BLOCKS:
        fns[f"{b}.retained_mb"] = lambda k, b=b: s.memory(k, b, 0)
        fns[f"{b}.alloc_peak_mb"] = lambda k, b=b: s.memory(k, b, 1)
    for b in TF_BLOCKS + ("encoder.merge",):
        fns[f"{b}.bwd_s"] = lambda k, b=b: s.bwd[(k, b)]
    for b in TF_BLOCKS + TEMP_BLOCKS + ("encoder.merge",):
        fns[f"{b}.fwd_s"] = lambda k, b=b: s.total[(k, b)]
    for op in METRIC_OPS:
        fns[f"{OP_PREFIX}{op}.fwd_s"] = lambda k, n=OP_PREFIX + op: s.total[(k, n)]
        fns[f"{OP_PREFIX}{op}.vjp_s"] = lambda k, n=OP_PREFIX + op + ".vjp": s.total[(k, n)]
    for name in ("training.useful_frame_ratio", "training.useful_token_ratio", "inference.tokens"):
        fns[name] = lambda k, name=name: op_stats.get(k, {}).get(name, 0.0)

    out = {}
    for name, _, _ in PER_LAYER:
        if name == "metrics.assemble_report_s":
            out[name] = s.total[("evaluate", "metrics.assemble_report")]
            continue
        if name == "trace.overhead_ratio":
            out[name] = overhead
            continue
        fn = fns.get(name, lambda k, n=name[: -len("_s")]: s.total[(k, n)])
        value = median(fn(k) for k in op_keys)
        out[name] = value if value else median(fn(k) for k in setup_keys)
    return out


def table(tracer: Tracer, op_keys: list[str], setup_keys: list[str]) -> list[str]:
    """Per-layer table: calls, self and total seconds per operation (or per
    set-up repetition for layers that run only in set-up), retained MB."""
    s = Summary(tracer)
    lines = [f"{'layer':44s} {'per':>6s} {'calls':>9s} {'self_s':>10s} {'total_s':>10s} {'retained_mb':>12s}"]

    def rows(keys, label, skip=()):
        names = sorted({n for (k, n) in s.calls if k in keys} - set(skip))
        for n in names:
            calls = sum(s.calls[(k, n)] for k in keys) / len(keys)
            self_s = sum(s.self_time[(k, n)] for k in keys) / len(keys)
            total = sum(s.total[(k, n)] for k in keys) / len(keys)
            mem = max((s.memory(k, n, 0) for k in keys), default=0.0)
            lines.append(f"{n:44s} {label:>6s} {calls:9.1f} {self_s:10.4f} {total:10.4f} {mem:12.2f}")
        return names

    seen = rows(op_keys, "op") if op_keys else []
    if setup_keys:
        rows(setup_keys, "setup", skip=seen)
    if op_keys:
        layers = sorted({layer for (k, layer) in s.bwd if k in op_keys})
        for layer in layers:
            bwd = sum(s.bwd[(k, layer)] for k in op_keys) / len(op_keys)
            lines.append(f"{layer + ' [backward]':44s} {'op':>6s} {'':>9s} {bwd:10.4f} {bwd:10.4f} {'':>12s}")
    return lines
