"""Per-layer tracing of pctl from outside the program.

``Tracer.install`` wraps the public functions of each pctl module, and the
backward rules that the wrapped autodiff ops record on the tape, with timers
that append spans to an in-memory list. Each span is ``[name, start, end,
parent]``, where ``parent`` is the index of the enclosing span or -1; a
backward span carries a fifth entry, the module path whose forward recorded
the op. ``write`` saves the spans at the end of a run, and ``layer_metrics``
folds them into the per-layer figures named in BENCHMARK.json.

The wrappers call straight through, so a traced run computes exactly what an
untraced one does; the benchmark checks this by comparing checkpoints.
``Patches`` is the one patch-and-restore mechanism, shared with the
workloads' timestamps.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict

OP_GROUPS = {
    "conv3d": ("conv3d",),
    "matmul": ("matmul",),
    "cumprod": ("cumprod",),
    "concat": ("concat",),
    "elementwise": ("add", "sub", "mul", "div", "neg", "power", "exp", "log",
                    "sigmoid", "softplus", "relu", "absolute", "clamp"),
    "reduce": ("reduce_sum", "reduce_mean"),
    "shape": ("reshape", "transpose"),
}

BLOCKS = 5


def conv3d_shapes(x_shape, k_shape, out_shape):
    """(im2col rows, im2col columns, output channels) of one conv3d call."""
    n = x_shape[0] if len(x_shape) == 5 else 1
    co, ci, kd, kh, kw = k_shape
    do, ho, wo = out_shape[-3:]
    return n * do * ho * wo, ci * kd * kh * kw, co


def im2col_mb(x_shape, k_shape, out_shape) -> float:
    """Size in MB (1e6 bytes) of the float64 im2col matrix conv3d builds."""
    rows, cols, _ = conv3d_shapes(x_shape, k_shape, out_shape)
    return rows * cols * 8 / 1e6


def conv3d_gflop(x_shape, k_shape, out_shape) -> float:
    """Forward multiply-adds of one conv3d call, as GFLOP (2 per multiply-add)."""
    rows, cols, co = conv3d_shapes(x_shape, k_shape, out_shape)
    return 2.0 * rows * cols * co / 1e9


class Patches:
    """Attributes replaced by wrappers, and the originals to put back."""

    def __init__(self):
        self._undo: list = []

    def wrap(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]``) by ``wrapper(original)``."""
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        new = wrapper(original)
        if isinstance(owner, dict):
            owner[attr] = new
        else:
            setattr(owner, attr, new)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = []          # indices of the spans now open
        self.modules: tuple = ()           # names of the module spans now open
        self.in_op = False
        self.bwd_by_module = defaultdict(float)
        self.counts = defaultdict(float)
        self.block_index: dict[int, str] = {}
        self.classifiers: list = []        # kept alive so their ids stay unique
        self.patches = Patches()

    # -- recording -------------------------------------------------------------

    def _start(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.open[-1] if self.open else -1])
        self.open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.open.pop()

    def region(self, name: str, fn, *args, **kwargs):
        """Call fn inside a module span called ``name``."""
        if self.modules and self.modules[-1] == name:
            return fn(*args, **kwargs)      # re-entry, e.g. super().initialize
        idx = self._start(name)
        saved = self.modules
        self.modules = saved + (name,)
        try:
            return fn(*args, **kwargs)
        finally:
            self.modules = saved
            self._end(idx)

    # -- wrappers ----------------------------------------------------------------

    def _module_fn(self, name: str, count=None):
        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if count is not None:
                    count(*args, **kwargs)
                return self.region(name, fn, *args, **kwargs)
            return traced
        return wrap

    def _op_fn(self, group: str, ad):
        tracer = self

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if tracer.in_op:
                    return fn(*args, **kwargs)
                tracer.in_op = True
                idx = tracer._start(f"autodiff.{group}.fwd")
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._end(idx)
                    tracer.in_op = False
                if group == "conv3d":
                    shapes = (args[0].shape, args[1].shape, out.shape)
                    tracer.counts["conv3d.calls"] += 1
                    tracer.counts["conv3d.gflop"] += conv3d_gflop(*shapes)
                    tracer.counts["conv3d.im2col_mb"] += im2col_mb(*shapes)
                if out.node_id is not None:
                    node = ad._active_tape.nodes[out.node_id]
                    if node.out is out:
                        node.backward_fn = tracer._timed_backward(
                            node.backward_fn, group, tracer.modules,
                            shapes if group == "conv3d" else None)
                return out
            return traced
        return wrap

    def _timed_backward(self, fn, group, modules, shapes):
        def traced(g):
            idx = self._start(f"autodiff.{group}.bwd")
            try:
                return fn(g)
            finally:
                self._end(idx)
                span = self.spans[idx]
                span.append("/".join(modules))
                took = span[2] - span[1]
                for name in modules:
                    self.bwd_by_module[name] += took
                if shapes is not None:
                    # dk and dcols are one GEMM each, the size of the forward
                    self.counts["conv3d.gflop"] += 2.0 * conv3d_gflop(*shapes)
        return traced

    def install(self) -> None:
        """Wrap every traced entry point of pctl; ``uninstall`` undoes it."""
        from pctl import autodiff as ad
        from pctl import classifier, cli, data, decoder, encoder, layers, mi, trainer

        wrap = self.patches.wrap

        for group, names in OP_GROUPS.items():
            for name in names:
                wrap(ad, name, self._op_fn(group, ad))

        tracer = self

        def tape_backward(fn):
            @functools.wraps(fn)
            def traced(tape, loss):
                tracer.counts["tape.nodes"] += len(tape.nodes)
                return tracer.region("autodiff.tape.backward", fn, tape, loss)
            return traced
        wrap(ad.Tape, "backward", tape_backward)

        def dense_call(fn):
            @functools.wraps(fn)
            def traced(layer, x):
                if id(layer) in tracer.block_index:
                    return tracer.region(
                        "classifier.head", tracer.region, "layers.dense", fn, layer, x)
                return tracer.region("layers.dense", fn, layer, x)
            return traced
        wrap(layers.DenseLayer, "__call__", dense_call)
        wrap(layers.BatchNorm3d, "__call__", self._module_fn("layers.batchnorm"))
        wrap(layers.Dropout, "__call__", self._module_fn("layers.dropout"))
        for owner in (layers, classifier):
            wrap(owner, "softmax_cross_entropy", self._module_fn("layers.softmax_ce"))

        def count_pixels(enc, x):
            tracer.counts["encoder.px_encoded"] += x.shape[0]
            if any(m.startswith("trainer.eval") for m in tracer.modules):
                tracer.counts["trainer.eval_px_encoded"] += x.shape[0]
        wrap(encoder.Encoder, "encode", self._module_fn("encoder.encode", count_pixels))
        wrap(decoder.PlainDecoder, "decode_both", self._module_fn("decoder.decode"))
        for cls in (decoder.PlainDecoder, decoder.AffineDecoder):
            wrap(cls, "initialize", self._module_fn("decoder.initialize"))
        for owner in (mi, trainer):
            wrap(owner, "mi_loss", self._module_fn("mi.loss"))

        def classifier_init(fn):
            @functools.wraps(fn)
            def traced(clf, *args, **kwargs):
                fn(clf, *args, **kwargs)
                tracer.classifiers.append(clf)
                for i, block in enumerate(clf.blocks):
                    tracer.block_index[id(block)] = f"classifier.block{i}"
                tracer.block_index[id(clf.head)] = "classifier.head"
            return traced
        wrap(classifier.Classifier3d, "__init__", classifier_init)

        def block_call(fn):
            @functools.wraps(fn)
            def traced(block, x, train):
                return tracer.region(tracer.block_index[id(block)], fn, block, x, train)
            return traced
        wrap(classifier.ConvBlock, "__call__", block_call)
        for owner in (classifier, trainer):
            wrap(owner, "encode_patches", self._module_fn("classifier.encode_patches"))
            wrap(owner, "extract_patches", self._module_fn("data.extract_patches"))

        for owner in (trainer, cli):
            wrap(owner, "train", self._module_fn("trainer.train"))
        wrap(trainer, "compute_losses", self._module_fn("trainer.compute_losses"))
        wrap(trainer.ModelState, "adam_update", self._module_fn("trainer.adam"))

        def accuracy(fn):
            @functools.wraps(fn)
            def traced(state, cube, centers):
                full = len(centers) == int((cube.labels > 0).sum())
                name = "trainer.eval_full" if full else "trainer.eval_sub"
                return tracer.region(name, fn, state, cube, centers)
            return traced
        wrap(trainer, "_accuracy", accuracy)
        wrap(trainer, "abundance_map", self._module_fn("trainer.abundance_map"))
        for owner in (trainer, cli):
            wrap(owner, "load_checkpoint", self._module_fn("trainer.load_checkpoint"))
        for owner in (data, cli):
            wrap(owner, "generate_synthetic_pair", self._module_fn("data.generate"))
            wrap(owner, "read_cube", self._module_fn("data.read_cube"))
            wrap(owner, "write_labels", self._module_fn("data.write_labels"))
        wrap(cli, "cmd_predict", self._module_fn("cli.predict"))
        wrap(cli.COMMANDS, "predict", self._module_fn("cli.predict"))

    def uninstall(self) -> None:
        self.patches.restore()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output --------------------------------------------------------------------

    def write(self, path, meta: dict) -> None:
        """Write a header line and one JSON array per span, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(meta) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def _totals(self) -> dict:
        """Seconds per span name, counting a name only where it is outermost."""
        totals = defaultdict(float)
        for idx, (name, start, end, parent, *_) in enumerate(self.spans):
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                totals[name] += end - start
        return totals

    def _step_seconds(self) -> float:
        """Training time inside trainer.train outside evaluation and set-up.

        A step runs from batch sampling to the end of its Adam update, so the
        loop starts at the end of decoder initialization and ends at the last
        Adam update; evaluations in between are taken out.
        """
        children_of = defaultdict(list)
        for span in self.spans:
            children_of[span[3]].append(span)
        total = 0.0
        for idx, span in enumerate(self.spans):
            if span[0] != "trainer.train":
                continue
            children = children_of[idx]
            adams = [s for s in children if s[0] == "trainer.adam"]
            if not adams:
                continue
            inits = [s for s in children if s[0] == "decoder.initialize"]
            begin = inits[-1][2] if inits else span[1]
            end = adams[-1][2]
            evals = sum(s[2] - s[1] for s in children
                        if s[0].startswith("trainer.eval") and s[2] <= end)
            total += end - begin - evals
        return total

    def layer_metrics(self, steps: int, setup: "Tracer") -> dict:
        """Per-layer figures of the traced operations, divided by ``steps``.

        ``data.generate_ms`` alone comes from ``setup``, the tracer of one
        set-up, since only set-up generates scenes; it is per set-up.
        """
        totals = self._totals()
        per = 1.0 / steps
        ms = 1000.0 * per
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for group in OP_GROUPS:
            put(f"autodiff.{group}.fwd_ms", totals[f"autodiff.{group}.fwd"] * ms, "ms")
            put(f"autodiff.{group}.bwd_ms", totals[f"autodiff.{group}.bwd"] * ms, "ms")
        put("autodiff.conv3d.calls", self.counts["conv3d.calls"] * per, "count")
        put("autodiff.conv3d.gflop", self.counts["conv3d.gflop"] * per, "GFLOP")
        put("autodiff.conv3d.im2col_mb", self.counts["conv3d.im2col_mb"] * per, "MB")
        rules = sum(s[2] - s[1] for s in self.spans
                    if s[0].startswith("autodiff.") and s[0].endswith(".bwd"))
        put("autodiff.tape.nodes", self.counts["tape.nodes"] * per, "count")
        put("autodiff.tape.self_ms",
            (totals["autodiff.tape.backward"] - rules) * ms, "ms")
        for layer in ("dense", "batchnorm", "dropout", "softmax_ce"):
            name = f"layers.{layer}"
            put(f"{name}.ms", (totals[name] + self.bwd_by_module[name]) * ms, "ms")
        for name in ("encoder.encode", "decoder.decode", "mi.loss") + tuple(
                f"classifier.block{i}" for i in range(BLOCKS)) + ("classifier.head",):
            put(f"{name}.fwd_ms", totals[name] * ms, "ms")
            put(f"{name}.bwd_ms", self.bwd_by_module[name] * ms, "ms")
        put("encoder.px_encoded", self.counts["encoder.px_encoded"] * per, "count")
        put("decoder.initialize_ms", totals["decoder.initialize"] * ms, "ms")
        put("classifier.encode_patches_ms", totals["classifier.encode_patches"] * ms, "ms")
        put("trainer.step_ms", self._step_seconds() * ms, "ms")
        for name in ("compute_losses", "adam", "eval_sub", "eval_full",
                     "abundance_map", "load_checkpoint"):
            put(f"trainer.{name}_ms", totals[f"trainer.{name}"] * ms, "ms")
        put("trainer.backward_ms", totals["autodiff.tape.backward"] * ms, "ms")
        put("trainer.eval_px_encoded", self.counts["trainer.eval_px_encoded"] * per,
            "count")
        put("data.generate_ms", setup._totals()["data.generate"] * 1000.0, "ms")
        for name in ("extract_patches", "read_cube", "write_labels"):
            put(f"data.{name}_ms", totals[f"data.{name}"] * ms, "ms")
        put("cli.predict_ms", totals["cli.predict"] * ms, "ms")
        return out
