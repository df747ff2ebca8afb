"""Per-layer spans for the traced run, recorded from outside the program.

Wrappers around the layer classes and the public functions that
``qsat.network`` calls (``conv2d``, ``effective_weight``, ``pact_quantize``,
``BatchNorm2d``) stamp the wall clock when a call starts and ends.  Backward
work has no call of its own, so each wrapper also threads its inputs and
output through an identity op made with ``tensor.register_custom_backward``;
the op's backward rule stamps the clock when the sweep reaches it.  The
sweep runs the tape in reverse construction order, so an op's backward
takes from its output's stamp to the first stamp of its inputs, and a
layer's takes from the next layer's input stamp to its own.

``StepClock`` stamps the phases of each step of ``training.train`` itself,
through the names the loop looks up when it calls them, so the traced run
measures the same loop ``qsat train`` runs.

Spans stay in memory; ``Samples`` turns them into per-step (or per-pass)
values and the run reports medians.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict

import numpy as np

from qsat import diagnostics, network, tensor, training

now = time.perf_counter


class Samples:
    """Named lists of measured values, one value per step, call or pass."""

    def __init__(self):
        self.values: dict[str, list[float]] = defaultdict(list)

    def add(self, name: str, value: float) -> None:
        self.values[name].append(value)

    def median(self, name: str) -> float:
        vals = self.values.get(name)
        return statistics.median(vals) if vals else 0.0


class Tracer:
    """Stamps layer and op boundaries during one step or one eval batch."""

    OP_METRICS = {
        "batch_norm": "network.batch_norm",
        "effective_weight": "quant.effective_weight",
        "pact_quantize": "quant.pact_quantize",
    }

    def __init__(self):
        self.probe_op = tensor.register_custom_backward(
            self._probe_forward, self._probe_backward, name="perfbench_probe"
        )
        self.tokens = 0
        self.active = False
        self.layer_names: dict[int, str] = {}
        self.conv_shapes: dict[str, tuple] = {}
        self._saved: list[tuple] = []
        self._watched: list = []
        self._layer_classes: list[type] = []
        self._reset()

    def _reset(self) -> None:
        self.marks: dict[int, float] = {}
        self.probed: dict[int, int] = {}
        self.layers: list[tuple[str, float, int | None]] = []
        self.ops: list[tuple[str, str, float, int | None, list[int]]] = []
        self.current_layer = ""
        self.forward_end = 0.0
        self.logits_token: int | None = None

    # -- probes ---------------------------------------------------------------

    @staticmethod
    def _probe_forward(x, token):
        return x

    def _probe_backward(self, g, x, token):
        self.marks[int(token)] = now()
        return (g, None)

    def probe(self, t):
        """(t threaded through an identity op, its token); no-op off the tape.

        A tensor that is already a probe's output keeps that probe: its
        stamp marks the same moment, and every probe costs a gradient copy.
        """
        if not (tensor.is_grad_enabled() and t.requires_grad):
            return t, None
        if id(t) in self.probed:
            return t, self.probed[id(t)]
        self.tokens += 1
        token = tensor.Tensor(np.asarray(float(self.tokens)))
        out = self.probe_op(t, token)
        self.probed[id(out)] = self.tokens
        return out, self.tokens

    def probe_logits(self, logits):
        logits, self.logits_token = self.probe(logits)
        return logits

    # -- wrappers -------------------------------------------------------------

    def _wrap_layer(self, call):
        def layer_call(layer, x):
            if not self.active:
                return call(layer, x)
            name = self.layer_names[id(layer)]
            start = now()
            x, token = self.probe(x)
            self.layers.append((name, start, token))
            self.current_layer = name
            return call(layer, x)

        return layer_call

    def _wrap_op(self, fn, kind):
        def op(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            args = list(args)
            in_tokens = []
            for i, a in enumerate(args):
                if isinstance(a, tensor.Tensor):
                    args[i], token = self.probe(a)
                    if token is not None:
                        in_tokens.append(token)
            start = now()
            out = fn(*args, **kwargs)
            elapsed = now() - start
            if kind == "conv2d":
                self.conv_shapes.setdefault(self.current_layer, (args[1].shape, out.shape))
            out, out_token = self.probe(out)
            self.ops.append((kind, self.current_layer, elapsed, out_token, in_tokens))
            return out

        return op

    def _wrap_forward(self, forward):
        def model_forward(x, training=False):
            out = forward(x, training=training)
            self.forward_end = now()
            return out

        return model_forward

    def patch(self, owner, attr, wrap) -> None:
        """Replace ``owner.attr`` with ``wrap(original)`` until uninstalled."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def watch(self, model):
        """Name the model's linear layers and wrap their classes and forward."""
        for info in model.linear_infos():
            self.layer_names[id(info.layer)] = info.name
            cls = type(info.layer)
            if cls not in self._layer_classes:
                self._layer_classes.append(cls)
                self.patch(cls, "__call__", self._wrap_layer)
        model.forward = self._wrap_forward(model.forward)
        self._watched.append(model)
        return model

    @contextlib.contextmanager
    def installed(self):
        """Wrap the ops network calls; undo every patch and watch on exit."""
        self.patch(network, "conv2d", lambda f: self._wrap_op(f, "conv2d"))
        self.patch(network, "effective_weight", lambda f: self._wrap_op(f, "effective_weight"))
        self.patch(network, "pact_quantize", lambda f: self._wrap_op(f, "pact_quantize"))
        self.patch(network.BatchNorm2d, "__call__", lambda f: self._wrap_op(f, "batch_norm"))
        try:
            yield self
        finally:
            self.active = False
            for model in self._watched:
                del model.forward
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved.clear()
            self._watched.clear()
            self._layer_classes.clear()

    # -- per-step and per-batch results -----------------------------------------

    def _layer_forward(self) -> list[tuple[str, float]]:
        starts = [s for _, s, _ in self.layers] + [self.forward_end]
        return [(name, starts[i + 1] - starts[i])
                for i, (name, _, _) in enumerate(self.layers)]

    def finish_step(self, samples: Samples, backward_end: float) -> None:
        """Turn one training step's stamps into per-step values (ms)."""
        if not self.layers or not any(kind == "conv2d" for kind, *_ in self.ops):
            raise RuntimeError("trace wrappers did not fire; the model no longer "
                               "calls network.conv2d through its layer classes")
        for name, seconds in self._layer_forward():
            samples.add(f"network.{name}.fwd_ms", 1e3 * seconds)
        marks = self.marks
        stops = [marks[tok] if tok is not None else backward_end for _, _, tok in self.layers]
        stops.append(marks[self.logits_token])
        for i, (name, _, _) in enumerate(self.layers):
            samples.add(f"network.{name}.bwd_ms", 1e3 * (stops[i] - stops[i + 1]))
        sums = {f"{m}.{d}": 0.0 for m in self.OP_METRICS.values() for d in ("fwd_ms", "bwd_ms")}
        for kind, layer, seconds, out_token, in_tokens in self.ops:
            fired = [marks[t] for t in in_tokens if t in marks]
            back = min(fired) - marks[out_token] if fired and out_token in marks else 0.0
            if kind == "conv2d":
                samples.add(f"tensor.conv2d.{layer}.fwd_ms", 1e3 * seconds)
                samples.add(f"tensor.conv2d.{layer}.bwd_ms", 1e3 * back)
            else:
                sums[f"{self.OP_METRICS[kind]}.fwd_ms"] += 1e3 * seconds
                sums[f"{self.OP_METRICS[kind]}.bwd_ms"] += 1e3 * back
        for name, value in sums.items():
            samples.add(name, value)
        self._reset()

    def finish_eval_batch(self, samples: Samples) -> None:
        for name, seconds in self._layer_forward():
            samples.add(f"network.{name}.eval_ms", 1e3 * seconds)
        self._reset()


# -- the training loop, step by step --------------------------------------------

class StepClock:
    """Stamps the phases of every step of an unchanged ``training.train``.

    ``training.train`` looks these names up when it calls them, so patching
    them stamps each step from outside:

    - ``training.build_model_from_config``: the built model is watched;
    - ``training.Batch``: the data phase ends when the batch is made;
    - the model's forward: the forward phase ends when it returns;
    - ``training.cross_entropy``: the logits get their probe on traced steps;
    - ``Tensor.backward``: spans the backward phase; the loss phase runs
      from the forward's end to its start;
    - ``diagnostics.collect_records``: timed on every call;
    - ``SGD.step``: the optimizer phase runs from its call to the start of
      ``training._topk_hits``, so it holds the update, the PACT alpha clamp
      and the step's argmax;
    - ``training._topk_hits``: the step's last call, so the step ends when
      it returns and the next step's data phase starts;
    - ``training.evaluate``: the per-epoch evaluation runs untraced, and
      the first step after it has no data phase or step time.

    Steps alternate: even steps are traced into ``samples``, odd steps run
    with the wrappers passing straight through and give the untraced step
    time, so both sides of the tracing overhead come from the same stretch
    of the run.
    """

    def __init__(self, tracer: Tracer, samples: Samples):
        self.tracer = tracer
        self.samples = samples
        self.traced = True
        self.traced_steps: list[float] = []
        self.untraced_steps: list[float] = []
        self.step_start: float | None = None
        self.evaluating = False
        self.stamps: dict[str, float] = {}

    def install(self) -> None:
        patch = self.tracer.patch
        patch(training, "build_model_from_config", self._build)
        patch(training, "Batch", self._stamp_after("batch"))
        patch(training, "cross_entropy", self._loss)
        patch(tensor.Tensor, "backward", self._backward)
        patch(diagnostics, "collect_records", self._diagnostics)
        patch(training.SGD, "step", self._stamp_before("optimizer"))
        patch(training, "_topk_hits", self._step_end)
        patch(training, "evaluate", self._evaluate)
        self.tracer.active = self.traced

    def _build(self, build):
        def watched_build(*args, **kwargs):
            return self.tracer.watch(build(*args, **kwargs))

        return watched_build

    def _stamp_after(self, key):
        def wrap(fn):
            def stamped(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.stamps[key] = now()
                return out

            return stamped

        return wrap

    def _stamp_before(self, key):
        def wrap(fn):
            def stamped(*args, **kwargs):
                self.stamps[key] = now()
                return fn(*args, **kwargs)

            return stamped

        return wrap

    def _loss(self, cross_entropy):
        def loss(logits, labels):
            if self.tracer.active:
                logits = self.tracer.probe_logits(logits)
            return cross_entropy(logits, labels)

        return loss

    def _backward(self, backward):
        def timed_backward(t):
            self.stamps["backward"] = now()
            backward(t)
            self.stamps["backward_end"] = now()
            self.tracer.active = False

        return timed_backward

    def _diagnostics(self, collect):
        def timed_collect(*args, **kwargs):
            t0 = now()
            out = collect(*args, **kwargs)
            self.samples.add("diagnostics.collect_records_ms", 1e3 * (now() - t0))
            return out

        return timed_collect

    def _evaluate(self, evaluate):
        def untraced_evaluate(*args, **kwargs):
            self.evaluating = True
            self.tracer.active = False
            try:
                return evaluate(*args, **kwargs)
            finally:
                self.evaluating = False
                self.tracer.active = self.traced
                self.step_start = None

        return untraced_evaluate

    def _step_end(self, topk_hits):
        def step_end(*args, **kwargs):
            if self.evaluating:
                return topk_hits(*args, **kwargs)
            bookkeeping = now()
            out = topk_hits(*args, **kwargs)
            end = now()
            self._finish(bookkeeping, end)
            return out

        return step_end

    def _finish(self, bookkeeping: float, end: float) -> None:
        s, add, traced = self.stamps, self.samples.add, self.traced
        if traced:
            forward_end = self.tracer.forward_end
            add("training.forward_ms", 1e3 * (forward_end - s["batch"]))
            add("training.loss_ms", 1e3 * (s["backward"] - forward_end))
            add("training.backward_ms", 1e3 * (s["backward_end"] - s["backward"]))
            add("training.optimizer_ms", 1e3 * (bookkeeping - s["optimizer"]))
            self.tracer.finish_step(self.samples, s["backward_end"])
        if self.step_start is not None:
            if traced:
                add("data.batch_ms", 1e3 * (s["batch"] - self.step_start))
            (self.traced_steps if traced else self.untraced_steps).append(
                1e3 * (end - self.step_start))
        self.stamps = {}
        self.step_start = end
        self.traced = self.tracer.active = not traced


def traced_train(cfg, init_state, out_dir, save_fn, tracer: Tracer, samples: Samples):
    """One ``training.train`` call as ``qsat train`` makes it, with its
    steps' phases and layers traced into ``samples``.

    ``training.step_ms`` is the untraced steps' time;
    ``trace.step_overhead_ms`` is the traced steps' median minus theirs.
    """
    clock = StepClock(tracer, samples)

    def timed_save(model, path):
        t0 = now()
        save_fn(model, path)
        samples.add("deployment.save_checkpoint_ms", 1e3 * (now() - t0))

    with tracer.installed():
        clock.install()
        result = training.train(cfg, out_dir=out_dir, init_state=init_state,
                                save_checkpoint_fn=timed_save)
    if not clock.traced_steps or not clock.untraced_steps:
        raise RuntimeError("the step clock saw no traced or no untraced step; "
                           "training.train no longer calls the names it patches")
    for ms in clock.untraced_steps:
        samples.add("training.step_ms", ms)
    samples.add("trace.step_overhead_ms", statistics.median(clock.traced_steps)
                - statistics.median(clock.untraced_steps))
    return result


def traced_eval(model, dataset, batch_size: int, passes: int, tracer: Tracer,
                samples: Samples) -> tuple[list[float], list[float]]:
    """Alternate untraced and traced ``training.evaluate`` passes.

    Traced passes add each layer's per-batch time to ``samples``.  Returns
    the seconds of the untraced and of the traced passes.
    """
    plain, traced = [], []
    with tracer.installed():
        forward = tracer.watch(model).forward

        def forward_and_finish(x, training=False):
            out = forward(x, training=training)
            if tracer.active:
                tracer.finish_eval_batch(samples)
            return out

        model.forward = forward_and_finish
        try:
            for _ in range(passes):
                for active, times in ((False, plain), (True, traced)):
                    tracer.active = active
                    t0 = now()
                    training.evaluate(model, dataset, batch_size=batch_size)
                    times.append(now() - t0)
        finally:
            tracer.active = False
            model.forward = forward
    return plain, traced
