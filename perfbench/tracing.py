"""Spans and per-op timing for the benchmark's traced run.

The tracer wraps sinmt's public functions and methods from outside the
program. Each wrapped layer call records a span (name, start, end,
parent) in memory; ``write_spans`` stores them when the run ends.
Tape primitives are too many to keep as spans (a training batch makes a
few hundred calls), so they are aggregated: forward time is taken at
the primitive's call boundary, because the forward numpy work runs
before the tape node is recorded, and backward time around the backward
function of the node the call recorded.

When the tracer is not installed nothing is wrapped, so untraced runs
pay nothing for it.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or None]
        self.spans: list[list] = []
        # op name -> [forward seconds, backward seconds, calls]
        self.ops: dict[str, list] = {}
        self.tape_nodes = 0
        self.enabled = True
        self._stack: list[int] = []
        self._in_op = False
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------

    def install(self, ad, md, tr, sd, ev, modules) -> None:
        """Wrap every public tape primitive and the layer entry points.

        ``modules`` are all sinmt modules; a function imported into
        another module under its own name is wrapped there too.
        """
        for name, fn in vars(ad).items():
            if (inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__ == ad.__name__
                    and "_emit(" in inspect.getsource(fn)):
                self._replace_function(fn, self._op_wrapper(name, fn),
                                       modules)

        def count_nodes(args):
            self.tape_nodes += len(args[0])

        def classify_forward(span, args, result):
            if result.spoof_logits.tape is None:
                span[0] = "model.infer"

        self._wrap_method(ad.Tape, "backward", "autodiff.backward",
                          before=count_nodes)
        self._wrap_method(md.SInMTNetwork, "forward", "model.forward",
                          after=classify_forward)
        self._wrap_method(md.SInMTNetwork, "encode", "model.encode")
        self._wrap_method(sd.Augmenter, "augment", "synthdata.augment")
        self._wrap_method(sd.CorpusManifest, "load_waveform",
                          "synthdata.load_waveform")
        layer_functions = [
            (ad, "optimizer_step"), (md, "mhfa_pool"),
            (md, "save_checkpoint"), (md, "load_checkpoint"),
            (tr, "train"), (tr, "train_step"),
            (sd, "generate_corpus"), (sd, "read_manifest"),
            (ev, "score_split"), (ev, "breakdown_report"),
            (ev, "write_scores"), (ev, "embed_split"),
            (ev, "speaker_probe"), (ev, "silhouette"),
        ]
        for module, name in layer_functions:
            fn = getattr(module, name)
            label = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
            self._replace_function(fn, self._span_wrapper(label, fn),
                                   modules)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are not traced."""
        saved, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = saved

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark itself."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _replace_function(self, fn, wrapper, modules) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _wrap_method(self, cls, attr, label, before=None, after=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr,
                self._span_wrapper(label, original, before, after))

    # -- wrappers -----------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, _clock(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record):
        record[2] = _clock()
        self._stack.pop()

    def _span_wrapper(self, label, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            record = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if after is not None:
                after(record, args, result)
            return result

        return wrapper

    def _op_wrapper(self, name, fn):
        tracer = self
        stats = self.ops.setdefault(name, [0.0, 0.0, 0])

        def timed_backward(backward_fn):
            def run(g):
                t0 = _clock()
                grads = backward_fn(g)
                stats[1] += _clock() - t0
                return grads
            return run

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a primitive built from another primitive counts once
            if not tracer.enabled or tracer._in_op:
                return fn(*args, **kwargs)
            tracer._in_op = True
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._in_op = False
            stats[0] += _clock() - t0
            stats[2] += 1
            tape = out.tape
            if tape is not None:
                node = tape._nodes[out.node_id]
                if node.backward_fn is not None:
                    node.backward_fn = timed_backward(node.backward_fn)
            return out

        return wrapper

    # -- reporting ----------------------------------------------------

    def totals(self) -> dict:
        """name -> {calls, total_s, self_s} over the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None and end is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
        return out

    def inside(self, name: str, ancestor: str) -> float:
        """Total seconds of ``name`` spans nested under an ``ancestor``."""
        total = 0.0
        for record in self.spans:
            if record[0] != name or record[2] is None:
                continue
            parent = record[3]
            while parent is not None and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent is not None:
                total += record[2] - record[1]
        return total

    def write_spans(self, path, origin: float) -> None:
        """Spans as JSON rows, times in seconds from ``origin``."""
        rows = [{"id": i, "name": n, "start": s - origin,
                 "end": None if e is None else e - origin, "parent": p}
                for i, (n, s, e, p) in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": rows, "ops": self.ops}, f)
