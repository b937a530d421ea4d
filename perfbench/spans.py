"""Span tracing applied to the package from outside, for the traced run only.

Each layer function is replaced, at every module attribute that binds it, by
a wrapper that records a span (name, start, end, parent) in memory. Callers
inside the package look names up at call time, so patching the binding they
read is enough: ``harness`` binds ``rouge_suite``, ``decode_soft_prompt`` and
``tokenize`` at import, ``calibration`` binds ``sequence_forward``, and so on.
``uninstall`` puts every original back and checks that it is back. A target
that no longer exists raises at ``install``, so a rename in the package fails
loudly instead of silently zeroing a layer.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

_now = time.perf_counter_ns


def _forward_name(args, kwargs) -> str:
    prefix = kwargs["prefix"] if "prefix" in kwargs else args[1]
    return "model.encoder_forward" if prefix == "enc" else "model.decoder_forward"


def _forward_tokens(args, kwargs, result) -> tuple[str, int]:
    ids = kwargs["ids"] if "ids" in kwargs else args[2]
    return _forward_name(args, kwargs) + ".tokens", len(ids)


def _generated_tokens(args, kwargs, result) -> tuple[str, int]:
    return "model.tokens_generated", len(result.ids)


def _file_bytes(args, kwargs, result) -> tuple[str, int]:
    path = kwargs["path"] if "path" in kwargs else args[0]
    return "checkpoint.bytes_read", os.path.getsize(path)


# (span name or namer, module, function, counter). Functions are patched at
# every promptcal module attribute bound to them.
FUNCTIONS: list[tuple[str | Callable, str, str, Callable | None]] = [
    ("autodiff.backward", "promptcal.autodiff", "backward", None),
    ("autodiff.attention_softmax", "promptcal.autodiff", "softmax_rows", None),
    ("autodiff.attention_softmax", "promptcal.autodiff", "causal_softmax_rows", None),
    ("model.clip_gradients", "promptcal.model", "clip_gradients", None),
    ("model.pretrain", "promptcal.model", "pretrain", None),
    (_forward_name, "promptcal.model", "sequence_forward", _forward_tokens),
    ("calibration.train_calibrator", "promptcal.calibration", "train_calibrator", None),
    ("calibration.decode_soft_prompt", "promptcal.calibration", "decode_soft_prompt", None),
    ("checkpoint.load_model", "promptcal.checkpoint", "load_model", _file_bytes),
    ("checkpoint.load_calibrator", "promptcal.checkpoint", "load_calibrator", _file_bytes),
    ("rouge.suite", "promptcal.rouge", "rouge_suite", None),
    ("vocab.tokenize", "promptcal.vocab", "tokenize", None),
    ("vocab.detokenize", "promptcal.vocab", "detokenize", None),
    ("harness.evaluate_prompt", "promptcal.harness", "evaluate_prompt", None),
]
# (span name, module, class, method, counter). Methods are patched on the class.
METHODS: list[tuple[str, str, str, str, Callable | None]] = [
    ("optim.adam_step", "promptcal.optim", "Adam", "step", None),
    ("model.decode_greedy", "promptcal.model", "EncoderDecoderLM", "decode_greedy", _generated_tokens),
]


class Tracer:
    """In-memory spans and counts; ``spans`` rows are [name_id, start_ns, end_ns, parent]."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code, the parent of the layer spans inside it."""
        name_id = self._name_id(name)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, _now(), 0, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = _now()

    def _wrap(self, fn, name, counter):
        namer = name if callable(name) else None
        fixed_id = None if namer else self._name_id(name)
        spans, stack, name_id_of, counts = self.spans, self._stack, self._name_id, self.counts

        def traced(*args, **kwargs):
            name_id = fixed_id if namer is None else name_id_of(namer(args, kwargs))
            idx = len(spans)
            spans.append([name_id, 0, 0, stack[-1] if stack else -1])
            stack.append(idx)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if counter is not None:
                key, n = counter(args, kwargs, result)
                counts[key] += n
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "promptcal" or name.startswith("promptcal."))]
        for name, module_name, attr, counter in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(original, name, counter)
            for module in modules:
                for binding, obj in list(vars(module).items()):
                    if obj is original:
                        self._patches.append((module, binding, original))
                        setattr(module, binding, traced)
        for name, module_name, cls_name, attr, counter in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        """Restore every original binding and check that each one is back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for owner, attr, original in self._patches:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"{owner!r}.{attr} was not restored")
        self._patches.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, and self seconds (span time minus child spans)."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for idx, (name_id, start, end, _) in enumerate(self.spans):
            entry = totals.setdefault(self.names[name_id], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start - child_ns[idx]) / 1e9
        return totals

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": dict(self.counts)}
