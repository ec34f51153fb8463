"""In-memory span recording around the public functions of faultgen's layers.

A span is (name, start, end, parent, note). Spans live in flat arrays while
the workload runs and are written out once, when it ends. `note` carries a
small integer a layer metric needs, such as the number of series a corpus
call moved; -1 means none.

The wrappers are installed on the names the callers look up (for example
both `faultgen.cli.load_corpus` and `faultgen.data.load_corpus`) and are
removed again by `Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from array import array

import numpy as np

NO_NOTE = -1


def _series_in(args, kwargs, result):
    return len(args[0])


def _series_out(args, kwargs, result):
    return len(result)


def _corpora_key(tracer):
    """Intern (real.id, synth.id) so repeated score calls on one pair can be found."""
    def note(args, kwargs, result):
        return tracer.intern_key(f"{args[0].id}|{args[1].id}")
    return note


AUTODIFF_OPS = ("gelu", "matmul", "layer_norm", "softmax",
                "add", "sub", "mul", "div", "absolute", "minimum",
                "reshape", "transpose", "take", "pad", "concat", "stack",
                "tsum", "tmean")

SCORES = {"context_fid": "context_fid", "correlational_score": "correlational",
          "discriminative_score": "discriminative", "predictive_score": "predictive",
          "diversity_score": "diversity"}


def targets(tracer) -> list[tuple[str, str | None, str, str, object]]:
    """(module, class or None, attribute, span name, note function) for each wrapper."""
    t = []
    for mod in ("faultgen.cli", "faultgen.data"):
        t += [(mod, None, "generate_normal", "data.generate_normal", None),
              (mod, None, "make_fault_dataset", "data.make_fault_dataset", None),
              (mod, None, "save_corpus", "data.save_corpus", _series_in),
              (mod, None, "load_corpus", "data.load_corpus", _series_out)]
    t += [("faultgen.autodiff", None, op, f"autodiff.{op}", None) for op in AUTODIFF_OPS]
    t.append(("faultgen.autodiff", None, "backward", "autodiff.backward", None))
    t += [("faultgen.denoiser", None, "multi_head_attention", "denoiser.attention", None),
          ("faultgen.denoiser", None, "feed_forward", "denoiser.feed_forward", None),
          ("faultgen.denoiser", "Backbone", "forward", "denoiser.forward", None),
          ("faultgen.denoiser", "Backbone", "decompose", "denoiser.decompose", None),
          ("faultgen.denoiser", "Backbone", "predict_noise", "denoiser.predict_noise", None),
          ("faultgen.adapter", "ComposedModel", "predict_noise", "denoiser.predict_noise", None),
          ("faultgen.adapter", "AdapterStack", "block_forward", "adapter.block_forward", None)]
    t += [("faultgen.training", None, "forward_sample", "training.forward_sample", None),
          ("faultgen.training", "Adam", "step", "training.adam", None),
          ("faultgen.training", None, "base_loss", "training.loss", None),
          ("faultgen.training", None, "total_loss", "training.loss", None),
          ("faultgen.training", None, "_snapshot", "training.snapshot", None),
          ("faultgen.training", None, "save_checkpoint", "training.save_checkpoint", None),
          ("faultgen.cli", None, "sample", "diffusion.sample", None)]
    key = _corpora_key(tracer)
    t += [("faultgen.metrics", None, fn, f"metrics.{score}", key) for fn, score in SCORES.items()]
    t += [("faultgen.eig", None, "sym_eig", "eig.sym_eig", None),
          ("faultgen.metrics", None, "sym_eig", "eig.sym_eig", None)]
    return t


class Tracer:
    """Records spans for wrapped calls; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.keys: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._key_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.note = array("q")
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []

    def intern_key(self, key: str) -> int:
        if key not in self._key_ids:
            self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        return self._key_ids[key]

    def _name(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.note.append(NO_NOTE)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span; used for the stage calls themselves."""
        idx = self._open(self._name(name))
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, note=None):
        nid = self._name(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if note is not None:
                self.note[idx] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for mod_name, cls_name, attr, name, note in targets(self):
            owner = importlib.import_module(mod_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            original = vars(owner)[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, note))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def save(self, directory) -> None:
        np.savez(os.path.join(directory, "spans.npz"),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 note=np.frombuffer(self.note, dtype=np.int64))
        with open(os.path.join(directory, "span_names.json"), "w") as fh:
            json.dump({"names": self.names, "keys": self.keys}, fh)


class Spans:
    """Read-only view of a saved trace, with self times and stage roots."""

    def __init__(self, name_id, parent, start, end, note, names):
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.note = np.asarray(note, dtype=np.int64)
        self.names = list(names)
        self.duration = self.end - self.start
        self.name = np.array(self.names, dtype=object)[self.name_id] if len(self.names) else np.array([], dtype=object)
        self.self_time = self_times(self.duration, self.parent)
        self.root = roots(self.parent)

    @classmethod
    def load(cls, directory) -> "Spans":
        with np.load(os.path.join(directory, "spans.npz")) as z:
            arrays = {k: z[k] for k in z.files}
        with open(os.path.join(directory, "span_names.json")) as fh:
            meta = json.load(fh)
        return cls(names=meta["names"], **arrays)

    def mask(self, name: str) -> np.ndarray:
        return self.name == name

    def within(self, ancestor_name: str) -> np.ndarray:
        """True for spans that have an ancestor (or are themselves) named `ancestor_name`."""
        hit = self.name == ancestor_name
        out = np.zeros(len(self.parent), dtype=bool)
        for i, p in enumerate(self.parent):
            out[i] = hit[i] or (p >= 0 and out[p])
        return out


def self_times(duration: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """A span's duration minus the summed durations of its direct children."""
    duration = np.asarray(duration, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def roots(parent: np.ndarray) -> np.ndarray:
    """Index of each span's top-level ancestor; parents always precede children."""
    parent = np.asarray(parent, dtype=np.int64)
    out = np.arange(len(parent))
    for i, p in enumerate(parent):
        if p >= 0:
            out[i] = out[p]
    return out
