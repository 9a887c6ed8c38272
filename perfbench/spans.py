"""In-memory spans for the traced benchmark run.

Spans are recorded from the benchmark's own code: ``Hooks`` temporarily
replaces the names ``hashta.model`` looks up at call time with wrappers
that open a span.  Those are its scoring stages (which ``predict_request``
calls), its training entry points, and the functions it imports from the
fingerprint, retrieval and attention layers.  Nothing inside ``src/`` is
edited.

Each span keeps its name, the phase it ran in (``serve`` or ``train``),
the request it belongs to, start and end on the monotonic clock, its
parent, and a few work counts taken from the call's arguments.  A span's
self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "phase", "request", "start", "end", "parent", "counts")

    def __init__(self, name, phase, request, parent, counts):
        self.name = name
        self.phase = phase
        self.request = request
        self.parent = parent
        self.counts = counts
        self.start = self.end = 0


class Tracer:
    """Single-threaded span recorder; spans stay in memory until summarised."""

    def __init__(self):
        self.spans = []
        self.phase = ""
        self.request = -1
        self._open = []

    @contextmanager
    def span(self, name, **counts):
        parent = self._open[-1] if self._open else None
        rec = Span(name, self.phase, self.request, parent, counts)
        self._open.append(rec)
        rec.start = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter_ns()
            self._open.pop()
            self.spans.append(rec)

    def summary(self) -> dict:
        """{(phase, name): {"calls", "incl_ns", "self_ns", <count sums>}}."""
        child_ns = {}
        for s in self.spans:
            if s.parent is not None:
                child_ns[id(s.parent)] = child_ns.get(id(s.parent), 0) + s.end - s.start
        out = {}
        for s in self.spans:
            agg = out.setdefault((s.phase, s.name), {"calls": 0, "incl_ns": 0, "self_ns": 0})
            dur = s.end - s.start
            agg["calls"] += 1
            agg["incl_ns"] += dur
            agg["self_ns"] += dur - child_ns.get(id(s), 0)
            for key, value in s.counts.items():
                agg[key] = agg.get(key, 0) + value
        return out


def _rows(arg):
    return int(arg.shape[0])


def _composite_bytes(n_queries, length, total_bits):
    # hamming_top_k_batch keeps the (queries x keys) composite order in
    # int32 whenever it fits, int64 otherwise
    itemsize = 4 if length * (total_bits + 1) < 2**31 else 8
    return n_queries * length * itemsize


def _count_batch_topk(queries, keys, valid_mask, k):
    n_q, length = len(queries), len(keys)
    valid = int(valid_mask.sum())
    return {
        "keys_scanned": n_q * length,
        "kept": n_q * min(k, valid),
        "valid": n_q * valid,
        "composite_bytes": _composite_bytes(n_q, length, keys.rounds * keys.bits_per_round),
    }


def _count_single_topk(query, keys, valid_mask, k):
    valid = int(valid_mask.sum())
    return {"keys_scanned": len(keys), "kept": min(k, valid), "valid": valid}


def _count_attended(state, cand_emb, sel, *args, **kwargs):
    # sel is None when the variant attends to every valid history key
    n = int(cand_emb.shape[0])
    per_candidate = int(state.lt.mask.sum()) if sel is None else int(sel.shape[1])
    return {"keys_attended": n * per_candidate, "candidates": n}


# (attribute owner, attribute, span name, counts from the call's arguments)
_HOOKS = (
    ("hashta.model", "prepare_request", "model.prepare_request", None),
    ("hashta.model", "candidate_embeddings", "model.candidate_embeddings", None),
    ("hashta.model", "retrieval_stage", "model.retrieval_stage", None),
    ("hashta.model", "attention_stage", "model.attention_stage", _count_attended),
    ("hashta.model", "finish_stage", "model.finish_stage", None),
    ("hashta.model", "loss_and_gradients", "model.loss_and_gradients",
     lambda batch, *a, **kw: {"samples": len(batch)}),
    ("hashta.model", "adam_step", "model.adam_step", None),
    ("hashta.model", "evaluate", "model.evaluate",
     lambda samples, *a, **kw: {"samples": len(samples)}),
    ("hashta.model", "fingerprint_batch", "fingerprint.fingerprint_batch",
     lambda emb, *a, **kw: {"rows": _rows(emb)}),
    ("hashta.model", "simhash", "fingerprint.simhash", lambda *a, **kw: {"rows": 1}),
    ("hashta.model:FingerprintTable", "take", "fingerprint.take",
     lambda self, ids: {"rows": len(ids)}),
    ("hashta.model", "hamming_top_k_batch", "retrieval.hamming_top_k_batch",
     lambda q, keys, mask, k: _count_batch_topk(q, keys, mask, k)),
    ("hashta.model", "top_k_by_hamming", "retrieval.top_k_by_hamming",
     lambda q, keys, mask, k: _count_single_topk(q, keys, mask, k)),
    ("hashta.model", "mhta_with_cache", "attention.mhta_with_cache", None),
    ("hashta.model", "mhta_backward", "attention.mhta_backward", None),
)


def _owner(spec):
    module_name, _, attr = spec.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, attr, None) if attr else obj


def _wrap(tracer, fn, name, count):
    def traced(*args, **kwargs):
        counts = {}
        if count is not None:
            try:
                counts = count(*args, **kwargs)
            except (TypeError, AttributeError):  # signature changed: time it, count it apart
                counts = {"uncounted": 1}
        with tracer.span(name, **counts):
            return fn(*args, **kwargs)

    traced.__wrapped__ = fn
    return traced


class Hooks:
    """Context manager that wraps the hooked names while it is entered.

    Names are resolved once, so entering and leaving per traced request
    is cheap.  A hooked name that no longer exists is listed in
    ``absent``: a refactor that removes one is reported, not an error."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent = []
        self._targets = []
        for owner_spec, attr, name, count in _HOOKS:
            owner = _owner(owner_spec)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{owner_spec}.{attr}")
                continue
            self._targets.append((owner, attr, fn, _wrap(tracer, fn, name, count)))

    def __enter__(self):
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, fn, _ in self._targets:
            setattr(owner, attr, fn)
        return False
