"""Outside-in span tracing of the ftqec layers.

``traced(tracer)`` replaces the public functions and methods listed in
``TARGETS`` with wrappers that record one span per call (layer name, start,
end, parent span, run id) plus a few counters, and puts the originals back
on exit.  Nothing under ``src/`` is edited; the wrappers are installed on
the module and class attributes that the library itself looks up at call
time.  Spans stay in memory until ``write_spans`` dumps them.

A layer's self time is its span duration minus the time covered by its
direct child spans; children never overlap because the library is
single-threaded at ``workers=1``.
"""
from __future__ import annotations

import gzip
import inspect
import time
from array import array
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """In-memory span store with per-layer aggregates."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("l")
        self.parent = array("l")
        self.run = array("l")
        self.start = array("q")
        self.end = array("q")
        self.run_id = 0
        self._stack: list[int] = []      # open span indices
        self._child_ns: list[int] = []   # time covered by each open span's children
        self.reset_aggregates()

    def reset_aggregates(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.counts: Counter = Counter()

    def aggregates(self) -> dict:
        return {"calls": self.calls, "self_ns": self.self_ns,
                "total_ns": self.total_ns, "counts": self.counts}

    def current_layer(self) -> str | None:
        return self.layers[self.layer[self._stack[-1]]] if self._stack else None

    def call(self, layer: str, fn, args, kwargs):
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        idx = len(self.start)
        self.layer.append(lid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self._child_ns.append(0)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            child = self._child_ns.pop()
            self.start[idx] = t0
            self.end[idx] = t1
            dur = t1 - t0
            self.calls[layer] += 1
            self.self_ns[layer] += dur - child
            self.total_ns[layer] += dur
            if self._child_ns:
                self._child_ns[-1] += dur

    def span_count(self) -> int:
        return len(self.start)

    def write_spans(self, path) -> None:
        """Gzipped CSV, one span per line: index, layer, parent, run, start, end."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("span,layer,parent,run,start_ns,end_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.layers[self.layer[i]]},{self.parent[i]},"
                         f"{self.run[i]},{self.start[i]},{self.end[i]}\n")


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _bound(sig: inspect.Signature, args, kwargs) -> dict:
    b = sig.bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


# -- counter hooks: (tracer, signature, args, kwargs, result) -> None --------

def _count_attempt(tr, sig, args, kwargs, verified):
    mask = _bound(sig, args, kwargs)["mask"]
    tr.counts["prep.attempts"] += 1
    tr.counts["prep.lanes"] += _popcount(mask)
    tr.counts["prep.verified"] += _popcount(verified & mask)


def _count_extract(tr, sig, args, kwargs, syndromes):
    mask = _bound(sig, args, kwargs)["mask"]
    lanes = [l for l in range(64) if (mask >> l) & 1]
    tr.counts["extract.calls"] += 1
    tr.counts["extract.lanes"] += len(lanes)
    tr.counts["extract.nonzero"] += sum(1 for l in lanes if syndromes[l])


def _count_judge(tr, sig, args, kwargs, accepted):
    tr.counts["judge.accepted"] += accepted is not None


def _count_recover(tr, sig, args, kwargs, result):
    tr.counts["recover.lanes"] += _popcount(_bound(sig, args, kwargs)["mask"])


def _count_bprime(tr, sig, args, kwargs, result):
    if tr.current_layer() == "analytic.solve_beta":
        tr.counts["solve_beta.bprime"] += 1


def _count_surface(tr, sig, args, kwargs, surface):
    tr.counts["surface.cells"] += len(surface.cells)


# (module path, class or None, attribute, layer, hook)
TARGETS = [
    ("codes", None, "construct_code", "codes.construct", None),
    ("codes", None, "standard_form", "codes.standard_form", None),
    ("codes", "CosetDecoder", "__init__", "codes.decoder_build", None),
    ("codes", "CosetDecoder", "leader_weight", "codes.decode", None),
    ("codes", "CosetDecoder", "leader_vector", "codes.decode", None),
    ("network", None, "synthesize_networks", "network.synthesize", None),
    ("simulator", "SimEngine", "__init__", "simulator.engine_init", None),
    ("simulator", "SimEngine", "prepare_verified", "simulator.prep", None),
    ("simulator", "SimEngine", "attempt_preparation", "simulator.prep", _count_attempt),
    ("simulator", "SimEngine", "couple_and_measure", "simulator.extract", _count_extract),
    ("simulator", "SimEngine", "data_syndromes", "simulator.data_syndromes", None),
    ("simulator", None, "judge_syndromes", "simulator.judge", _count_judge),
    ("simulator", None, "recover_block", "simulator.recover", _count_recover),
    ("simulator", None, "run_batch", "simulator.batch", None),
    ("simulator", None, "estimate_pbar_mc", "simulator.driver", None),
    ("analytic", None, "optimize_protocol", "analytic.optimize", None),
    ("analytic", None, "crash_estimate", "analytic.crash_estimate", None),
    ("analytic", None, "solve_beta", "analytic.solve_beta", None),
    ("analytic", None, "uncorrectable_tail", "analytic.tail", None),
    ("analytic", None, "bprime", "analytic.bprime", _count_bprime),
    ("analytic", None, "binom_pmf", "analytic.binom_pmf", None),
    # concat binds binom_pmf by name at import time
    ("concat", None, "binom_pmf", "analytic.binom_pmf", None),
    ("concat", None, "level_trace", "concat.level_trace", None),
    ("concat", None, "concat_estimate", "concat.concat_estimate", None),
    ("concat", None, "threshold", "concat.threshold", None),
    ("sweep", None, "build_surface", "sweep.build_surface", _count_surface),
]


def _wrap(tracer: Tracer, fn, layer: str, hook):
    sig = inspect.signature(fn) if hook is not None else None

    def wrapper(*args, **kwargs):
        out = tracer.call(layer, fn, args, kwargs)
        if hook is not None:
            hook(tracer, sig, args, kwargs, out)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def traced(tracer: Tracer, package):
    """Install the wrappers on ``package``'s modules; restore them on exit."""
    saved = []
    try:
        for mod_name, cls_name, attr, layer, hook in TARGETS:
            owner = getattr(package, mod_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, layer, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def wrappers_removed(package) -> bool:
    """True when no traced attribute still holds a wrapper."""
    for mod_name, cls_name, attr, _, _ in TARGETS:
        owner = getattr(package, mod_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        if hasattr(vars(owner)[attr], "__wrapped__"):
            return False
    return True


# -- per-layer metrics -------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ops: dict, setup: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the timed-operation and set-up aggregates."""
    calls, self_ns, total_ns, c = (ops["calls"], ops["self_ns"],
                                   ops["total_ns"], ops["counts"])

    def self_s(layer):
        return (self_ns[layer] / 1e9, "s")

    def setup_total_s(layer):
        return (setup["total_ns"][layer] / 1e9, "s")

    m = {
        "simulator.prep.calls": (c["prep.attempts"], "count"),
        "simulator.prep.lanes": (c["prep.lanes"], "count"),
        "simulator.prep.lane_fill": (_ratio(c["prep.lanes"], 64 * c["prep.attempts"]), "ratio"),
        "simulator.prep.verified_ratio": (_ratio(c["prep.verified"], c["prep.lanes"]), "ratio"),
        "simulator.prep.self_s": self_s("simulator.prep"),
        "simulator.extract.calls": (c["extract.calls"], "count"),
        "simulator.extract.lanes": (c["extract.lanes"], "count"),
        "simulator.extract.lane_fill": (_ratio(c["extract.lanes"], 64 * c["extract.calls"]), "ratio"),
        "simulator.extract.nonzero_ratio": (_ratio(c["extract.nonzero"], c["extract.lanes"]), "ratio"),
        "simulator.extract.per_recovery": (_ratio(c["extract.lanes"], c["recover.lanes"]), "ratio"),
        "simulator.extract.self_s": self_s("simulator.extract"),
        "simulator.judge.calls": (calls["simulator.judge"], "count"),
        "simulator.judge.accept_ratio": (_ratio(c["judge.accepted"], calls["simulator.judge"]), "ratio"),
        "simulator.judge.self_s": self_s("simulator.judge"),
        "codes.decode.calls": (calls["codes.decode"], "count"),
        "codes.decode.self_s": self_s("codes.decode"),
        "simulator.recover.calls": (calls["simulator.recover"], "count"),
        "simulator.recover.lanes": (c["recover.lanes"], "count"),
        "simulator.recover.self_s": self_s("simulator.recover"),
        "simulator.batch.self_s": self_s("simulator.batch"),
        "simulator.data_syndromes.self_s": self_s("simulator.data_syndromes"),
        "simulator.driver.self_s": self_s("simulator.driver"),
        # set-up layers: inclusive time of the cold build before the timed ops
        "codes.construct_s": setup_total_s("codes.construct"),
        "codes.standard_form_s": setup_total_s("codes.standard_form"),
        "codes.decoder_build_s": setup_total_s("codes.decoder_build"),
        "network.synthesize_s": setup_total_s("network.synthesize"),
        "simulator.engine_init.self_s": (setup["self_ns"]["simulator.engine_init"] / 1e9, "s"),
        # builds inside the timed operations; must stay 0
        "simulator.engine_init.timed_calls": (calls["simulator.engine_init"], "count"),
    }
    for short, layer in (("optimize", "analytic.optimize"),
                         ("crash_estimate", "analytic.crash_estimate"),
                         ("solve_beta", "analytic.solve_beta"),
                         ("tail", "analytic.tail"),
                         ("bprime", "analytic.bprime"),
                         ("binom_pmf", "analytic.binom_pmf")):
        m[f"analytic.{short}.calls"] = (calls[layer], "count")
        m[f"analytic.{short}.self_s"] = self_s(layer)
    m["analytic.solve_beta.iterations"] = (c["solve_beta.bprime"] // 2, "count")
    m["concat.level_trace.calls"] = (calls["concat.level_trace"], "count")
    m["concat.level_trace.self_s"] = self_s("concat.level_trace")
    m["concat.concat_estimate.calls"] = (calls["concat.concat_estimate"], "count")
    m["concat.concat_estimate.self_s"] = self_s("concat.concat_estimate")
    m["sweep.build_surface.self_s"] = self_s("sweep.build_surface")
    m["sweep.cells"] = (c["surface.cells"], "count")
    return m
