"""Spans around the calls into each layer of `unicity`, taken from outside.

A Tracer replaces a function at the name its callers look it up by (a
module global such as `unicity.attack.mcmc_sweep`, or a class attribute
such as `KeySpace.sample`) with a wrapper that records one span per
call: name, start, end, parent span and thread id. Spans stay in memory
until the run writes them out. A name that no longer exists is reported
as absent, so the benchmark keeps running when a later change removes or
renames it, and a call whose arguments no longer fit its counter keeps
its span but loses its counts. `uninstall` puts every original back.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("cli", "lang", "cipher", "spurious", "channel", "attack", "kernels")


def _count_lookups(args, kwargs, result):
    return {"lookups": int(np.size(args[1]))}


def _count_mc_candidates(args, kwargs, result):
    return {"candidates": int(args[3]) * int(kwargs.get("keys_per_trial", 100))}


def _count_joint_support(args, kwargs, result):
    return {"support": int(result.msg_index.size)}


def _count_sweep(args, kwargs, result):
    steps = int(np.size(args[5]))
    return {"steps": steps, "window_scorings": steps * int(np.shape(args[0])[0])}


def _count_cells(args, kwargs, result):
    cells = int(np.shape(args[0])[0]) * int(np.shape(args[1])[0])
    return {"cells": cells, "bytes_out": cells * 8}


# (span name, "module:attribute path" of the owner of the looked-up name,
# attribute, counter or None). A span name appears once per call site:
# mcmc_crack is looked up both by the CLI (crack mode) and by attack's own
# trial runner (curve mode).
TARGETS = (
    ("cli.main", "unicity.cli", "main", None),
    ("lang.normalize_text", "unicity.cli", "normalize_text", None),
    ("lang.Alphabet.encode", "unicity.lang:Alphabet", "encode", None),
    ("lang.fit_ngram", "unicity.cli", "fit_ngram", None),
    ("cipher.KeySpace.mappings_array", "unicity.cipher:KeySpace", "mappings_array", None),
    ("cipher.KeySpace.sample", "unicity.cipher:KeySpace", "sample", None),
    ("spurious.build_toy_language", "unicity.cli", "build_toy_language", None),
    ("spurious.exhaustive_spurious_counts", "unicity.cli", "exhaustive_spurious_counts", None),
    ("spurious.ToyLanguage.contains_codes", "unicity.spurious:ToyLanguage", "contains_codes",
     _count_lookups),
    ("spurious.monte_carlo_spurious", "unicity.cli", "monte_carlo_spurious",
     _count_mc_candidates),
    ("channel.channel_report", "unicity.cli", "channel_report", None),
    ("channel.build_joint_distribution", "unicity.channel", "build_joint_distribution",
     _count_joint_support),
    ("channel.EncryptionChannelInstance.mutual_information",
     "unicity.channel:EncryptionChannelInstance", "mutual_information", None),
    ("attack.recovery_curve", "unicity.cli", "recovery_curve", None),
    ("attack.mcmc_crack", "unicity.cli", "mcmc_crack", None),
    ("attack.mcmc_crack", "unicity.attack", "mcmc_crack", None),
    ("kernels.mcmc_sweep", "unicity.attack", "mcmc_sweep", _count_sweep),
    ("kernels.apply_keys_encode", "unicity.spurious", "apply_keys_encode", _count_cells),
    ("kernels.apply_keys_encode", "unicity.channel", "apply_keys_encode", _count_cells),
)

# spans whose wrapper also records the traced allocation peak of the call
PEAK_MEMORY = {"channel.build_joint_distribution"}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    counts: dict


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_thread = threading.get_ident()
        self._root_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counter):
        tracer = self
        track_peak = name in PEAK_MEMORY

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # a span opened on a pool thread belongs to the call open on
            # the thread that started the run (recovery_curve's workers)
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._root_stack[-1] if tracer._root_stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            if track_peak:
                started_tracing = not tracemalloc.is_tracing()
                if started_tracing:
                    tracemalloc.start()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if track_peak:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    if started_tracing:
                        tracemalloc.stop()
            try:
                counts = counter(args, kwargs, result) if counter else {}
            except (IndexError, KeyError, TypeError, AttributeError):
                # the call's signature changed; keep the span, drop its counts
                counts = {}
                tracer.uncounted.add(name)
            if track_peak:
                counts["peak_bytes"] = peak
            tracer.spans.append(
                Span(span_id, name, start, end, parent, threading.get_ident(), counts)
            )
            return result

        return wrapper

    def install(self):
        for name, owner_path, attr, counter in TARGETS:
            module, _, inner = owner_path.partition(":")
            try:
                owner = importlib.import_module(module)
                for part in filter(None, inner.split(".")):
                    owner = getattr(owner, part)
            except (ImportError, AttributeError):
                owner = None
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(f"{name} ({owner_path}.{attr})")
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.
    Children on pool threads can overlap, so their union is taken."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures from one traced round's spans."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name):
        return sum(s.end - s.start for s in by_name[name])

    def self_total(name):
        return sum(own[s.id] for s in by_name[name])

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by_name[name])

    sweep_s = total("kernels.mcmc_sweep")
    steps = count("kernels.mcmc_sweep", "steps")
    curve_ids = {s.id for s in by_name["attack.recovery_curve"]}
    curve_s = total("attack.recovery_curve")
    trial_s = sum(s.end - s.start for s in by_name["attack.mcmc_crack"] if s.parent in curve_ids)
    joint_peaks = [s.counts["peak_bytes"] for s in by_name["channel.build_joint_distribution"]]

    out = {
        "cli.main.self_s": self_total("cli.main"),
        "lang.normalize_text.s": total("lang.normalize_text"),
        "lang.Alphabet.encode.s": total("lang.Alphabet.encode"),
        "lang.fit_ngram.s": total("lang.fit_ngram"),
        "cipher.KeySpace.mappings_array.s": total("cipher.KeySpace.mappings_array"),
        "cipher.KeySpace.sample.calls": len(by_name["cipher.KeySpace.sample"]),
        "cipher.KeySpace.sample.s": total("cipher.KeySpace.sample"),
        "spurious.build_toy_language.s": total("spurious.build_toy_language"),
        "spurious.exhaustive_spurious_counts.self_s": self_total(
            "spurious.exhaustive_spurious_counts"
        ),
        "spurious.ToyLanguage.contains_codes.s": total("spurious.ToyLanguage.contains_codes"),
        "spurious.ToyLanguage.contains_codes.lookups": count(
            "spurious.ToyLanguage.contains_codes", "lookups"
        ),
        "spurious.monte_carlo_spurious.self_s": self_total("spurious.monte_carlo_spurious"),
        "spurious.monte_carlo_spurious.candidates": count(
            "spurious.monte_carlo_spurious", "candidates"
        ),
        "channel.build_joint_distribution.self_s": self_total("channel.build_joint_distribution"),
        "channel.build_joint_distribution.peak_mib": max(joint_peaks, default=0) / 2**20,
        "channel.EncryptionChannelInstance.mutual_information.s": total(
            "channel.EncryptionChannelInstance.mutual_information"
        ),
        "channel.joint_support": count("channel.build_joint_distribution", "support"),
        "attack.mcmc_crack.self_s": self_total("attack.mcmc_crack"),
        "attack.recovery_curve.self_s": self_total("attack.recovery_curve"),
        "attack.recovery_curve.busy_ratio": trial_s / curve_s if curve_s else 0.0,
        "kernels.mcmc_sweep.s": sweep_s,
        "kernels.mcmc_sweep.steps": steps,
        "kernels.mcmc_sweep.us_per_step": sweep_s / steps * 1e6 if steps else 0.0,
        "kernels.mcmc_sweep.window_scorings": count("kernels.mcmc_sweep", "window_scorings"),
        "kernels.apply_keys_encode.s": total("kernels.apply_keys_encode"),
        "kernels.apply_keys_encode.calls": len(by_name["kernels.apply_keys_encode"]),
        "kernels.apply_keys_encode.cells": count("kernels.apply_keys_encode", "cells"),
        "kernels.apply_keys_encode.bytes_out": count("kernels.apply_keys_encode", "bytes_out"),
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer_self[s.name.split(".", 1)[0]] += own[s.id]
    for layer, value in layer_self.items():
        out[f"layer.{layer}.self_s"] = value
    return out
