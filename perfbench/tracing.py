"""Spans around tecsim's layer functions, recorded from the benchmark's side.

Each layer function is replaced, where its callers look it up, by a wrapper
that records a span: name, start, end, parent span and op id. Spans stay in
memory until the run ends. A layer's self time is its spans' duration minus
that of their wrapped children. Every replaced attribute is restored on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# span name -> every "module:attribute" through which tecsim or the benchmark calls it
LAYERS = {
    "rng.philox_generator": ("tecsim.rng:philox_generator", "tecsim.tec:philox_generator"),
    "tec.monte_carlo_sweep": ("tecsim.tec:monte_carlo_sweep",),
    "tec.simulate_trial": ("tecsim.tec:simulate_trial",),
    "tec.run_pattern": ("tecsim.tec:run_pattern",),
    "tec.sample_errors": ("tecsim.tec:sample_errors",),
    "tec.extract_syndrome": ("tecsim.tec:extract_syndrome",),
    "tec.decode_and_correct": ("tecsim.tec:decode_and_correct",),
    "tec.exact_enumeration": ("tecsim.tec:exact_enumeration",),
    "tableau.copy": ("tecsim.tableau:StabilizerTableau.copy",),
    "tableau.apply_gate": ("tecsim.tableau:StabilizerTableau.apply_gate",),
    "tableau.measure_x": ("tecsim.tableau:StabilizerTableau.measure_x",),
    "tableau.h": ("tecsim.tableau:StabilizerTableau.h",),
    "tableau.cz": ("tecsim.tableau:StabilizerTableau.cz",),
    "cluster.build_cluster": ("tecsim.cluster:build_cluster", "tecsim.tec:build_cluster"),
    "cluster.interaction_graph": (
        "tecsim.cluster:interaction_graph",
        "tecsim.tec:interaction_graph",
    ),
    "cluster.measure_all": ("tecsim.cluster:measure_all", "tecsim.tec:measure_all"),
    "dense.copy": ("tecsim.dense:StateVector.copy",),
    "dense.apply_gate": ("tecsim.dense:StateVector.apply_gate",),
    "dense.measure_pauli": ("tecsim.dense:StateVector.measure_pauli",),
    "dense.expectation_observable": (
        "tecsim.dense:expectation_observable",
        "tecsim.witness:expectation_observable",
    ),
    "witness.witness_expectation": ("tecsim.witness:witness_expectation",),
    "witness.setting_expectations": ("tecsim.witness:setting_expectations",),
    "witness.white_noise_model": ("tecsim.witness:white_noise_model",),
    "complexes.build_cuboid_complex": ("tecsim.complexes:build_cuboid_complex",),
    "complexes.closed_surface_summary": ("tecsim.complexes:closed_surface_summary",),
    "cli.main": ("tecsim.cli:main",),
}


def _witness_form(args, kwargs) -> str:
    method = kwargs.get("method", args[1] if len(args) > 1 else "projector")
    return f"witness.witness_expectation.{method}"


# layers whose spans are named after an argument: the two witness forms
_NAMERS = {"witness.witness_expectation": _witness_form}

SPAN_NAMES = tuple(
    name
    for layer in LAYERS
    for name in (
        (f"{layer}.projector", f"{layer}.settings") if layer in _NAMERS else (layer,)
    )
)


def _resolve(target: str):
    module, path = target.split(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def patched(make_wrapper, layers=LAYERS):
    """Replace each layer's attributes by ``make_wrapper(name, original)``; restore on exit."""
    saved = []
    try:
        for name, targets in layers.items():
            wrappers = {}  # one wrapper per distinct original, shared by its bindings
            for target in targets:
                owner, attr = _resolve(target)
                original = getattr(owner, attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = make_wrapper(name, original)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """Records one span per call of a wrapped layer function."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, namer = self.spans, self._stack, _NAMERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [namer(args, kwargs) if namer else name, 0.0, 0.0,
                    stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def installed(self):
        return patched(self.wrap)

    def totals(self, ops=None) -> dict[str, list]:
        """Per span name: [calls, inclusive seconds, self seconds], over the given op ids."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if ops is None or op in ops:
                entry = out.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += end - start
                entry[2] += end - start - child[i]
        return out
