"""Spans around the calls into breatherlab's modules, and the per-layer metrics.

The traced run replaces each function listed in ``TARGETS`` by a wrapper,
under the name its caller looks it up by: ``experiments.step_arrays`` for
the stepping that ``run_stability`` does, ``PotentialSpec.derivative`` for
every caller of the method.  A wrapper records one span (name, start, end,
parent span) in flat in-memory arrays; the spans are written out once, when
the run ends.  A span's self time is its duration minus that of its direct
children.

The benchmark opens a root span around each set-up repetition and each
round.  Per-layer metrics count the spans under the rounds and divide by
the number of rounds, except the set-up metrics, which average over the
spans under the set-up roots.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

from breatherlab import (breather, experiments, integrate, normalform, potential,
                         propagator)


def _poisson_counts(args, kwargs, result):
    f, g = args[0], args[1]
    return {"pairs": len(f.terms) * len(g.terms), "terms_out": len(result.terms)}


VDC_DEFAULT_RHO_POINTS = 181   # van_der_corput_check's grid when rho_grid is None


def _vdc_counts(args, kwargs, result):
    pieces = sum(len(p) for p in propagator.phase_intervals(kwargs["split"]).values())
    rho = kwargs.get("rho_grid")
    rho_points = VDC_DEFAULT_RHO_POINTS if rho is None else len(rho)
    return {"points": result.lam_grid.size * rho_points * pieces}


def _step_counts(args, kwargs, result):
    return {"site_steps": args[0].size}


# (span name, owner, attribute, counter): the owner is the module or class
# whose attribute the program's caller reads at call time
TARGETS = [
    ("potential.build_chart", potential, "build_chart", None),
    ("potential.derivative", potential.PotentialSpec, "derivative", None),
    ("lattice.coupling_force", integrate, "coupling_force", None),
    ("lattice.hamiltonian", experiments, "hamiltonian", None),
    ("lattice.norm", propagator, "norm", None),
    ("integrate.step", experiments, "step_arrays", _step_counts),
    ("breather.monodromy", breather, "monodromy", None),
    ("breather.flow_map", breather, "flow_map", None),
    ("breather.continue_breather", experiments, "continue_breather", None),
    ("experiments.build_family", experiments, "build_family", None),
    ("experiments.track_modulation", experiments, "track_modulation", None),
    ("experiments.run_stability", experiments, "run_stability", None),
    ("normalform.make_context", normalform, "make_context", None),
    ("normalform.build_initial", normalform, "build_initial", None),
    ("normalform.normalize", normalform, "normalize", None),
    ("normalform.poisson", normalform.GradedHamiltonian, "poisson", _poisson_counts),
    ("normalform.lie_transform", normalform, "lie_transform", None),
    ("normalform.solve_cohomological", normalform, "solve_cohomological", None),
    ("normalform.measure_scaled_norm", normalform, "measure_scaled_norm", None),
    ("propagator.van_der_corput_check", propagator, "van_der_corput_check", _vdc_counts),
    ("propagator.measure_decay", propagator, "measure_decay", None),
    ("propagator.forced_evolution", propagator, "forced_evolution", None),
    ("propagator.propagate_whole_chain", propagator, "propagate_whole_chain", None),
]


class Tracer:
    """In-memory span recorder; ``install`` wraps every target until ``uninstall``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: list[tuple[int, str, float]] = []   # (span, key, value)
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name, fn, counter=None):
        nid = self._id(name)

        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counters.append((i, key, float(value)))
            return result

        return traced

    def install(self):
        for name, owner, attr, counter in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            parent=np.frombuffer(self.parent, np.int32), start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            counter_span=np.array([c[0] for c in self.counters], dtype=np.int64),
            counter_key=np.array([c[1] for c in self.counters], dtype=str),
            counter_value=np.array([c[2] for c in self.counters]))

    def totals(self):
        """{(root name, span name): [calls, inclusive s, self s]} and counter sums."""
        name_id = np.frombuffer(self.name_id, np.int32)
        parent = np.frombuffer(self.parent, np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        root = np.where(has_parent, parent, np.arange(parent.size))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        root_name = name_id[root]
        table = {}
        for r, n, d, s in zip(root_name.tolist(), name_id.tolist(), dur.tolist(),
                              self_time.tolist()):
            row = table.setdefault((self.names[r], self.names[n]), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += d
            row[2] += s
        counts = {}
        for i, key, value in self.counters:
            k = (self.names[root_name[i]], self.names[name_id[i]], key)
            counts[k] = counts.get(k, 0.0) + value
        return table, counts


def per_layer_metrics(tracer: Tracer, traced_run_s: float, untraced_run_s: float) -> dict:
    """Every per-layer metric of the benchmark, in its own unit; 0 for an idle layer."""
    table, counts = tracer.totals()
    rounds = table.get(("bench.round", "bench.round"), [0])[0]

    def row(name, root="bench.round"):
        return table.get((root, name), [0, 0.0, 0.0])

    def per_round(name, col):
        return row(name)[col] / rounds

    def per_call(name, col=1, scale=1.0, root="bench.round"):
        calls, incl, own = row(name, root)
        return scale * (incl if col == 1 else own) / calls if calls else 0.0

    def count(name, key):
        return counts.get(("bench.round", name, key), 0.0)

    def rate(amount, name):
        spent = row(name)[1]
        return amount / spent if spent else 0.0

    return {
        "potential.build_chart_s": per_call("potential.build_chart", root="bench.setup"),
        "potential.derivative_calls": per_round("potential.derivative", 0),
        "potential.derivative_s": per_round("potential.derivative", 1),
        "lattice.coupling_force_us": per_call("lattice.coupling_force", scale=1e6),
        "lattice.hamiltonian_us": per_call("lattice.hamiltonian", scale=1e6),
        "lattice.norm_s": per_round("lattice.norm", 1),
        "integrate.steps": per_round("integrate.step", 0),
        "integrate.step_self_us": per_call("integrate.step", col=2, scale=1e6),
        "breather.monodromy_calls": per_round("breather.monodromy", 0),
        "breather.monodromy_s": per_round("breather.monodromy", 1),
        "breather.flow_map_calls": per_round("breather.flow_map", 0),
        "breather.flow_map_s": per_round("breather.flow_map", 1),
        "breather.continue_breather_self_s": per_round("breather.continue_breather", 2),
        "experiments.family_build_s": per_round("experiments.build_family", 1),
        "experiments.build_family_self_s": per_round("experiments.build_family", 2),
        "experiments.evolve_site_steps_per_s": rate(
            count("integrate.step", "site_steps"), "experiments.run_stability"),
        "experiments.track_modulation_calls": per_round("experiments.track_modulation", 0),
        "experiments.track_modulation_us": per_call("experiments.track_modulation", scale=1e6),
        "experiments.run_stability_self_s": per_round("experiments.run_stability", 2),
        "normalform.make_context_s": per_call("normalform.make_context", root="bench.setup"),
        "normalform.build_initial_s": per_round("normalform.build_initial", 1),
        "normalform.poisson_calls": per_round("normalform.poisson", 0),
        "normalform.poisson_s": per_round("normalform.poisson", 1),
        "normalform.poisson_pairs": count("normalform.poisson", "pairs") / rounds,
        "normalform.poisson_pairs_per_s": rate(count("normalform.poisson", "pairs"),
                                               "normalform.poisson"),
        "normalform.poisson_terms_out": count("normalform.poisson", "terms_out") / rounds,
        "normalform.lie_transform_calls": per_round("normalform.lie_transform", 0),
        "normalform.lie_transform_self_s": per_round("normalform.lie_transform", 2),
        "normalform.solve_cohomological_s": per_round("normalform.solve_cohomological", 1),
        "normalform.measure_scaled_norm_s": per_round("normalform.measure_scaled_norm", 1),
        "propagator.van_der_corput_check_s": per_round("propagator.van_der_corput_check", 1),
        "propagator.vdc_points_per_s": rate(count("propagator.van_der_corput_check", "points"),
                                            "propagator.van_der_corput_check"),
        "propagator.measure_decay_s": per_round("propagator.measure_decay", 1),
        "propagator.forced_evolution_s": per_round("propagator.forced_evolution", 1),
        "propagator.propagate_whole_chain_calls": per_round("propagator.propagate_whole_chain", 0),
        "propagator.propagate_whole_chain_us": per_call("propagator.propagate_whole_chain",
                                                        scale=1e6),
        "trace.run_s": traced_run_s,
        "trace.untraced_run_s": untraced_run_s,
        "trace.overhead_pct": 100.0 * (traced_run_s / untraced_run_s - 1.0),
    }
