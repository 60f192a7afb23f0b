import csv
import dataclasses
import re
import warnings

import numpy as np
import pytest

from breatherlab import experiments, integrate
from breatherlab.breather import continue_breather, flow_map, orbit_defect
from breatherlab.experiments import (ExperimentConfig, FamilyWindowError, build_family,
                                     emit_report, perturb, run_stability, track_modulation)
from breatherlab.integrate import BlowupError
from breatherlab.lattice import LatticeState


@pytest.fixture(scope="module")
def tracker_family(chart8, V8):
    """9 members over I = 0.4 +- 0.02 (spacing 0.005), continued on |k| <= 16."""
    config = ExperimentConfig(eps=0.05, potential=V8, I_label=0.4, N=32, mu=0.0, T=4.0,
                              sample_stride=1, family_window=16, N_family=16)
    return config, build_family(chart8, config)


def orbit_points(chart, V, I, n_phases):
    """Breather at label I, its section flowed by DOP853 to the phases 2 pi j / n_phases."""
    b, = continue_breather(chart, [I], 0.05, 16)
    y = flow_map(b.x0, V, 0.05, b.period, t_eval=b.period * np.arange(n_phases) / n_phases).y
    return [experiments._embed(LatticeState(16, *np.split(col, 2)), 32) for col in y.T]


def test_tracker_error_falls_with_the_integrator_step(chart8, tracker_family):
    # at mu = 0 the state leaves the family only by yoshida4's O(dt^4) error, so
    # a tracker that adds none of its own reads 16 times less at half the step
    config, family = tracker_family
    errors = []
    for dt in (0.02, 0.01):
        record = run_stability(dataclasses.replace(config, dt=dt), chart8, family)
        errors.append(np.max(np.abs(record.I_bar - 0.4)))
    assert errors[0] < 3e-7 and errors[0] >= 12.0 * errors[1], errors


def test_tracker_recovers_orbit_points_between_the_nodes(chart8, V8, tracker_family):
    # I = 0.4025 lies midway between two members, and the phases 2 pi j / 7 lie
    # between the family's 256 phase nodes
    config, family = tracker_family
    for j, x in enumerate(orbit_points(chart8, V8, 0.4025, 7)):
        tr = track_modulation(x.p, x.q, family, config.N)
        assert abs(tr.I_bar - 0.4025) <= 1e-9
        assert abs(np.angle(np.exp(1j * (tr.phase - 2.0 * np.pi * j / 7)))) <= 1e-8
        assert np.sqrt(tr.dist2) <= 1e-9


def test_state_beyond_the_last_member_is_rejected(chart8, V8, tracker_family):
    config, family = tracker_family
    x = orbit_points(chart8, V8, 0.43, 2)[1]
    with pytest.raises(FamilyWindowError, match="left the family"):
        track_modulation(x.p, x.q, family, config.N)


def test_family_built_for_another_lattice_size_is_rejected(chart8, tracker_family,
                                                          monkeypatch):
    # the sections and the tracker's window are placed by N, so a family built
    # at N = 32 must not be run at N = 16
    config, family = tracker_family

    def no_sample(*args, **kwargs):
        raise AssertionError("sampled before the lattice size check")

    monkeypatch.setattr(experiments, "track_modulation", no_sample)
    with pytest.raises(ValueError, match="built for N = 32, but the run has N = 16"):
        run_stability(dataclasses.replace(config, N=16), chart8, family)


@pytest.fixture(scope="module")
def zero_mu_record(chart8, V8):
    """A short mu = 0 run; any RuntimeWarning in it is an error."""
    config = ExperimentConfig(eps=0.02, potential=V8, I_label=0.4, N=32, mu=0.0, T=1.0,
                              sample_stride=10, family_half_width=0.06, family_members=3,
                              family_phases=64, family_window=8, N_family=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return run_stability(config, chart8)


def test_zero_perturbation_summary_has_no_division(zero_mu_record):
    assert np.isnan(zero_mu_record.summary["max_residual_l2_over_mu"])
    assert np.isfinite(zero_mu_record.summary["energy_rel_drift"])


def test_emit_report_writes_the_series_and_each_check(zero_mu_record, tmp_path):
    record = zero_mu_record
    drift = record.summary["I_drift"]
    series, summary, ok = emit_report(record, tmp_path / "report",
                                      {"I_drift": drift, "energy_rel_drift": 0.0})
    assert not ok
    with open(series, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "eps_t", "I_bar", "phase", "residual_l2", "dist_lr", "energy"]
    assert len(rows) - 1 == len(record.times)
    assert [float(v) for v in rows[-1][:3]] == [record.times[-1],
                                                0.02 * record.times[-1], record.I_bar[-1]]
    with open(summary, newline="") as fh:
        values = dict(list(csv.reader(fh))[1:])
    assert values["pass_I_drift"] == "True"
    assert values["pass_energy_rel_drift"] == "False"
    assert float(values["I_drift"]) == drift
    _, _, ok = emit_report(record, tmp_path / "report", {"I_drift": drift})
    assert ok


def test_support_cut_leaves_the_stability_series_unchanged(chart8, V8, monkeypatch):
    # a kicked run on 1025 sites steps at most 60 % of them; with a zero
    # support floor the kernel steps the whole chain, and the sampled series agree
    config = ExperimentConfig(eps=0.05, potential=V8, I_label=0.4, N=512, mu=0.01, T=20.0,
                              sample_stride=25, family_half_width=0.06, family_members=3,
                              family_phases=64, family_window=8, N_family=8)
    family = build_family(chart8, config)
    sizes = []          # sites per rotation, the stepped support
    drot = integrate.drot

    def recorded(x, y, c, s, n, *args):
        sizes.append(n)
        return drot(x, y, c, s, n, *args)

    monkeypatch.setattr(integrate, "drot", recorded)
    cut = run_stability(config, chart8, family)
    assert max(sizes) < 0.6 * 1025
    monkeypatch.setattr(integrate, "_EPS2", 0.0)
    sizes.clear()
    full = run_stability(config, chart8, family)
    assert min(sizes) == 1025
    for name in ("I_bar", "residual_l2", "energy"):
        a, b = getattr(cut, name), getattr(full, name)
        assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b)), name


def test_run_stability_steps_once_per_step_of_the_run(chart8, tracker_family, monkeypatch):
    # one kernel call per sampling stride, the last one cut to the steps left,
    # and a sample after each
    config, family = tracker_family
    config = dataclasses.replace(config, T=1.01, dt=0.03, sample_stride=7)
    calls = []
    step = experiments.step_arrays

    def counting(*args):
        calls.append(args[4:])
        step(*args)

    monkeypatch.setattr(experiments, "step_arrays", counting)
    record = run_stability(config, chart8, family)
    assert calls == [(0.03, 7)] * 4 + [(0.03, 6)]
    assert sum(n for _, n in calls) == round(1.01 / 0.03)
    assert record.times == pytest.approx(0.03 * np.array([0, 7, 14, 21, 28, 34]))


def test_run_stability_stops_on_a_non_finite_state(chart8, tracker_family, monkeypatch):
    # the second stride of 3 steps leaves an infinite momentum; the sample after
    # it must stop the run before the tracker reads the state
    config, family = tracker_family
    config = dataclasses.replace(config, sample_stride=3)
    calls = []
    step = experiments.step_arrays

    def poisoned(p, q, *args):
        step(p, q, *args)
        calls.append(args[-1])
        if len(calls) == 2:
            p[config.N] = np.inf

    monkeypatch.setattr(experiments, "step_arrays", poisoned)
    with pytest.raises(BlowupError, match=r"^non-finite state at t=0\.12$"):
        run_stability(config, chart8, family)
    assert calls == [3, 3]


def test_unknown_perturbation_shape_is_rejected(V8):
    with pytest.raises(ValueError, match="unknown perturbation shape 'localised'"):
        ExperimentConfig(eps=0.05, potential=V8, I_label=0.4, perturbation_shape="localised")
    ExperimentConfig(eps=0.05, potential=V8, I_label=0.4, perturbation_shape="uniform")


def test_perturb_rejects_an_unknown_shape():
    x = LatticeState.zeros(4)
    with pytest.raises(ValueError, match="unknown perturbation shape 'localised'"):
        perturb(x, 0.01, "localised")


def test_family_members_equal_one_member_solves(chart8, V8):
    # the members are solved together, each as its own block of the Newton
    config = ExperimentConfig(eps=0.05, potential=V8, I_label=0.4, N=20,
                              family_half_width=0.06, family_members=3, family_phases=16,
                              family_window=8, N_family=16)
    family = build_family(chart8, config)
    I_values = np.linspace(0.4 - 0.06, 0.4 + 0.06, 3)
    assert np.array_equal(family.I_values, I_values)
    for m, I in enumerate(I_values):
        b, = continue_breather(chart8, [I], 0.05, 16)
        expected = experiments._embed(b.x0, config.N)
        assert np.max(np.abs(family.sections[m].q - expected.q)) < 1e-12
        assert np.max(np.abs(family.sections[m].p - expected.p)) < 1e-12
        assert family.omega[m] == 2.0 * np.pi / b.period


def test_family_next_to_the_phonon_band_closes(chart8, V8):
    # omega0(0.195) = 1.0984 lies 0.3 % above the band's top 1.0954 at eps = 0.05
    config = ExperimentConfig(eps=0.05, potential=V8, I_label=0.2, N=64,
                              family_half_width=0.005, N_family=32, family_window=16)
    family = build_family(chart8, config)
    near = slice(64 - 32, 64 + 32 + 1)
    for section, omega in zip(family.sections, family.omega):
        x = LatticeState(32, section.p[near], section.q[near])
        assert orbit_defect(x, V8, 0.05, 2.0 * np.pi / omega) < 1e-11


def test_family_reaching_into_the_phonon_band_is_rejected(chart8, V8):
    # the lowest member, I = 0.18, has omega0 = 1.0812 < sqrt(1 + 4 * 0.05)
    config = ExperimentConfig(eps=0.05, potential=V8, I_label=0.2, N=64, N_family=16,
                              family_window=16)
    with pytest.raises(ValueError, match=r"member I=0.18 has omega0\(I\)=1.0812"):
        build_family(chart8, config)


def test_kick_past_the_family_edge_is_rejected_before_the_family_build(chart8, V8,
                                                                       monkeypatch):
    # mu max|grad I| = 0.05 * 1.63 = 0.081 at I = 0.4 exceeds the half-width 0.06
    def no_build(*args, **kwargs):
        raise AssertionError("family built before the window check")

    monkeypatch.setattr(experiments, "build_family", no_build)
    config = ExperimentConfig(eps=0.05, potential=V8, I_label=0.4, N=64, mu=0.05, T=1.0,
                              family_half_width=0.06)
    with pytest.raises(FamilyWindowError, match="mu max\\|grad I\\| = 0.08"):
        run_stability(config, chart8)


@pytest.mark.parametrize("fields, message", [
    (dict(sample_stride=0), "sample_stride must be at least 1, got 0"),
    (dict(sample_stride=-5), "sample_stride must be at least 1, got -5"),
    (dict(T=0.0), "T = 0 is shorter than one step dt = 0.02"),
    (dict(T=0.01), "T = 0.01 is shorter than one step dt = 0.02"),
    (dict(N=32, N_family=64), "need family_window <= N_family <= N, got 32, 64, 32"),
    (dict(family_window=32, N_family=16), "need family_window <= N_family <= N, got 32, 16"),
    (dict(family_members=2), "family_members must be at least 3, got 2"),
    (dict(family_members=1), "family_members must be at least 3, got 1"),
    (dict(family_members=4), "family_members must be odd, so that a member sits at "
                             "I_label; got 4"),
    (dict(mu=-0.5), "mu is the kick's l^2 size, so at least 0; got -0.5"),
], ids=["stride-zero", "stride-negative", "T-zero", "T-below-dt", "N-below-N_family",
        "window-beyond-N_family", "members-two", "members-one", "members-even", "mu-negative"])
def test_config_rejects_a_run_that_would_crash_late(V8, fields, message):
    # each of these used to pass the constructor and fail after the family build:
    # ZeroDivisionError, IndexError in the Cauchy tails, a numpy broadcast error,
    # and FamilyWindowError, as fewer than 3 members start the run on an end
    # member; an even count started it silently off I_label.  A negative mu
    # made the up-front window shift negative, so the run failed late in the
    # tracker, and max_residual_l2_over_mu negative, so its check passed any residual
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(eps=0.05, potential=V8, I_label=0.4, **{"mu": 0.001, **fields})
    ExperimentConfig(eps=0.05, potential=V8, I_label=0.4, mu=0.001, N=64, T=0.02,
                     sample_stride=1, family_window=64, N_family=64)
