import csv
import warnings

import numpy as np
import pytest

from breatherlab import experiments
from breatherlab.experiments import (ExperimentConfig, FamilyWindowError, emit_report,
                                     parabola_vertex, run_stability)


def test_parabola_vertex_exact_on_a_parabola():
    f = lambda x: 2.0 * (x - 0.3) ** 2 + 1.0
    off, val = parabola_vertex(f(-1.0), f(0.0), f(1.0))
    assert off == pytest.approx(0.3, abs=1e-14)
    assert val == pytest.approx(1.0, abs=1e-14)


def test_parabola_vertex_flat_or_concave_keeps_centre():
    assert parabola_vertex(1.0, 1.0, 1.0) == (0.0, 1.0)
    assert parabola_vertex(0.0, 1.0, 0.5) == (0.0, 1.0)


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
    assert rows[0] == ["t", "eps_t", "I_bar", "phase", "residual_l2", "dist_l2",
                       "dist_lr", "energy"]
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


def test_unknown_perturbation_shape_is_rejected(V8):
    with pytest.raises(ValueError, match="unknown perturbation shape 'localised'"):
        ExperimentConfig(eps=0.05, potential=V8, I_label=0.4, perturbation_shape="localised")
    ExperimentConfig(eps=0.05, potential=V8, I_label=0.4, perturbation_shape="uniform")


def test_kick_past_the_family_edge_is_rejected_before_the_family_build(chart8, V8,
                                                                       monkeypatch):
    # mu max|grad I| = 0.05 * 1.63 = 0.081 at I = 0.4 exceeds the half-width 0.06
    def no_build(*args, **kwargs):
        raise AssertionError("family built before the window check")

    monkeypatch.setattr(experiments, "build_family", no_build)
    config = ExperimentConfig(eps=0.05, potential=V8, I_label=0.4, N=32, mu=0.05, T=1.0,
                              family_half_width=0.06)
    with pytest.raises(FamilyWindowError, match="mu max\\|grad I\\| = 0.08"):
        run_stability(config, chart8)
