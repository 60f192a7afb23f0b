import warnings

import numpy as np
import pytest

from breatherlab import experiments
from breatherlab.experiments import (ExperimentConfig, FamilyWindowError, parabola_vertex,
                                     run_stability)


def test_parabola_vertex_exact_on_a_parabola():
    f = lambda x: 2.0 * (x - 0.3) ** 2 + 1.0
    off, val = parabola_vertex(f(-1.0), f(0.0), f(1.0))
    assert off == pytest.approx(0.3, abs=1e-14)
    assert val == pytest.approx(1.0, abs=1e-14)


def test_parabola_vertex_flat_or_concave_keeps_centre():
    assert parabola_vertex(1.0, 1.0, 1.0) == (0.0, 1.0)
    assert parabola_vertex(0.0, 1.0, 0.5) == (0.0, 1.0)


def test_zero_perturbation_summary_has_no_division(chart8, V8):
    config = ExperimentConfig(eps=0.02, potential=V8, I_label=0.4, N=32, mu=0.0, T=1.0,
                              sample_stride=10, family_half_width=0.06, family_members=3,
                              family_phases=64, family_window=8, N_family=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        record = run_stability(config, chart8)
    assert np.isnan(record.summary["max_residual_l2_over_mu"])
    assert np.isfinite(record.summary["energy_rel_drift"])


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
