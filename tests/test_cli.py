import time

import numpy as np
import pytest

from breatherlab import breather as br
from breatherlab import cli
from breatherlab import experiments as ex
from breatherlab.csvio import read_state


@pytest.mark.parametrize("command", [
    pytest.param(["propagate"], id="propagate"),
    pytest.param(["decay-fit"], id="decay-fit"),
    pytest.param(["vdc-check"], id="vdc-check"),
    pytest.param(["normal-form"], id="normal-form"),
    pytest.param(["breather", "find"], id="breather-find"),
    pytest.param(["resolvent-check"], id="resolvent-check"),
])
def test_subcommand_passes_on_default_config(tmp_path, command):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("# defaults only\n")
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), *command, "-c", str(cfg)]) == 0


def test_stability_default_config_fails_fast_with_a_message(tmp_path, capsys):
    # mu = eps^0.6 = 0.166 moves the central action by up to 0.27, far past the
    # default family's +- 0.02; the run must say so before building the family
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("# defaults only\n")
    t0 = time.perf_counter()
    code = cli.main(["--out-dir", str(tmp_path / "out"), "stability", "-c", str(cfg)])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 1
    assert "beyond the family half-width 0.02" in out
    assert out.rstrip().endswith("FAIL")
    assert elapsed < 10.0


def test_stability_config_keeps_the_experiment_defaults(tmp_path, monkeypatch):
    seen = []

    def no_run(config, chart):
        seen.append(config)
        raise ex.FamilyWindowError("not run")

    monkeypatch.setattr(ex, "run_stability", no_run)
    cfg = tmp_path / "stab.cfg"
    cfg.write_text("T = 5\nshape = uniform\n")
    assert cli.main(["--out-dir", str(tmp_path / "out"), "stability", "-c", str(cfg)]) == 1
    config, = seen
    expected = ex.ExperimentConfig(eps=0.05, potential=config.potential, I_label=0.4,
                                   T=5.0, perturbation_shape="uniform")
    assert config == expected
    assert config.sample_stride == 50


@pytest.mark.parametrize("command, text, message", [
    (["propagate"], None, "No such file"),
    (["propagate"], "N 64\n", "bad config line"),
    (["decay-fit"], "norm = l3\n", "unknown norm 'l3'"),
], ids=["missing-file", "line-without-equals", "unknown-norm"])
def test_bad_input_ends_with_one_error_line(tmp_path, capsys, command, text, message):
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_text(text)
    code = cli.main(["--out-dir", str(tmp_path / "out"), *command, "-c", str(cfg)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


def test_breather_csv_reads_back_the_section_bit_for_bit(tmp_path, monkeypatch):
    found = []
    continue_breather = br.continue_breather

    def keep(*args, **kwargs):
        found.append(continue_breather(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(br, "continue_breather", keep)
    cfg = tmp_path / "find.cfg"
    cfg.write_text("N = 12\n")
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "breather", "find", "-c", str(cfg)]) == 0
    state = read_state(out / "breather.csv")
    x0 = found[0].x0
    assert state.N == 12 and state.include_site0
    assert np.array_equal(state.p, x0.p) and np.array_equal(state.q, x0.q)


def test_datum_string_is_split_into_pairs():
    state = cli._skew_datum({"datum": "1:1.0,2:0.6,3:0.25"}, 8, seed=1)
    assert [state.q[state.index(k)] for k in (1, 2, 3)] == [1.0, 0.6, 0.25]
    assert [state.q[state.index(-k)] for k in (1, 2, 3)] == [-1.0, -0.6, -0.25]
