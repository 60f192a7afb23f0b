import time

import pytest

from breatherlab import cli


@pytest.mark.parametrize("command", ["propagate", "decay-fit", "vdc-check", "normal-form"])
def test_subcommand_passes_on_default_config(tmp_path, command):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("# defaults only\n")
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), command, "-c", str(cfg)]) == 0


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


def test_datum_string_is_split_into_pairs():
    state = cli._skew_datum({"datum": "1:1.0,2:0.6,3:0.25"}, 8, seed=1)
    assert [state.q[state.index(k)] for k in (1, 2, 3)] == [1.0, 0.6, 0.25]
    assert [state.q[state.index(-k)] for k in (1, 2, 3)] == [-1.0, -0.6, -0.25]
