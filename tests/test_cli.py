import pytest

from breatherlab import cli


@pytest.mark.parametrize("command", ["propagate", "decay-fit", "vdc-check"])
def test_subcommand_passes_on_default_config(tmp_path, command):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("# defaults only\n")
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), command, "-c", str(cfg)]) == 0


def test_datum_string_is_split_into_pairs():
    state = cli._skew_datum({"datum": "1:1.0,2:0.6,3:0.25"}, 8, seed=1)
    assert [state.q[state.index(k)] for k in (1, 2, 3)] == [1.0, 0.6, 0.25]
    assert [state.q[state.index(-k)] for k in (1, 2, 3)] == [-1.0, -0.6, -0.25]
