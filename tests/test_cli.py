import ast
import re
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from breatherlab import breather as br
from breatherlab import cli
from breatherlab import experiments as ex
from breatherlab.csvio import read_state
from breatherlab.integrate import BlowupError


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


def test_stability_blowup_ends_with_one_line_and_exit_1(tmp_path, capsys, monkeypatch):
    def blow_up(config, chart):
        raise BlowupError("non-finite state at t=0.0")

    monkeypatch.setattr(ex, "run_stability", blow_up)
    cfg = tmp_path / "stab.cfg"
    cfg.write_text("mu = 0.001\nT = 1.0\nN = 64\n")
    code = cli.main(["--out-dir", str(tmp_path / "out"), "stability", "-c", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines() == ["stability: non-finite state at t=0.0", "FAIL"]
    assert captured.err == ""


def no_family(chart, config):
    raise br.ContinuationError("member I=0.38: full-period return defect 1e-10")


@pytest.mark.parametrize("command, text, patch, line", [
    # the section closes to about 1e-13, and no orbit closes to 1e-16
    (["breather", "find"], "N = 8\ntol = 1e-16\n", None,
     r"breather: member I=0\.4: full-period return defect \S+ at eps=0\.05 is not below "
     r"tol=1e-16"),
    (["stability"], "mu = 0.001\nT = 1.0\nN = 64\n", no_family,
     r"stability: member I=0\.38: full-period return defect 1e-10"),
    # three sites hold no localization fit
    (["breather", "find"], "N = 1\n", None,
     r"breather: fewer than 3 sites above the amplitude floor: 2 of the sites k != 0 above "
     r"1e-13, in member I=0\.4 at eps=0\.05"),
    # the central orbit needs more than 4 Fourier modes
    (["normal-form"], "M = 4\n", None,
     r"normal-form: central orbit Fourier tail 1\.54e-03 beyond \|n\|=4 at I=0\.32\d*"),
], ids=["breather-find", "stability", "breather-find-one-site", "normal-form-fourier-tail"])
def test_continuation_error_ends_with_one_line_and_exit_1(tmp_path, capsys, monkeypatch,
                                                          command, text, patch, line):
    if patch is not None:
        monkeypatch.setattr(ex, "build_family", patch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code = cli.main(["--out-dir", str(tmp_path / "out"), *command, "-c", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert len(captured.out.splitlines()) == 2
    assert re.fullmatch(line, captured.out.splitlines()[0])
    assert captured.out.splitlines()[1] == "FAIL"
    assert captured.err == ""


def test_stability_rejects_a_zero_stride_before_any_build(tmp_path, capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("family built before the config check")

    monkeypatch.setattr(ex, "build_family", no_build)
    cfg = tmp_path / "stab.cfg"
    cfg.write_text("mu = 0.001\nsample_stride = 0\nT = 1.0\nN = 64\n")
    code = cli.main(["--out-dir", str(tmp_path / "out"), "stability", "-c", str(cfg)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert err == ["error: sample_stride must be at least 1, got 0"]


def test_stability_rejects_an_unstable_dt_before_the_chart_build(tmp_path, capsys,
                                                                  monkeypatch):
    def no_chart(*args, **kwargs):
        raise AssertionError("chart built before the config check")

    monkeypatch.setattr(cli, "build_chart", no_chart)
    cfg = tmp_path / "stab.cfg"
    cfg.write_text("dt = 0.6\n")
    code = cli.main(["--out-dir", str(tmp_path / "out"), "stability", "-c", str(cfg)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert err == ["error: dt=0.6 violates the stability guard for eps=0.05"]


def test_stability_family_of_another_size_ends_with_one_error_line(tmp_path, capsys,
                                                                   monkeypatch):
    monkeypatch.setattr(ex, "build_family", lambda chart, config: SimpleNamespace(N_big=32))
    cfg = tmp_path / "stab.cfg"
    cfg.write_text("mu = 0.001\nT = 1.0\nN = 64\n")
    code = cli.main(["--out-dir", str(tmp_path / "out"), "stability", "-c", str(cfg)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert err == ["error: the family was built for N = 32, but the run has N = 64"]


@pytest.mark.parametrize("command, text, message", [
    (["propagate"], None, "No such file"),
    (["propagate"], "N 64\n", "bad config line"),
    (["decay-fit"], "norm = l3\n", "unknown norm 'l3'"),
    # reversed, the window sampled up to t = 4500, past the guard N/2 = 4095.5
    (["decay-fit"], "window_lo = 450\nwindow_hi = 10\n", "needs 0 < lo < hi, got 450..10"),
    (["decay-fit"], "n_samples = 1\n", "at least 2 samples, got n_samples=1"),
    # a negative eps made nu NaN: propagate blamed the datum's symmetry, and decay-fit
    # printed slope=+nan and FAIL
    (["propagate"], "eps = -1.0\n", "finite and at least 0, got eps=-1.0"),
    (["decay-fit"], "eps = -1.0\n", "finite and positive, got eps=-1.0"),
    (["vdc-check"], "lam_count = 1\n", "at least 2 lam values, got 1"),
    (["stability"], "mu = -0.01\n", "so at least 0; got -0.01"),
    # NaN, for which every comparison is false, used to pass each check and
    # end the run late: in round(T / dt), as a BlowupError or in np.arange
    (["stability"], "mu = 0.001\nT = 1\nN = 64\ndt = nan\n", "need dt > 0, got dt=nan"),
    (["stability"], "mu = 0.001\nT = nan\nN = 64\n", "T must be finite, got T=nan"),
    (["stability"], "mu = nan\nT = 1\nN = 64\n",
     "mu is the kick's l^2 size, so at least 0; got nan"),
    (["stability"], "eps = nan\nmu = 0.001\nT = 1\nN = 64\n",
     "eps must be positive and finite, got eps=nan"),
    # a negative eps made the default mu = eps^delta complex, and its check a TypeError
    (["stability"], "eps = -0.05\n", "eps must be positive and finite, got eps=-0.05"),
    # omega0(0.4) = 1.395 lies inside the phonon band, whose top is sqrt(3) at eps = 0.5
    (["breather", "find"], "eps = 0.5\n",
     "member I=0.4 has omega0(I)=1.39471, in the phonon band"),
    # one site, k = -1 alone: the lookup of site k = 0 found nothing (IndexError)
    (["resolvent-check"], "N = 1\n",
     "interior=40 does not fit inside the lattice of N=1 sites, which runs over k = -1..-1"),
    # one node made the Chebyshev grid divide by zero and the chart read I=nan
    (["normal-form"], "nodes = 1\n", "at least 2 Chebyshev nodes, got nodes=1"),
    # the datum's site 3 past the chain's end N = 2 was an IndexError traceback
    (["propagate"], "N = 2\n", "datum site k=3 is not one of the sites 0 < |k| <= N=2"),
    (["decay-fit"], "N = 2\n", "datum site k=3 is not one of the sites 0 < |k| <= N=2"),
    # site 0 set both q_0 = v and q_0 = -v, and the propagator blamed the symmetry
    (["propagate"], "datum = 0:1.0\n", "datum site k=0 is not one of the sites"),
    # eps = 0 ran the whole sweep, then the log-eps fit printed LAPACK errors
    (["normal-form"], "eps = 0.05, 0.0\n", "each eps must be finite and positive, got eps=0.0"),
    (["normal-form"], "eps = -0.05\n", "each eps must be finite and positive, got eps=-0.05"),
    # geomspace(-1, 1e4) warned, then the quadrature count was int(nan)
    (["vdc-check"], "lam_min = -1\n", "finite and positive, got lam_min=-1.0, lam_max=10000.0"),
    # a key no command read was dropped: the run kept lam_min = 100
    (["vdc-check"], "lam_mn = 1e3\n",
     "vdc-check has no setting 'lam_mn'; its settings are eps, lam_min, lam_max, lam_count"),
    (["propagate"], "residual_bound = 0\n", "propagate has no setting 'residual_bound'"),
    (["propagate"], "N = 64\nt = 5\nN = 32\n", "setting 'N' is given twice"),
    # an int setting read 64.5 as 64
    (["propagate"], "N = 64.5\n", "N = 64.5 is not of type int"),
    # r_max = 0 wrote an empty table and printed PASS
    (["normal-form"], "r_max = 0\n", "so at least 1; got r_max=0"),
    # one eps fitted no slope and printed PASS
    (["normal-form"], "eps = 0.05\n", "at least 2 eps values, got 1"),
    # the items of a list setting were read after the table, and their errors
    # named neither the setting nor the subcommand
    (["stability"], "potential = 8:x\n",
     "stability setting potential = 8:x: item '8:x' is not int:float"),
    (["propagate"], "datum = a:1\n", "propagate setting datum = a:1: item 'a:1' is not int:float"),
    (["decay-fit"], "norm = l2wx\n",
     "decay-fit setting norm = l2wx: weight 'x' of norm 'l2wx' is not a float"),
], ids=["missing-file", "line-without-equals", "unknown-norm", "reversed-decay-window",
        "one-decay-sample", "negative-propagate-eps", "negative-decay-eps", "one-lam-value",
        "negative-mu", "nan-dt", "nan-T", "nan-mu", "nan-eps", "negative-eps", "in-band-breather",
        "interior-past-the-lattice", "one-chebyshev-node", "propagate-datum-past-the-chain",
        "decay-datum-past-the-chain", "datum-at-site-0", "zero-normal-form-eps",
        "negative-normal-form-eps", "negative-lam-min", "unknown-vdc-key",
        "unknown-propagate-key", "repeated-key", "fractional-int", "zero-r-max",
        "one-normal-form-eps", "bad-potential-item", "bad-datum-item", "bad-norm-weight"])
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
    x0 = found[0][0].x0
    assert state.N == 12
    assert np.array_equal(state.p, x0.p) and np.array_equal(state.q, x0.q)


@pytest.mark.parametrize("text, tol", [("N = 12\ntol = 1e-9\n", 1e-9), ("N = 12\n", 1e-11)],
                         ids=["set", "default"])
def test_breather_find_applies_its_tol_key(tmp_path, monkeypatch, text, tol):
    applied = []
    continue_breather = br.continue_breather

    def keep(*args, **kwargs):
        applied.append(kwargs["tol"])
        return continue_breather(*args, **kwargs)

    monkeypatch.setattr(br, "continue_breather", keep)
    cfg = tmp_path / "find.cfg"
    cfg.write_text(text)
    assert cli.main(["--out-dir", str(tmp_path / "out"), "breather", "find", "-c", str(cfg)]) == 0
    assert applied == [tol]


def test_breather_csv_header_keeps_the_requested_label(tmp_path):
    # the label fixes the period; the central site's own action at the
    # section is a separate, smaller number once the coupling is on
    cfg = tmp_path / "find.cfg"
    cfg.write_text("N = 12\n")
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "breather", "find", "-c", str(cfg)]) == 0
    header = (out / "breather.csv").read_text().splitlines()[0]
    fields = dict(item.split("=") for item in header.lstrip("# ").split())
    assert float(fields["I_label"]) == 0.4
    assert 0.3 < float(fields["I_site0"]) < 0.4


def test_datum_string_is_split_into_pairs():
    state = cli._skew_datum("1:1.0,2:0.6,3:0.25", 8)
    assert [state.q[state.index(k)] for k in (1, 2, 3)] == [1.0, 0.6, 0.25]
    assert [state.q[state.index(-k)] for k in (1, 2, 3)] == [-1.0, -0.6, -0.25]


def test_propagate_self_check_sees_the_rounding_of_the_phase(tmp_path, capsys):
    # at t = 1e300 the phase nu t keeps no correct digit; the self check
    # S(t/2) S(t/2), an exact halving of that phase, printed PASS
    cfg = tmp_path / "prop.cfg"
    cfg.write_text("t = 1e300\n")
    assert cli.main(["--out-dir", str(tmp_path / "out"), "propagate", "-c", str(cfg)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL"


def settings_read(source: str) -> dict[str, set[str]]:
    """For each top-level function of the source, the constant keys of ``cfg[...]``
    that it reads, itself or through the functions of the source it calls."""
    funcs = {node.name: node for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef)}

    def reads(name, seen):
        seen.add(name)
        keys = set()
        for node in ast.walk(funcs[name]):
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                    and node.value.id == "cfg" and isinstance(node.slice, ast.Constant)):
                keys.add(node.slice.value)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in funcs and node.func.id not in seen):
                keys |= reads(node.func.id, seen)
        return keys

    return {name: reads(name, set()) for name in funcs}


def test_checker_collects_the_settings_a_command_reaches():
    src = ("def helper(cfg):\n    return cfg['a'] + other(cfg)\n\n"
           "def other(cfg):\n    return cfg['b'] + helper(cfg)\n\n"
           "def cmd(cfg):\n    x = {'c': 1}['c']\n    return helper(cfg) * cfg['d']\n")
    assert settings_read(src)["cmd"] == {"a", "b", "d"}


def test_each_settings_table_holds_the_keys_its_command_reads():
    # a setting that no command reads is dead; a key read without a default fails the run
    reads = settings_read(Path(cli.__file__).read_text())
    assert cli._SETTINGS.keys() == cli._COMMANDS.keys()
    assert {name: set(cli._SETTINGS[name]) for name in cli._COMMANDS} == {
        name: reads[command.__name__] for name, command in cli._COMMANDS.items()}
