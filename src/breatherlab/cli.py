"""Command line front end.

Every subcommand reads a plain-text config of ``key = value`` lines ('#' starts
a comment), writes CSV into --out-dir, and exits 0 only when the checks
configured for it pass.  ``_SETTINGS`` holds each subcommand's settings and
their defaults; a setting the file leaves out keeps its default.  Each value is
read as its default's type, a list default as comma-separated floats, and
``mu`` and ``T`` of ``stability``, which the run derives when they are absent,
as floats.  The potential and the datum are comma lists of degree:coefficient
and site:value pairs, and the decay norm is linf or l2w<s>.  Each of these
ends with one ``error:`` line on stderr and exit status 2: a line without '=',
a key the subcommand does not have, a key given twice, a value not of its
type, an item of the potential, the datum or the norm that does not read, and
a value the run rejects.

    breatherlab breather find -c find.cfg --out-dir out    # breather.csv
    breatherlab propagate -c prop.cfg                      # propagated.csv
    breatherlab decay-fit -c decay.cfg                     # decay.csv
    breatherlab vdc-check -c vdc.cfg                       # vdc.csv
    breatherlab resolvent-check -c res.cfg                 # resolvent.csv
    breatherlab normal-form -c nf.cfg                      # normal_form.csv
    breatherlab stability -c stab.cfg --seed 7             # stability_series.csv,
                                                           # stability_summary.csv
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import breather as br
from . import experiments as ex
from . import normalform as nf
from . import propagator as pr
from .csvio import write_table
from .integrate import BlowupError
from .lattice import LatticeState, norm
from .potential import PotentialSpec, action_of_point, build_chart

_CHART = {"potential": "8:1.0", "chart_I_min": 0.05, "chart_I_max": 0.8, "chart_grid": 256}
_DATUM = "1:1.0,2:0.6,3:0.25"
# the stability run's defaults, written once in ExperimentConfig
_RUN = {f.name: f.default for f in dataclasses.fields(ex.ExperimentConfig)}

# subcommand -> setting -> default
_SETTINGS = {
    "breather find": {**_CHART, "I_label": 0.4, "eps": 0.05, "N": 64, "tol": 1e-11,
                      "min_r2": 0.99},
    "propagate": {"N": 1024, "eps": 0.1, "t": 50.0, "datum": _DATUM, "group_tol": 1e-9},
    "decay-fit": {"N": 8191, "eps": 0.1, "window_lo": 10.0, "window_hi": 300.0,
                  "norm": "linf", "datum": _DATUM, "n_samples": 30, "slope_min": -0.40,
                  "slope_max": -0.28},
    "vdc-check": {"eps": 0.1, "lam_min": 1e2, "lam_max": 1e4, "lam_count": 9,
                  "split": "consistent", "tol_I1": 0.05, "tol_I2": 0.05},
    "resolvent-check": {"nu": 2 + 0.5j, "N": 256, "interior": 40, "tol": 1e-6},
    "normal-form": {**_CHART, "eps": [0.0125, 0.025, 0.05, 0.1], "I_lo": 0.32, "I_hi": 0.48,
                    "N": 8, "D": 4, "M": 24, "nodes": 12, "tail_tol": 1e-10, "r_max": 2,
                    "slope_tol": 0.15},
    "stability": {**_CHART, "eps": 0.05, "I_label": 0.4,
                  **{key: _RUN[key] for key in ("N", "delta", "mu", "T", "dt", "sample_stride")},
                  "shape": _RUN["perturbation_shape"], "residual_bound": 5.0,
                  "drift_bound": 10.0, "energy_tol": 1e-7},
}


def _read(key: str, text: str, default):
    kind = float if default is None else type(default)
    try:
        return [float(part) for part in text.split(",")] if kind is list else kind(text)
    except ValueError:
        name = "a comma list of floats" if kind is list else f"of type {kind.__name__}"
        raise ValueError(f"{key} = {text} is not {name}") from None


def _pairs(text: str) -> list[tuple[int, float]]:
    """The items k:v of a comma list as (int k, float v); v is 1.0 when left out."""
    pairs = []
    for item in text.split(","):
        k, _, v = item.partition(":")
        try:
            pairs.append((int(k), float(v or "1.0")))
        except ValueError:
            raise ValueError(f"item {item.strip()!r} is not int:float") from None
    return pairs


def _norm(text: str) -> tuple[float, float | None]:
    """(r, s) of the decay norm: linf, or l2w<s> with s = -3 when left out."""
    if text == "linf":
        return np.inf, None
    if text.startswith("l2w"):
        try:
            return 2.0, float(text[3:] or -3.0)
        except ValueError:
            raise ValueError(f"weight {text[3:]!r} of norm {text!r} is not a float") from None
    raise ValueError(f"unknown norm {text!r}")


# str settings whose items the run reads, checked as the file is read
_ITEMS = {"potential": _pairs, "datum": _pairs, "norm": _norm}


def parse_config(path, command: str) -> dict:
    """The settings of the subcommand: its defaults, with the values the file gives."""
    table, given = _SETTINGS[command], {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in table:
                raise ValueError(f"{command} has no setting {key!r}; its settings are "
                                 f"{', '.join(table)}")
            if key in given:
                raise ValueError(f"setting {key!r} is given twice")
            given[key] = _read(key, text, table[key])
            if key in _ITEMS:
                try:
                    _ITEMS[key](given[key])
                except ValueError as exc:
                    raise ValueError(f"{command} setting {key} = {text}: {exc}") from None
    return {**table, **given}


def parse_potential(text: str) -> PotentialSpec:
    """potential = 8:1.0[,10:0.5]; min_degree is 8 when every degree is >= 8, else 4."""
    coeffs = _pairs(text)
    return PotentialSpec(tuple(coeffs), 8 if min(d for d, _ in coeffs) >= 8 else 4)


def _write_state(path, state: LatticeState, comment: str | None = None):
    write_table(path, ["k", "p_k", "q_k"], zip(state.sites(), state.p, state.q), comment)


def _chart_for(cfg, V):
    return build_chart(V, cfg["chart_I_min"], cfg["chart_I_max"], n_grid=cfg["chart_grid"])


def _skew_datum(text: str, N: int) -> LatticeState:
    state = LatticeState.zeros(N)
    for k, v in _pairs(text):
        if not 0 < abs(k) <= N:
            raise ValueError(f"datum site k={k} is not one of the sites 0 < |k| <= N={N} "
                             f"that a skew datum sets")
        state.q[N + k], state.q[N - k] = v, -v
        state.p[N + k], state.p[N - k] = 0.5 * v, -0.5 * v
    return state


def cmd_breather_find(cfg, out_dir, seed) -> bool:
    V = parse_potential(cfg["potential"])
    chart = _chart_for(cfg, V)
    I, eps = cfg["I_label"], cfg["eps"]
    b, = br.continue_breather(chart, [I], eps, cfg["N"], tol=cfg["tol"])
    try:
        beta_hat, r2 = br.localization_rate(b.orbit)
    except br.LocalizationError as exc:
        raise br.LocalizationError(f"{exc}, in member I={I:g} at eps={eps:g}") from None
    # the label fixes the period 2 pi / omega0(I_label); the central site's
    # own action at the section sits below it once the coupling is on
    I_site0 = action_of_point(chart, 0.0, float(b.x0.q[b.x0.index(0)]))
    path = os.path.join(out_dir, "breather.csv")
    _write_state(path, b.x0, comment=f"I_label={b.I_label!r} I_site0={I_site0!r} "
                 f"eps={b.eps!r} T={b.period!r} beta_hat={beta_hat!r} defect={b.defect!r}")
    print(f"breather: defect={b.defect:.3e} beta_hat={beta_hat:.3f} R2={r2:.4f} -> {path}")
    return r2 > cfg["min_r2"]


def cmd_propagate(cfg, out_dir, seed) -> bool:
    eps, t = cfg["eps"], cfg["t"]
    state = _skew_datum(cfg["datum"], cfg["N"])
    moved = pr.propagate_whole_chain(state, t, eps)
    path = os.path.join(out_dir, "propagated.csv")
    _write_state(path, moved)
    # group-property self check: S(t) = S(t - s) S(s) with s = t/3; the exact
    # halving s = t/2 would hide the rounding of the phase nu t
    s = t / 3
    two = pr.propagate_whole_chain(pr.propagate_whole_chain(state, s, eps), t - s, eps)
    err = norm(moved - two, 2)
    print(f"propagate: t={t} group-defect={err:.3e} -> {path}")
    return err < cfg["group_tol"]


def cmd_decay_fit(cfg, out_dir, seed) -> bool:
    # N only sets the boundary guard t < N/2; the transforms run on the sites the
    # datum can reach by the window's end (propagator._cone), whatever N is
    eps, kind = cfg["eps"], cfg["norm"]
    window = (cfg["window_lo"], cfg["window_hi"])
    r_exp, s = _norm(kind)
    state = _skew_datum(cfg["datum"], cfg["N"])
    fit = pr.measure_decay(state, eps, r_exp, s, window, n_samples=cfg["n_samples"])
    rows = [(et / eps, et, v) for et, v in zip(fit.eps_t, fit.values)]
    rows.append(("slope", fit.slope, f"window {window[0]}..{window[1]}"))
    write_table(os.path.join(out_dir, "decay.csv"), ["t", "eps_t", "norm"], rows)
    lo, hi = cfg["slope_min"], cfg["slope_max"]
    print(f"decay-fit: norm={kind} slope={fit.slope:+.4f} band [{lo}, {hi}]")
    return lo <= fit.slope <= hi


def cmd_vdc_check(cfg, out_dir, seed) -> bool:
    ends, split = (cfg["lam_min"], cfg["lam_max"]), cfg["split"]
    if not all(0.0 < lam < np.inf for lam in ends):
        raise ValueError(f"the lam grid is geometric, so its ends must be finite and positive, "
                         f"got lam_min={ends[0]!r}, lam_max={ends[1]!r}")
    lams = np.geomspace(*ends, cfg["lam_count"])
    res = pr.van_der_corput_check(cfg["eps"], lams, split=split)
    rows = [(l, a, b) for l, a, b in zip(res.lam_grid, res.sup_I1, res.sup_I2)]
    rows.append(("slopes", res.slope_I1, res.slope_I2))
    write_table(os.path.join(out_dir, "vdc.csv"), ["lambda", "sup_I1", "sup_I2"], rows)
    ok1 = abs(res.slope_I1 + 0.5) <= cfg["tol_I1"]
    ok2 = abs(res.slope_I2 + 1.0 / 3.0) <= cfg["tol_I2"]
    print(f"vdc-check ({split}): slope_I1={res.slope_I1:+.4f} "
          f"slope_I2={res.slope_I2:+.4f}")
    return ok1 and ok2


def cmd_resolvent_check(cfg, out_dir, seed) -> bool:
    nu, n, interior = cfg["nu"], cfg["N"], cfg["interior"]
    ks = np.arange(-n // 2, n // 2)
    if not 0 <= interior < n // 2:
        raise ValueError(f"interior={interior} does not fit inside the lattice of N={n} sites, "
                         f"which runs over k = {-n // 2}..{n // 2 - 1}")
    L = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    e = np.zeros(n)
    e[np.where(ks == 0)[0][0]] = 1.0
    col = np.linalg.solve(L - nu * np.eye(n), e.astype(complex))
    sel = np.abs(ks) <= interior
    kern = np.array([pr.resolvent_kernel(nu, int(k), 0) for k in ks[sel]])
    err = float(np.max(np.abs(kern - col[sel])))
    rows = [(int(k), v.real, v.imag) for k, v in zip(ks[sel], kern)]
    rows.append(("max_error", err, ""))
    write_table(os.path.join(out_dir, "resolvent.csv"), ["k", "re", "im"], rows)
    tol = cfg["tol"]
    print(f"resolvent-check: nu={nu} max_error={err:.3e} tol={tol}")
    return err < tol


def cmd_normal_form(cfg, out_dir, seed) -> bool:
    eps_list, r_max, tol = cfg["eps"], cfg["r_max"], cfg["slope_tol"]
    for eps in eps_list:
        if not 0.0 < eps < np.inf:
            raise ValueError(f"the residual slopes are fitted in log eps, so each eps must be "
                             f"finite and positive, got eps={eps!r}")
    if len(eps_list) < 2:
        raise ValueError(f"the residual slopes are fitted in log eps, so they need at least "
                         f"2 eps values, got {len(eps_list)}")
    if r_max < 1:
        raise ValueError(f"r_max is the number of normal-form steps, so at least 1; "
                         f"got r_max={r_max}")
    V = parse_potential(cfg["potential"])
    chart = _chart_for(cfg, V)
    ctx = nf.make_context(chart, V, N=cfg["N"], D=cfg["D"], M=cfg["M"],
                          I_span=(cfg["I_lo"], cfg["I_hi"]), n_nodes=cfg["nodes"],
                          tail_tol=cfg["tail_tol"])
    results = [nf.normalize(nf.build_initial(ctx, eps), r_max=r_max) for eps in eps_list]
    rows = [(eps, rec.step, rec.residual_norm, rec.h_norm, rec.Z_norm, rec.min_divisor,
             rec.dropped) for eps, res in zip(eps_list, results) for rec in res.records]
    write_table(os.path.join(out_dir, "normal_form.csv"),
                ["eps", "step", "residual_norm", "h_norm", "Z_norm",
                 "min_divisor", "dropped"], rows)
    ok = True
    for step in range(1, r_max + 1):
        vals = [res.records[step - 1].residual_norm for res in results]
        slope = float(np.polyfit(np.log(eps_list), np.log(vals), 1)[0])
        target = (step + 1) / 2.0
        print(f"normal-form: step {step} residual slope {slope:+.3f} "
              f"target {target} +- {tol}")
        if step <= 2:
            ok = ok and abs(slope - target) <= tol
    return ok


def cmd_stability(cfg, out_dir, seed) -> bool:
    V = parse_potential(cfg["potential"])
    config = ex.ExperimentConfig(
        eps=cfg["eps"], potential=V, I_label=cfg["I_label"], seed=seed, N=cfg["N"],
        delta=cfg["delta"], mu=cfg["mu"], T=cfg["T"], dt=cfg["dt"],
        perturbation_shape=cfg["shape"], sample_stride=cfg["sample_stride"])
    record = ex.run_stability(config, _chart_for(cfg, V))
    tolerances = {
        "max_residual_l2_over_mu": cfg["residual_bound"],
        "I_drift": cfg["drift_bound"] * config.mu ** 2 / np.sqrt(config.eps),
        "energy_rel_drift": cfg["energy_tol"],
    }
    _, _, ok = ex.emit_report(record, out_dir, tolerances)
    print(f"stability: drift={record.I_drift:.3e} "
          f"max|res|/mu={record.summary['max_residual_l2_over_mu']:.3f} "
          f"energy drift={record.summary['energy_rel_drift']:.2e}")
    return ok


_COMMANDS = {
    "breather find": cmd_breather_find,
    "propagate": cmd_propagate,
    "decay-fit": cmd_decay_fit,
    "vdc-check": cmd_vdc_check,
    "resolvent-check": cmd_resolvent_check,
    "normal-form": cmd_normal_form,
    "stability": cmd_stability,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="breatherlab", description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out-dir", default="out")
    sub = parser.add_subparsers(dest="command", required=True)
    breather_sub = sub.add_parser("breather").add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = breather_sub.add_parser("find") if name == "breather find" else sub.add_parser(name)
        p.add_argument("-c", "--config", required=True)
    args = parser.parse_args(argv)
    name = "breather find" if args.command == "breather" else args.command
    # OSError: the config or the output directory; ValueError: the package's rejection
    # of a value (config line, norm, ExperimentConfig, chart range); the rest: a failed run
    try:
        cfg = parse_config(args.config, name)
        os.makedirs(args.out_dir, exist_ok=True)
        ok = _COMMANDS[name](cfg, args.out_dir, args.seed)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (br.ContinuationError, br.LocalizationError, nf.FourierTailError,
            ex.FamilyWindowError, BlowupError) as exc:
        print(f"{args.command}: {exc}")
        ok = False
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
