"""Command line front end.

Every subcommand reads a plain-text config of ``key = value`` lines (numbers,
comma lists, and degree:coefficient pairs for potentials; '#' starts a
comment), writes CSV into --out-dir, and exits 0 only when the checks
configured for it pass.  A config that cannot be read or holds a bad value
ends with one ``error:`` line on stderr and exit status 2.

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
import os
import sys

import numpy as np

from . import breather as br
from . import experiments as ex
from . import normalform as nf
from . import propagator as pr
from .csvio import write_table
from .integrate import BlowupError
from .lattice import LatticeState, PolynomialWeight, norm
from .potential import PotentialSpec, action_of_point, build_chart


def _coerce(text: str):
    s = text.strip()
    if "," in s:
        return [_coerce(part) for part in s.split(",")]
    low = s.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    for caster in (int, float, complex):
        try:
            return caster(s)
        except ValueError:
            continue
    return s


def parse_config(path) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = _coerce(value)
    return out


def parse_potential(cfg: dict) -> PotentialSpec:
    """potential = 8:1.0[,10:0.5]  plus optional min_degree = 4|8."""
    spec = cfg.get("potential", "8:1.0")
    if isinstance(spec, str):
        pairs = [spec]
    elif isinstance(spec, list):
        pairs = [str(p) for p in spec]
    else:
        pairs = [str(spec)]
    coeffs = []
    for pair in pairs:
        deg, _, coef = pair.partition(":")
        coeffs.append((int(deg), float(coef or "1.0")))
    min_degree = int(cfg.get("min_degree", 8 if min(d for d, _ in coeffs) >= 8 else 4))
    return PotentialSpec(tuple(coeffs), min_degree)


def _write_state(path, state: LatticeState, comment: str | None = None):
    write_table(path, ["k", "p_k", "q_k"], zip(state.sites(), state.p, state.q), comment)


def _chart_for(cfg, V):
    return build_chart(V, cfg.get("chart_I_min", 0.05), cfg.get("chart_I_max", 0.8),
                       n_grid=int(cfg.get("chart_grid", 256)))


def _skew_datum(cfg, N) -> LatticeState:
    state = LatticeState.zeros(N)
    spec = cfg.get("datum", "1:1.0,2:0.6,3:0.25")
    pairs = spec if isinstance(spec, list) else str(spec).split(",")
    for pair in pairs:
        k, _, v = str(pair).partition(":")
        k, v = int(k), float(v or "1.0")
        state.q[state.index(k)] = v
        state.q[state.index(-k)] = -v
        state.p[state.index(k)] = 0.5 * v
        state.p[state.index(-k)] = -0.5 * v
    return state


def cmd_breather_find(cfg, out_dir, seed) -> bool:
    V = parse_potential(cfg)
    chart = _chart_for(cfg, V)
    I = float(cfg.get("I_label", 0.4))
    eps = float(cfg.get("eps", 0.05))
    N = int(cfg.get("N", 64))
    b, = br.continue_breather(chart, [I], eps, N, tol=float(cfg.get("tol", 1e-11)))
    # the label fixes the period 2 pi / omega0(I_label); the central site's
    # own action at the section sits below it once the coupling is on
    I_site0 = action_of_point(chart, 0.0, float(b.x0.q[b.x0.index(0)]))
    path = os.path.join(out_dir, "breather.csv")
    _write_state(path, b.x0, comment=f"I_label={b.I_label!r} I_site0={I_site0!r} "
                 f"eps={b.eps!r} T={b.period!r} beta_hat={b.beta_hat!r} defect={b.defect!r}")
    print(f"breather: defect={b.defect:.3e} beta_hat={b.beta_hat:.3f} "
          f"R2={b.fit_residual:.4f} -> {path}")
    return b.fit_residual > float(cfg.get("min_r2", 0.99))


def cmd_propagate(cfg, out_dir, seed) -> bool:
    N = int(cfg.get("N", 1024))
    eps = float(cfg.get("eps", 0.1))
    t = float(cfg.get("t", 50.0))
    state = _skew_datum(cfg, N)
    moved = pr.propagate_whole_chain(state, t, eps)
    path = os.path.join(out_dir, "propagated.csv")
    _write_state(path, moved)
    # group-property self check: S(t) = S(t/2) S(t/2)
    two = pr.propagate_whole_chain(pr.propagate_whole_chain(state, t / 2, eps),
                                   t / 2, eps)
    err = norm(moved - two, 2)
    print(f"propagate: t={t} group-defect={err:.3e} -> {path}")
    return err < float(cfg.get("group_tol", 1e-9))


def cmd_decay_fit(cfg, out_dir, seed) -> bool:
    # N + 1 = 2^13: the DST-I of N points is a transform of length 2(N + 1),
    # which pocketfft runs without its Bluestein path (12x faster than N = 8192)
    N = int(cfg.get("N", 8191))
    eps = float(cfg.get("eps", 0.1))
    window = (float(cfg.get("window_lo", 10.0)), float(cfg.get("window_hi", 300.0)))
    kind = str(cfg.get("norm", "linf"))
    if kind == "linf":
        r_exp, weight = np.inf, None
    elif kind.startswith("l2w"):
        s = float(kind[3:] or -3.0)
        r_exp, weight = 2.0, PolynomialWeight(s)
    else:
        raise ValueError(f"unknown norm {kind!r}")
    state = _skew_datum(cfg, N)
    fit = pr.measure_decay(state, eps, r_exp, weight, window,
                           n_samples=int(cfg.get("n_samples", 30)))
    rows = [(et / eps, et, v) for et, v in zip(fit.eps_t, fit.values)]
    rows.append(("slope", fit.slope, f"window {window[0]}..{window[1]}"))
    write_table(os.path.join(out_dir, "decay.csv"), ["t", "eps_t", "norm"], rows)
    lo = float(cfg.get("slope_min", -0.40))
    hi = float(cfg.get("slope_max", -0.28))
    print(f"decay-fit: norm={kind} slope={fit.slope:+.4f} band [{lo}, {hi}]")
    return lo <= fit.slope <= hi


def cmd_vdc_check(cfg, out_dir, seed) -> bool:
    eps = float(cfg.get("eps", 0.1))
    lams = np.geomspace(float(cfg.get("lam_min", 1e2)), float(cfg.get("lam_max", 1e4)),
                        int(cfg.get("lam_count", 9)))
    split = str(cfg.get("split", "consistent"))
    res = pr.van_der_corput_check(eps, lams, split=split)
    rows = [(l, a, b) for l, a, b in zip(res.lam_grid, res.sup_I1, res.sup_I2)]
    rows.append(("slopes", res.slope_I1, res.slope_I2))
    write_table(os.path.join(out_dir, "vdc.csv"), ["lambda", "sup_I1", "sup_I2"], rows)
    ok1 = abs(res.slope_I1 + 0.5) <= float(cfg.get("tol_I1", 0.05))
    ok2 = abs(res.slope_I2 + 1.0 / 3.0) <= float(cfg.get("tol_I2", 0.05))
    print(f"vdc-check ({split}): slope_I1={res.slope_I1:+.4f} "
          f"slope_I2={res.slope_I2:+.4f}")
    return ok1 and ok2


def cmd_resolvent_check(cfg, out_dir, seed) -> bool:
    nu = complex(cfg.get("nu", 2 + 0.5j))
    n = int(cfg.get("N", 256))
    interior = int(cfg.get("interior", 40))
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
    tol = float(cfg.get("tol", 1e-6))
    print(f"resolvent-check: nu={nu} max_error={err:.3e} tol={tol}")
    return err < tol


def cmd_normal_form(cfg, out_dir, seed) -> bool:
    nodes = int(cfg.get("nodes", 12))
    if nodes < 2:
        raise ValueError(f"the action grid needs at least 2 Chebyshev nodes, got nodes={nodes}")
    V = parse_potential(cfg)
    chart = _chart_for(cfg, V)
    span = (float(cfg.get("I_lo", 0.32)), float(cfg.get("I_hi", 0.48)))
    ctx = nf.make_context(chart, V, N=int(cfg.get("N", 8)), D=int(cfg.get("D", 4)),
                          M=int(cfg.get("M", 24)), I_span=span,
                          n_nodes=nodes,
                          tail_tol=float(cfg.get("tail_tol", 1e-10)))
    eps_list = cfg.get("eps", [0.0125, 0.025, 0.05, 0.1])
    if not isinstance(eps_list, list):
        eps_list = [eps_list]
    r_max = int(cfg.get("r_max", 2))

    results = [(float(eps), nf.normalize(nf.build_initial(ctx, float(eps)), r_max=r_max))
               for eps in eps_list]
    rows = []
    for eps, res in results:
        for rec in res.records:
            rows.append((eps, rec.step, rec.residual_norm, rec.h_norm,
                         rec.Z_norm, rec.min_divisor, rec.dropped))
    write_table(os.path.join(out_dir, "normal_form.csv"),
                ["eps", "step", "residual_norm", "h_norm", "Z_norm",
                 "min_divisor", "dropped"], rows)
    ok = True
    if len(results) >= 2:
        egrid = np.array([e for e, _ in results])
        for step in range(1, r_max + 1):
            vals = np.array([res.records[step - 1].residual_norm
                             for _, res in results])
            slope = float(np.polyfit(np.log(egrid), np.log(vals), 1)[0])
            target = (step + 1) / 2.0
            tol = float(cfg.get("slope_tol", 0.15))
            print(f"normal-form: step {step} residual slope {slope:+.3f} "
                  f"target {target} +- {tol}")
            if step <= 2:
                ok = ok and abs(slope - target) <= tol
    return ok


# config key -> (ExperimentConfig field, type); an absent key keeps the field's default
_STABILITY_KEYS = {
    "N": ("N", int), "delta": ("delta", float), "mu": ("mu", float), "T": ("T", float),
    "dt": ("dt", float), "shape": ("perturbation_shape", str),
    "sample_stride": ("sample_stride", int),
}


def cmd_stability(cfg, out_dir, seed) -> bool:
    V = parse_potential(cfg)
    config = ex.ExperimentConfig(
        eps=float(cfg.get("eps", 0.05)), potential=V,
        I_label=float(cfg.get("I_label", 0.4)), seed=seed,
        **{name: cast(cfg[key]) for key, (name, cast) in _STABILITY_KEYS.items()
           if key in cfg})
    record = ex.run_stability(config, _chart_for(cfg, V))
    tolerances = {
        "max_residual_l2_over_mu": float(cfg.get("residual_bound", 5.0)),
        "I_drift": float(cfg.get("drift_bound", 10.0)) * config.mu ** 2
        / np.sqrt(config.eps),
        "energy_rel_drift": float(cfg.get("energy_tol", 1e-7)),
    }
    _, _, ok = ex.emit_report(record, out_dir, tolerances)
    print(f"stability: drift={record.I_drift:.3e} "
          f"max|res|/mu={record.summary['max_residual_l2_over_mu']:.3f} "
          f"energy drift={record.summary['energy_rel_drift']:.2e}")
    return ok


_COMMANDS = {
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
    breather_cmd = sub.add_parser("breather")
    breather_sub = breather_cmd.add_subparsers(dest="subcommand", required=True)
    find = breather_sub.add_parser("find")
    find.add_argument("-c", "--config", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", required=True)
    args = parser.parse_args(argv)
    command = cmd_breather_find if args.command == "breather" else _COMMANDS[args.command]
    # OSError: the config or the output directory; ValueError: the package's rejection
    # of a value (config line, norm, ExperimentConfig, chart range); the rest: a failed run
    try:
        cfg = parse_config(args.config)
        os.makedirs(args.out_dir, exist_ok=True)
        ok = command(cfg, args.out_dir, args.seed)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (br.ContinuationError, ex.FamilyWindowError, BlowupError) as exc:
        print(f"{args.command}: {exc}")
        ok = False
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
