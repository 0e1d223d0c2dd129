"""Configuration-driven command line front end.

Experiments are described by flat ``key = value`` text files (``#`` starts
a comment).  Unknown keys, duplicate keys, type errors, and missing
required keys are all collected and reported together; nothing is written
unless the whole configuration validates and the computation finishes.
Outputs are a fixed-column CSV per experiment plus a JSON summary embedding
the fully resolved configuration (defaults included), so a run can be
reproduced from its summary alone.  Floats are printed with 17 significant
digits; identical configuration and seed give byte-identical files
regardless of worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, _rng, boltzmann_process, kinetic_solver, lorentz_sim
from . import medium, operators


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


_REQUIRED = object()


@dataclass(frozen=True)
class _Key:
    typ: str  # int | float | str | floats
    default: object = _REQUIRED


_COMMON = {"kind": _Key("str", None)}

SCHEMAS: dict[str, dict[str, _Key]] = {
    "msd": {
        **_COMMON,
        "eps": _Key("float"), "mu": _Key("float"), "eta": _Key("float"),
        "b": _Key("float", 0.0), "t_grid": _Key("floats"),
        "n_replicas": _Key("int"), "seed": _Key("int"),
        "k_max_leaves": _Key("int", lorentz_sim.DEFAULT_K_MAX_LEAVES),
        "max_events": _Key("int", lorentz_sim.DEFAULT_MAX_EVENTS),
    },
    "scaling-study": {
        **_COMMON,
        "eps_list": _Key("floats"), "mu": _Key("float"), "b": _Key("float"),
        "t": _Key("float"), "n_replicas": _Key("int"), "seed": _Key("int"),
        "eta": _Key("float", None),
        "eta_coeff": _Key("float", None), "eta_exponent": _Key("float", None),
        "k_max_leaves": _Key("int", lorentz_sim.DEFAULT_K_MAX_LEAVES),
        "max_events": _Key("int", lorentz_sim.DEFAULT_MAX_EVENTS),
    },
    "green-kubo": {
        **_COMMON,
        "mu": _Key("float"), "period": _Key("float"),
        "n_paths": _Key("int"), "t_cut": _Key("float"),
        "dt_quad": _Key("float"), "seed": _Key("int"),
    },
    "operator-sweep": {
        **_COMMON,
        "mu": _Key("float"), "b_min": _Key("float", 0.0),
        "b_max": _Key("float"), "b_step": _Key("float"),
        "m_modes": _Key("int", 64), "quadrature_order": _Key("int", 256),
    },
    "kinetic": {
        **_COMMON,
        "mu": _Key("float"), "b": _Key("float"), "eta": _Key("float"),
        "t_end": _Key("float"), "dt": _Key("float", None),
        "l_box": _Key("float", 2.0 * math.pi), "n_x": _Key("int", 2),
        "n_v": _Key("int", 32), "rho_amplitude": _Key("float", 0.5),
        "rho_mode": _Key("int", 1), "angle_amplitude": _Key("float", 0.0),
    },
    "hilbert": {
        **_COMMON,
        "mu": _Key("float"), "b": _Key("float"), "eta_list": _Key("floats"),
        "t_probe": _Key("float"), "l_box": _Key("float", 2.0 * math.pi),
        "n_x": _Key("int", 2), "n_v": _Key("int", 32),
        "rho_amplitude": _Key("float", 0.5), "rho_mode": _Key("int", 1),
        "angle_amplitude": _Key("float", 0.0), "dt_safety": _Key("float", 0.1),
    },
    "circling": {
        **_COMMON,
        "eps": _Key("float"), "mu": _Key("float"), "eta": _Key("float"),
        "b": _Key("float"), "n_fields": _Key("int"), "n_paths": _Key("int"),
        "seed": _Key("int"),
    },
}


def _parse_scalar(typ: str, raw: str):
    if typ == "int":
        return int(raw)
    if typ == "float":
        return float(raw)
    if typ == "floats":
        items = [part.strip() for part in raw.split(",") if part.strip()]
        if not items:
            raise ValueError("empty list")
        return [float(x) for x in items]
    return raw


def validate(text: str, kind: str) -> dict:
    """Parse and fully resolve a configuration; raise ConfigError otherwise."""
    if kind not in SCHEMAS:
        raise ConfigError([f"unknown experiment kind '{kind}'"])
    schema = SCHEMAS[kind]
    errors: list[str] = []
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            errors.append(f"line {lineno}: expected 'key = value'")
            continue
        key, value = (part.strip() for part in body.split("=", 1))
        if key in raw:
            errors.append(f"duplicate key '{key}'")
            continue
        raw[key] = value
    config: dict = {}
    for key, value in raw.items():
        spec = schema.get(key)
        if spec is None:
            errors.append(f"unknown key '{key}' for kind '{kind}'")
            continue
        try:
            config[key] = _parse_scalar(spec.typ, value)
        except ValueError:
            errors.append(f"key '{key}': cannot parse {value!r} as {spec.typ}")
    for key, spec in schema.items():
        if key in config:
            continue
        if spec.default is _REQUIRED:
            errors.append(f"missing required key '{key}'")
        elif spec.default is not None or key == "kind":
            config[key] = spec.default
    if config.get("kind") not in (None, kind):
        errors.append(
            f"config kind '{config['kind']}' does not match subcommand '{kind}'")
    config["kind"] = kind
    errors.extend(_semantic_errors(kind, config))
    if errors:
        raise ConfigError(errors)
    return {k: config[k] for k in schema if k in config}


def _semantic_errors(kind: str, config: dict) -> list[str]:
    errs = []

    def positive(*names):
        for name in names:
            v = config.get(name)
            if v is not None and not (isinstance(v, (int, float)) and v > 0):
                errs.append(f"key '{name}' must be positive")

    def nonnegative(*names):
        for name in names:
            v = config.get(name)
            if v is not None and v < 0:
                errs.append(f"key '{name}' must be nonnegative")

    if kind in ("msd", "scaling-study"):
        positive("max_events")
        nonnegative("k_max_leaves")
    if kind == "msd":
        positive("eps", "mu", "eta", "n_replicas")
        nonnegative("b")
        grid = config.get("t_grid")
        if grid is not None and (any(t <= 0 for t in grid)
                                 or any(b <= a for a, b in zip(grid, grid[1:]))):
            errs.append("key 't_grid' must be positive and strictly increasing")
    elif kind == "scaling-study":
        positive("mu", "b", "t", "n_replicas")
        eps = config.get("eps_list")
        if eps is not None and (any(not (0.0 < e < 1.0) for e in eps)
                                or any(b >= a for a, b in zip(eps, eps[1:]))):
            errs.append("key 'eps_list' must be strictly decreasing inside (0, 1)")
        has_eta = config.get("eta") is not None
        has_rule = (config.get("eta_coeff") is not None
                    or config.get("eta_exponent") is not None)
        if has_eta and has_rule:
            errs.append("give either 'eta' or the eta rule, not both")
        if not has_eta and (config.get("eta_coeff") is None
                            or config.get("eta_exponent") is None):
            errs.append("need 'eta' or both 'eta_coeff' and 'eta_exponent'")
    elif kind == "green-kubo":
        positive("mu", "period", "n_paths", "t_cut", "dt_quad")
    elif kind == "operator-sweep":
        positive("mu", "b_step")
        if config.get("b_max") is not None and config.get("b_min") is not None \
                and config["b_max"] < config["b_min"]:
            errs.append("'b_max' must be at least 'b_min'")
    elif kind == "kinetic":
        positive("mu", "b", "eta", "t_end")
    elif kind == "hilbert":
        positive("mu", "b", "t_probe")
        etas = config.get("eta_list")
        if etas is not None and (any(e < 1.0 for e in etas)
                                 or any(b <= a for a, b in zip(etas, etas[1:]))):
            errs.append("key 'eta_list' must be increasing and at least 1")
    elif kind == "circling":
        positive("eps", "mu", "eta", "b", "n_fields", "n_paths")
    return errs


def config_to_text(config: dict) -> str:
    """Regenerate a config file body; validate() on it returns ``config``."""
    lines = []
    for key, value in config.items():
        if value is None:
            continue
        if isinstance(value, list):
            lines.append(f"{key} = {','.join(repr(float(v)) for v in value)}")
        elif isinstance(value, float):
            lines.append(f"{key} = {value!r}")
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_csv(path: str, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    print(f"wrote {path}")


def _write_summary(path: str, config: dict, results: dict, outputs):
    payload = {
        "toolkit": "maglorentz",
        "version": __version__,
        "kind": config["kind"],
        "config": {k: v for k, v in config.items() if v is not None},
        "outputs": list(outputs),
        "results": results,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


# -- experiment drivers ------------------------------------------------------


def _run_msd(config, out, workers):
    params = medium.scaling_from(config["eps"], config["mu"], config["eta"],
                                 config["b"])
    res = lorentz_sim.msd_estimate(
        params, config["n_replicas"], config["t_grid"], config["seed"],
        workers=workers, k_max_leaves=config["k_max_leaves"],
        max_events=config["max_events"])
    csv = f"{out}_msd.csv"
    _write_csv(csv, ["t", "msd", "msd_se", "circling_frac"],
               zip(res.time_grid, res.msd, res.msd_se, res.circling_fraction))
    return {"n_replicas": res.n_replicas, "n_aborted": res.n_aborted}, [csv]


def _run_scaling(config, out, workers):
    if config.get("eta") is not None:
        rule = config["eta"]
    else:
        coeff, expo = config["eta_coeff"], config["eta_exponent"]
        rule = lambda e: coeff * e ** (-expo)  # noqa: E731
    res = lorentz_sim.event_rate_study(
        config["eps_list"], rule, config["mu"], config["b"], config["t"],
        config["n_replicas"], config["seed"], workers=workers,
        k_max_leaves=config["k_max_leaves"], max_events=config["max_events"])
    csv = f"{out}_scaling.csv"
    rows = [(r.eps, r.eta, r.p_recollision, r.p_recollision_se,
             r.p_interference, r.p_interference_se, r.p_daisy, r.p_daisy_se,
             r.p_circling, r.p_circling_se,
             res.exponents["recollision"]) for r in res.rows]
    _write_csv(csv, ["eps", "eta", "p_recoll", "p_recoll_se", "p_interf",
                     "p_interf_se", "p_daisy", "p_daisy_se", "p_circ",
                     "p_circ_se", "exponent_fit"], rows)
    results = {f"exponent_{k}": (None if math.isnan(v) else v)
               for k, v in res.exponents.items()}
    return results, [csv]


def _run_green_kubo(config, out, workers):
    est = boltzmann_process.green_kubo_mc(
        config["mu"], config["period"], config["n_paths"], config["t_cut"],
        config["dt_quad"], config["seed"])
    csv = f"{out}_vacf.csv"
    _write_csv(csv, ["t", "vacf", "vacf_se"],
               zip(est.t_grid, est.vacf, est.vacf_se))
    results = {"D_mc": est.d_estimate, "D_mc_se": est.std_error,
               "circling_frac": est.circling_fraction}
    return results, [csv]


def _run_operator_sweep(config, out, workers):
    n = int(math.floor((config["b_max"] - config["b_min"]) / config["b_step"]
                       + 1e-9)) + 1
    b_values = [config["b_min"] + i * config["b_step"] for i in range(n)]
    rows = operators.diffusion_sweep(config["mu"], b_values,
                                     m_modes=config["m_modes"],
                                     quadrature_order=config["quadrature_order"])
    csv = f"{out}_dsweep.csv"
    _write_csv(csv, ["B", "T", "D_direct", "D_markovian_term", "D_memory_sum",
                     "series_converged"], rows)
    info = operators.invertibility_threshold()
    return {"t_star": info.t_star, "b_star": info.b_star,
            "b_stated": info.b_stated}, [csv]


def _make_field(config):
    grid = kinetic_solver.SpectralGrid(config["l_box"], config["n_x"],
                                       config["n_v"])
    f0 = kinetic_solver.make_initial_field(
        grid, config["rho_amplitude"], config["rho_mode"],
        config["angle_amplitude"])
    return grid, f0


def _run_kinetic(config, out, workers):
    grid, f0 = _make_field(config)
    model = kinetic_solver.KineticModel(config["mu"], config["eta"],
                                        config["b"], grid)
    res = kinetic_solver.solve(model, f0, config["t_end"], dt=config.get("dt"))
    csv = f"{out}_diagnostics.csv"
    _write_csv(csv, ["t", "mass", "dist_to_avg", "dist_to_heat"],
               zip(res.times, res.mass, res.dist_to_avg, res.dist_to_heat))
    return {"diffusivity": res.diffusivity,
            "mass_drift": float(np.max(np.abs(res.mass - res.mass[0])))}, [csv]


def _run_hilbert(config, out, workers):
    grid, f0 = _make_field(config)
    rows = kinetic_solver.hilbert_residual_study(
        config["eta_list"], config["mu"], config["b"], grid, f0,
        config["t_probe"], dt_safety=config["dt_safety"])
    csv = f"{out}_hilbert.csv"
    _write_csv(csv, ["eta", "dist_heat", "dist_hilbert1"],
               [(r.eta, r.dist_heat, r.dist_hilbert1) for r in rows])
    return {"monotone": bool(all(b.dist_heat < a.dist_heat
                                 for a, b in zip(rows, rows[1:])))}, [csv]


def _run_circling(config, out, workers):
    params = medium.scaling_from(config["eps"], config["mu"], config["eta"],
                                 config["b"])
    annulus = medium.empty_annulus_probability_mc(
        params, (0.0, 0.0), config["n_fields"], config["seed"])
    process = boltzmann_process.circling_fraction_mc(
        config["mu"], params.t_larmor, config["n_paths"],
        _rng.mix(config["seed"], 0x51))
    csv = f"{out}_circling.csv"
    _write_csv(csv, ["route", "estimate", "std_error", "reference"],
               [("field_annulus", annulus.estimate, annulus.std_error,
                 annulus.closed_form),
                ("process_survival", process.fraction, process.std_error,
                 process.survival_probability)])
    return {"p_field": annulus.estimate, "p_field_ref": annulus.closed_form,
            "p_process": process.fraction,
            "p_process_ref": process.survival_probability}, [csv]


_RUNNERS = {
    "msd": _run_msd,
    "scaling-study": _run_scaling,
    "green-kubo": _run_green_kubo,
    "operator-sweep": _run_operator_sweep,
    "kinetic": _run_kinetic,
    "hilbert": _run_hilbert,
    "circling": _run_circling,
}


def run(config: dict, out_prefix: str, workers: int = 1) -> int:
    """Execute a validated configuration and write its outputs."""
    results, outputs = _RUNNERS[config["kind"]](config, out_prefix, workers)
    _write_summary(f"{out_prefix}_summary.json", config, results, outputs)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="maglorentz",
        description="magnetic Lorentz gas simulation and operator numerics")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in SCHEMAS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--out", required=True, help="output path prefix")
        p.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes (results are identical "
                            "for any value)")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = validate(text, args.command)
    except ConfigError as exc:
        for msg in exc.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    try:
        return run(config, args.out, max(1, args.workers))
    except (ValueError, RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
