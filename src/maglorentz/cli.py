"""Configuration-driven command line front end.

Experiments are described by flat ``key = value`` text files (``#`` starts
a comment).  Each experiment kind is one entry of ``EXPERIMENTS``: its keys
(each with a type, a default and a bound), its cross-key rule, its driver
and its CSV columns.  Unknown keys, duplicate keys, type errors, non-finite
numbers, out-of-range values, broken cross-key rules and missing required
keys are all collected and reported together; nothing is written unless the
whole configuration validates and the computation finishes.  Outputs are a
fixed-column CSV per experiment plus a JSON summary embedding the fully
resolved configuration (defaults included), so a run can be reproduced from
its summary alone.  Floats are printed with 17 significant digits; identical
configuration and seed give byte-identical files regardless of worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, _rng, boltzmann_process, kinetic_solver, lorentz_sim
from . import medium, operators


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


_REQUIRED = object()

# A key's bound, named by the words its error message ends with.
_BOUNDS = {
    "positive": lambda v: v > 0,
    "nonnegative": lambda v: v >= 0,
    "at least 1": lambda v: v >= 1,
    "at least 2": lambda v: v >= 2,
    "at least 8": lambda v: v >= 8,
}


@dataclass(frozen=True)
class _Key:
    typ: str  # int | float | str | floats
    default: object = _REQUIRED  # None: optional, left out unless given
    bound: str | None = None  # a key of _BOUNDS


@dataclass(frozen=True)
class _Experiment:
    keys: dict[str, _Key]
    driver: Callable  # (config, workers) -> (CSV rows, summary results)
    suffix: str  # the CSV is written to <prefix>_<suffix>.csv
    header: tuple[str, ...]
    rule: Callable = lambda config: ()  # config -> cross-key errors


def _parse_scalar(typ: str, raw: str):
    if typ == "int":
        return int(raw)
    if typ == "str":
        return raw
    values = [float(x) for x in (raw.split(",") if typ == "floats" else [raw])
              if x.strip()]
    if not values or not all(math.isfinite(v) for v in values):
        raise ValueError("need one or more finite numbers")
    return values if typ == "floats" else values[0]


def validate(text: str, kind: str) -> dict:
    """Parse and fully resolve a configuration; raise ConfigError otherwise."""
    if kind not in EXPERIMENTS:
        raise ConfigError([f"unknown experiment kind '{kind}'"])
    experiment = EXPERIMENTS[kind]
    schema = {"kind": _Key("str", None), **experiment.keys}
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
        elif spec.default is not None:
            config[key] = spec.default
    if config.get("kind") not in (None, kind):
        errors.append(
            f"config kind '{config['kind']}' does not match subcommand '{kind}'")
    config["kind"] = kind
    for key, spec in schema.items():
        value = config.get(key)
        if spec.bound and value is not None and not _BOUNDS[spec.bound](value):
            errors.append(f"key '{key}' must be {spec.bound}")
    errors.extend(experiment.rule(config))
    if errors:
        raise ConfigError(errors)
    return {k: config[k] for k in schema if k in config}


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


# -- cross-key rules -----------------------------------------------------------


def _increasing(values) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


def _msd_rule(config):
    grid = config.get("t_grid")
    if grid is not None and (any(t <= 0 for t in grid) or not _increasing(grid)):
        yield "key 't_grid' must be positive and strictly increasing"


def _rule_eta(coeff, expo, eps):
    """The eta rule ``coeff * eps^(-expo)`` at one radius (inf on overflow)."""
    try:
        return coeff * eps ** (-expo)
    except OverflowError:
        return math.inf


def _scaling_rule(config):
    eps = config.get("eps_list")
    eps_ok = eps is None or (all(0.0 < e < 1.0 for e in eps)
                             and _increasing(eps[::-1]))
    if not eps_ok:
        yield "key 'eps_list' must be strictly decreasing inside (0, 1)"
    has_eta = config.get("eta") is not None
    has_rule = [config.get(k) is not None for k in ("eta_coeff", "eta_exponent")]
    if has_eta and any(has_rule):
        yield "give either 'eta' or the eta rule, not both"
    if not has_eta and not all(has_rule):
        yield "need 'eta' or both 'eta_coeff' and 'eta_exponent'"
    elif not has_eta and eps is not None and eps_ok:
        for e in eps:
            eta = _rule_eta(config["eta_coeff"], config["eta_exponent"], e)
            if not 1.0 <= eta < math.inf:
                yield (f"the eta rule gives eta = {eta:g} at eps = {e:g}; "
                       "it must be finite and at least 1")
                break


#: the most rows (b-values) an operator sweep may have
MAX_SWEEP_ROWS = 10 ** 6


def _sweep_rows(config):
    """Rows of an operator sweep, b_min by b_step up to b_max (inf when
    the ratio overflows)."""
    ratio = (config["b_max"] - config["b_min"]) / config["b_step"]
    return math.floor(ratio + 1e-9) + 1 if math.isfinite(ratio) else math.inf


def _sweep_rule(config):
    if config.get("b_max", math.inf) < config.get("b_min", -math.inf):
        yield "'b_max' must be at least 'b_min'"
    elif (all(k in config for k in ("b_min", "b_max", "b_step"))
          and config["b_step"] > 0 and _sweep_rows(config) > MAX_SWEEP_ROWS):
        yield (f"the sweep from 'b_min' to 'b_max' by 'b_step' must have at "
               f"most {MAX_SWEEP_ROWS} rows")


#: the longest Green-Kubo time grid: it bounds the CSV's rows and the
#: reduction's few arrays with one entry per grid time
MAX_GK_GRID = 10 ** 4

#: the most jumps one Green-Kubo path may expect, 2 mu t_cut (mu t_cut at
#: most 2 10^6).  Paths are drawn and reduced in blocks that expect at most
#: ``boltzmann_process.GK_BLOCK`` jumps (``block_paths``), but a path that
#: expects more is a block alone: at the cap its jumps and phase table
#: peak at about 168 MB traced (numpy 2.4), and any number of paths that
#: expect fewer jumps stays within a few MB
MAX_GK_PATH_JUMPS = 4 * 10 ** 6


def _green_kubo_rule(config):
    t_cut, dt = config.get("t_cut"), config.get("dt_quad")
    if t_cut is not None and dt is not None and t_cut > 0 and dt > 0:
        # a one-point grid's trapezoid rule integrates over nothing
        points = boltzmann_process.grid_points(t_cut, dt)
        if not 2 <= points <= MAX_GK_GRID:
            bound = "at least 2" if points < 2 else f"at most {MAX_GK_GRID}"
            yield (f"the grid from 0 to 't_cut' by 'dt_quad' must have "
                   f"{bound} points")
    mu = config.get("mu")
    if mu is not None and t_cut is not None:
        jumps = 2.0 * mu * t_cut
        if jumps > MAX_GK_PATH_JUMPS:
            yield (f"one path must expect at most {MAX_GK_PATH_JUMPS} jumps, "
                   f"got 2 mu t_cut = {jumps:.3g}")
    period = config.get("period")
    if mu is not None and period is not None \
            and operators.survival_weight(mu, period) == 1.0:
        # a lumped scatter's geometric leaves would never end
        yield (f"2 mu period must be large enough that exp(-2 mu period) "
               f"< 1, got 2 mu period = {2.0 * mu * period:.3g}")


#: the most obstacles the square bounding a circling field sample's annulus
#: may hold on average.  A sample draws only the tiles covering the annulus,
#: under 3 times this mean and far less once 1/b >> eps, in fixed blocks
MAX_ANNULUS_BOX = 10 ** 7


def _circling_rule(config):
    keys = [config.get(k) for k in ("eps", "mu", "eta", "b")]
    if all(v is not None and v > 0 for v in keys):
        count = medium.annulus_box_mean(medium.ScalingParams(*keys))
        if count > MAX_ANNULUS_BOX:
            yield (f"one field sample's box must hold at most "
                   f"{MAX_ANNULUS_BOX} obstacles on average, "
                   f"got mu_eff (2 (1/b + eps))^2 = {count:.3g}")


def _field_rule(config):
    n_x, p = config.get("n_x"), config.get("rho_mode")
    if config.get("rho_amplitude") and p and n_x is not None \
            and 0 <= n_x < abs(p):
        yield "key 'rho_mode' must be at most 'n_x' in magnitude"


def _hilbert_rule(config):
    etas = config.get("eta_list")
    if etas is not None and (any(e < 1.0 for e in etas) or not _increasing(etas)):
        yield "key 'eta_list' must be increasing and at least 1"
    yield from _field_rule(config)


# -- experiment drivers: (config, workers) -> (CSV rows, summary results) ------


def _run_msd(config, workers):
    params = medium.scaling_from(config["eps"], config["mu"], config["eta"],
                                 config["b"])
    res = lorentz_sim.msd_estimate(
        params, config["n_replicas"], config["t_grid"], config["seed"],
        workers=workers, max_events=config["max_events"])
    rows = zip(res.time_grid, res.msd, res.msd_se, res.circling_fraction)
    return rows, {"n_replicas": res.n_replicas, "n_aborted": res.n_aborted}


def _run_scaling(config, workers):
    if config.get("eta") is not None:
        rule = config["eta"]
    else:
        coeff, expo = config["eta_coeff"], config["eta_exponent"]
        rule = lambda e: _rule_eta(coeff, expo, e)  # noqa: E731
    res = lorentz_sim.event_rate_study(
        config["eps_list"], rule, config["mu"], config["b"], config["t"],
        config["n_replicas"], config["seed"], workers=workers,
        max_events=config["max_events"])
    rows = [(r.eps, r.eta, r.p_recollision, r.p_recollision_se,
             r.p_interference, r.p_interference_se, r.p_daisy, r.p_daisy_se,
             r.p_circling, r.p_circling_se,
             res.exponents["recollision"]) for r in res.rows]
    results = {f"exponent_{k}": (None if math.isnan(v) else v)
               for k, v in res.exponents.items()}
    return rows, results


def _run_green_kubo(config, workers):
    est = boltzmann_process.green_kubo_mc(
        config["mu"], config["period"], config["n_paths"], config["t_cut"],
        config["dt_quad"], config["seed"])
    results = {"D_mc": est.d_estimate, "D_mc_se": est.std_error,
               "circling_frac": est.circling_fraction}
    return zip(est.t_grid, est.vacf, est.vacf_se), results


def _run_operator_sweep(config, workers):
    b_values = [config["b_min"] + i * config["b_step"]
                for i in range(_sweep_rows(config))]
    rows = operators.diffusion_sweep(config["mu"], b_values)
    return rows, {"t_star": operators.T_STAR, "b_star": operators.B_STAR,
                  "b_stated": operators.B_STATED}


def _make_field(config):
    grid = kinetic_solver.SpectralGrid(config["l_box"], config["n_v"])
    f0 = kinetic_solver.make_initial_field(
        grid, config["rho_amplitude"], config["rho_mode"],
        config["angle_amplitude"])
    return grid, f0


def _run_kinetic(config, workers):
    grid, f0 = _make_field(config)
    model = kinetic_solver.KineticModel(config["mu"], config["eta"],
                                        config["b"], grid)
    res = kinetic_solver.solve(model, f0, config["t_end"], dt=config.get("dt"))
    rows = zip(res.times, res.mass, res.dist_to_avg, res.dist_to_heat)
    return rows, {"diffusivity": res.diffusivity,
                  "mass_drift": float(np.max(np.abs(res.mass - res.mass[0])))}


def _run_hilbert(config, workers):
    grid, f0 = _make_field(config)
    rows = kinetic_solver.hilbert_residual_study(
        config["eta_list"], config["mu"], config["b"], grid, f0,
        config["t_probe"], dt_safety=config["dt_safety"])
    monotone = all(b.dist_heat < a.dist_heat for a, b in zip(rows, rows[1:]))
    return ([(r.eta, r.dist_heat, r.dist_hilbert1) for r in rows],
            {"monotone": bool(monotone)})


def _run_circling(config, workers):
    params = medium.scaling_from(config["eps"], config["mu"], config["eta"],
                                 config["b"])
    annulus = medium.empty_annulus_probability_mc(
        params, (0.0, 0.0), config["n_fields"], config["seed"])
    process = boltzmann_process.circling_fraction_mc(
        config["mu"], operators.cyclotron_period(config["b"]),
        config["n_paths"], _rng.mix(config["seed"], 0x51))
    rows = [("field_annulus", annulus.estimate, annulus.std_error,
             annulus.closed_form),
            ("process_survival", process.fraction, process.std_error,
             process.survival_probability)]
    return rows, {"p_field": annulus.estimate, "p_field_ref": annulus.closed_form,
                  "p_process": process.fraction,
                  "p_process_ref": process.survival_probability}


# -- the experiment table ------------------------------------------------------

# the datum of kinetic_solver.make_initial_field on a SpectralGrid; n_x only
# bounds |rho_mode| (see _field_rule): the library sizes nothing by it
_INITIAL_FIELD = {
    "l_box": _Key("float", 2.0 * math.pi, "positive"),
    "n_x": _Key("int", 2, "nonnegative"),
    "n_v": _Key("int", 32, "at least 8"),
    "rho_amplitude": _Key("float", 0.5),
    "rho_mode": _Key("int", 1),
    "angle_amplitude": _Key("float", 0.0),
}

# the keys most kinds share
_POSITIVE = _Key("float", bound="positive")
_COUNT = _Key("int", bound="positive")
_SAMPLES = _Key("int", bound="at least 2")  # averaged with a standard error
_ETA = _Key("float", bound="at least 1")
_SEED = _Key("int")
_MAX_EVENTS = _Key("int", lorentz_sim.DEFAULT_MAX_EVENTS, "positive")

EXPERIMENTS: dict[str, _Experiment] = {
    "msd": _Experiment(
        {"eps": _POSITIVE, "mu": _POSITIVE, "eta": _ETA,
         "b": _Key("float", 0.0, "nonnegative"), "t_grid": _Key("floats"),
         "n_replicas": _SAMPLES, "seed": _SEED, "max_events": _MAX_EVENTS},
        _run_msd, "msd", ("t", "msd", "msd_se", "circling_frac"), _msd_rule),
    "scaling-study": _Experiment(
        {"eps_list": _Key("floats"), "mu": _POSITIVE, "b": _POSITIVE,
         "t": _POSITIVE, "n_replicas": _COUNT, "seed": _SEED,
         "eta": _Key("float", None, "at least 1"),
         "eta_coeff": _Key("float", None), "eta_exponent": _Key("float", None),
         "max_events": _MAX_EVENTS},
        _run_scaling, "scaling",
        ("eps", "eta", "p_recoll", "p_recoll_se", "p_interf", "p_interf_se",
         "p_daisy", "p_daisy_se", "p_circ", "p_circ_se", "exponent_fit"),
        _scaling_rule),
    "green-kubo": _Experiment(
        {"mu": _POSITIVE, "period": _POSITIVE, "n_paths": _SAMPLES,
         "t_cut": _POSITIVE, "dt_quad": _POSITIVE, "seed": _SEED},
        _run_green_kubo, "vacf", ("t", "vacf", "vacf_se"), _green_kubo_rule),
    "operator-sweep": _Experiment(
        {"mu": _POSITIVE, "b_min": _Key("float", 0.0, "nonnegative"),
         "b_max": _Key("float"), "b_step": _POSITIVE,
         # accepted and validated, with no effect: the rows read only
         # lambda_1, and the moments are exact
         "m_modes": _Key("int", 64, "positive"),
         "quadrature_order": _Key("int", 256, "positive")},
        _run_operator_sweep, "dsweep",
        ("B", "T", "D_direct", "D_markovian_term", "D_memory_sum",
         "series_converged"), _sweep_rule),
    "kinetic": _Experiment(
        {"mu": _POSITIVE, "b": _Key("float", bound="nonnegative"), "eta": _ETA,
         "t_end": _POSITIVE, "dt": _Key("float", None, "positive"),
         **_INITIAL_FIELD},
        _run_kinetic, "diagnostics", ("t", "mass", "dist_to_avg", "dist_to_heat"),
        _field_rule),
    "hilbert": _Experiment(
        {"mu": _POSITIVE, "b": _Key("float", bound="nonnegative"),
         "eta_list": _Key("floats"), "t_probe": _POSITIVE,
         "dt_safety": _Key("float", 0.1, "positive"), **_INITIAL_FIELD},
        _run_hilbert, "hilbert", ("eta", "dist_heat", "dist_hilbert1"),
        _hilbert_rule),
    "circling": _Experiment(
        {"eps": _POSITIVE, "mu": _POSITIVE, "eta": _ETA, "b": _POSITIVE,
         "n_fields": _COUNT, "n_paths": _COUNT, "seed": _SEED},
        _run_circling, "circling", ("route", "estimate", "std_error", "reference"),
        _circling_rule),
}


def run(config: dict, out_prefix: str, workers: int = 1) -> int:
    """Execute a validated configuration and write its CSV and summary."""
    experiment = EXPERIMENTS[config["kind"]]
    rows, results = experiment.driver(config, workers)
    csv = f"{out_prefix}_{experiment.suffix}.csv"
    # the CSV's file name only: it sits beside the summary, whose bytes then
    # do not depend on the output directory
    summary = {"toolkit": "maglorentz", "version": __version__,
               "kind": config["kind"], "outputs": [Path(csv).name],
               "results": results,
               "config": {k: v for k, v in config.items() if v is not None}}
    csv_text = "".join(",".join(_fmt(v) for v in row) + "\n"
                       for row in (experiment.header, *rows))
    for path, text in ((csv, csv_text),
                       (f"{out_prefix}_summary.json",
                        json.dumps(summary, indent=2, sort_keys=True) + "\n")):
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="maglorentz",
        description="magnetic Lorentz gas simulation and operator numerics")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENTS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--out", required=True, help="output path prefix")
        p.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes (results are identical "
                            "for any value)")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = validate(text, args.command)
    except ConfigError as exc:
        for msg in exc.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    # refused before the computation, which may take long
    out_dir = os.path.dirname(args.out) or "."
    if not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK | os.X_OK)):
        print(f"error: no writable directory '{out_dir}'", file=sys.stderr)
        return 2
    try:
        with warnings.catch_warnings():  # each warning one line, as raised
            warnings.showwarning = lambda message, *_: print(
                f"warning: {message}", file=sys.stderr)
            return run(config, args.out, args.workers)
    except (OSError, ValueError, RuntimeError, ArithmeticError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
