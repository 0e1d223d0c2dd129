"""Workload definitions: generated configs, expected spans and output checks.

A workload is a list of CLI experiment calls run in sequence in one fresh
process.  ``configs(name, seed)`` renders each call's ``key = value`` text;
the seed argument replaces only the ``seed`` keys, and ``None`` keeps the
acceptance seeds the configs were taken from.  See ``README.md`` for why
each workload exists and which layer it stresses.
"""

from __future__ import annotations

import csv
import io
import json
import math

# Each entry: (kind, config keys).  The "seed" key, where present, holds the
# acceptance seed used when no workload seed is given.
WORKLOADS: dict[str, dict] = {
    "arc-ladder": {
        # criterion-9 inputs at 240 replicas; the only workload with a pool
        "workers": 2,
        "calls": [
            ("scaling-study", {
                "eps_list": "4e-3, 2e-3, 1e-3, 5e-4", "mu": 1, "b": 1,
                "eta": 2, "t": 5, "n_replicas": 240, "seed": 909}),
        ],
        "spans": ("cli.validate", "cli.run", "lorentz_sim.simulate_trajectory",
                  "medium.ObstacleField.cell_points",
                  "medium.is_admissible_start", "_rng.generator",
                  "geometry.advance_free"),
    },
    "ray-msd": {
        # criterion-10 inputs at 20 replicas: B = 0 ray search, tiny cells
        "workers": 1,
        "calls": [
            ("msd", {
                "eps": 1e-3, "mu": 1, "eta": 1, "b": 0,
                "t_grid": "10, 15, 20, 25, 30, 35, 40", "n_replicas": 20,
                "seed": 20260301}),
        ],
        "spans": ("cli.validate", "cli.run", "lorentz_sim.simulate_trajectory",
                  "medium.ObstacleField.cell_points",
                  "medium.is_admissible_start", "_rng.generator",
                  "geometry.advance_free"),
    },
    "continuum": {
        # no lorentz_sim code: the no-change control for microscopic changes
        "workers": 1,
        "calls": [
            ("green-kubo", {
                "mu": 1, "period": 1, "n_paths": 50000, "t_cut": 6,
                "dt_quad": 0.01, "seed": 777}),
            ("operator-sweep", {
                "mu": 1, "b_min": 0, "b_max": 10, "b_step": 0.1,
                "m_modes": 64, "quadrature_order": 256}),
            ("kinetic", {
                "mu": 1, "b": 4, "eta": 8, "t_end": 1, "n_x": 6, "n_v": 64,
                "angle_amplitude": 0.3}),
            ("circling", {
                "eps": 0.01, "mu": 0.25, "eta": 1, "b": 1,
                "n_fields": 200000, "n_paths": 200000, "seed": 2026}),
        ],
        "spans": ("cli.validate", "cli.run",
                  "medium.empty_annulus_probability_mc", "_rng.generator",
                  "boltzmann_process.green_kubo_mc",
                  "boltzmann_process.circling_fraction_mc",
                  "operators.build_LG", "operators.memory_mode_table",
                  "operators.deflection_cosine_moments",
                  "kinetic_solver.solve", "kinetic_solver.step",
                  "kinetic_solver.KineticModel.propagate",
                  "kinetic_solver.KineticModel.collision_rhs"),
    },
}


def configs(workload: str, seed: int | None = None) -> list[tuple[str, str]]:
    """(kind, config text) of every call; ``seed`` replaces the seed keys."""
    out = []
    for kind, keys in WORKLOADS[workload]["calls"]:
        lines = []
        for key, value in keys.items():
            if key == "seed" and seed is not None:
                value = seed
            lines.append(f"{key} = {value}")
        out.append((kind, "\n".join(lines) + "\n"))
    return out


# -- output checks -------------------------------------------------------------
#
# Each check takes the validated config, the output files as {name: bytes}
# and the parsed summary, and returns a list of failure messages.


def _csv_rows(data: bytes) -> list[dict[str, float]]:
    reader = csv.DictReader(io.StringIO(data.decode()))
    return [{k: float(v) for k, v in row.items()} for row in reader]


def _check_scaling(config, files, summary):
    errors = []
    rows = _csv_rows(files["_scaling.csv"])
    if len(rows) != len(config["eps_list"]):
        errors.append(f"{len(rows)} CSV rows, expected {len(config['eps_list'])}")
    expo = summary["results"]["exponent_recollision"]
    if expo is None or not expo >= 0.4:
        errors.append(f"recollision exponent {expo} below the criterion-9 gate 0.4")
    return errors


# B = 0, mu = eta = 1: MSD(t) -> 2 D t with the operator value D = 3/8
_MSD_D = 3.0 / 8.0


def _check_msd(config, files, summary):
    errors = []
    n_ok = summary["results"]["n_replicas"] - summary["results"]["n_aborted"]
    if summary["results"]["n_aborted"] != 0:
        errors.append(f"{summary['results']['n_aborted']} replicas aborted")
    last = _csv_rows(files["_msd.csv"])[-1]
    ref = 2.0 * _MSD_D * last["t"]
    # |X(t)|^2 of planar diffusion is close to exponential, so its standard
    # error is about ref/sqrt(n).  The reported msd_se is estimated from the
    # same few replicas and is small exactly when the mean is: at 20
    # replicas a 4 sigma test on it alone fails about 1% of correct runs.
    se = max(last["msd_se"], ref / math.sqrt(max(n_ok, 1)))
    if abs(last["msd"] - ref) > 4.0 * se:
        errors.append(f"msd({last['t']:g}) = {last['msd']:.6g} is more than "
                      f"4 sigma ({se:.3g}) from {ref:g}")
    return errors


def _check_green_kubo(config, files, summary):
    from maglorentz import operators
    op = operators.build_LG(config["mu"], config["period"], 64)
    d_op = -1.0 / op.mode(1)
    res = summary["results"]
    # 4 sigma: a correct run fails at 3 sigma on 0.27% of seeds
    if abs(res["D_mc"] - d_op) > 4.0 * res["D_mc_se"]:
        return [f"D_mc = {res['D_mc']:.6g} +- {res['D_mc_se']:.3g} is more "
                f"than 4 sigma from -1/lambda_1 = {d_op:.6g}"]
    return []


def _check_operator_sweep(config, files, summary):
    errors = []
    rows = _csv_rows(files["_dsweep.csv"])
    zero = [r for r in rows if r["B"] == 0.0]
    if not zero or abs(zero[0]["D_direct"] - 0.375) > 1e-10:
        errors.append("B = 0 row does not equal 3/8 to 1e-10")
    flips = [(a["B"], b["B"]) for a, b in zip(rows, rows[1:])
             if a["series_converged"] != b["series_converged"]]
    if len(flips) != 1 or abs(flips[0][0] - 8.1) > 1e-9 \
            or abs(flips[0][1] - 8.2) > 1e-9:
        errors.append(f"series_converged flips at {flips}, expected once "
                      "between B = 8.1 and 8.2")
    return errors


def _check_kinetic(config, files, summary):
    drift = summary["results"]["mass_drift"]
    return [] if drift == 0.0 else [f"mass drift {drift!r} is not exactly 0"]


def _check_circling(config, files, summary):
    res = summary["results"]
    ref = res["p_field_ref"]
    errors = []
    for route, n in (("p_field", config["n_fields"]),
                     ("p_process", config["n_paths"])):
        sigma = math.sqrt(ref * (1.0 - ref) / n)
        if abs(res[route] - ref) > 4.0 * sigma:
            errors.append(f"{route} = {res[route]:.6g} is more than 4 sigma "
                          f"({sigma:.3g}) from {ref:.6g}")
    return errors


CHECKS = {
    "scaling-study": _check_scaling,
    "msd": _check_msd,
    "green-kubo": _check_green_kubo,
    "operator-sweep": _check_operator_sweep,
    "kinetic": _check_kinetic,
    "circling": _check_circling,
}


def check_outputs(kind: str, config: dict, files: dict[str, bytes]) -> list[str]:
    """Failure messages for one call's outputs ({suffix: bytes}); [] if fine."""
    try:
        summary = json.loads(files["_summary.json"])
        return CHECKS[kind](config, files, summary)
    except (KeyError, ValueError, TypeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
