"""Array forms of the hit geometry, kept as the reference for the float forms.

These are the bodies ``maglorentz.geometry`` had when the event loop ran on
``ParticleState``s and 2-element numpy arrays.  The float forms of the
package must return bit-identical results; ``tests/test_geometry.py``
checks that they do.
"""

import math

import numpy as np

from maglorentz.geometry import (DEPARTURE_GUARD, GRAZING_TOL, TWO_PI,
                                 ParticleState, normalize_angle, unit_vector)


def larmor_center(position, velocity_angle: float, b_magnitude: float
                  ) -> np.ndarray:
    if b_magnitude <= 0.0:
        raise ValueError("no Larmor center in the straight-line regime B = 0")
    r = 1.0 / b_magnitude
    return position + r * np.array(
        [-math.sin(velocity_angle), math.cos(velocity_angle)])


def advance_free(state: ParticleState, b_magnitude: float, tau: float
                 ) -> ParticleState:
    if not math.isfinite(tau) or tau < 0.0:
        raise ValueError("tau must be finite and nonnegative")
    if b_magnitude == 0.0:
        return ParticleState(
            position=state.position + tau * state.velocity,
            velocity_angle=state.velocity_angle,
        )
    center = larmor_center(state.position, state.velocity_angle, b_magnitude)
    r = 1.0 / b_magnitude
    phase = state.velocity_angle - 0.5 * math.pi + b_magnitude * tau
    return ParticleState(
        position=center + r * unit_vector(phase),
        velocity_angle=state.velocity_angle + b_magnitude * tau,
    )


def impact_normal(point, center, eps: float) -> np.ndarray:
    n = (point - center) / eps
    return n / math.hypot(n[0], n[1])


def first_arc_hit(centers, orbit_center, velocity_angle: float,
                  b_magnitude: float, eps: float):
    r = 1.0 / b_magnitude
    dx = centers[:, 0] - orbit_center[0]
    dy = centers[:, 1] - orbit_center[1]
    d_sq = dx * dx + dy * dy
    mask = (d_sq > (r - eps) ** 2) & (d_sq < (r + eps) ** 2)
    if not np.any(mask):
        return None
    rows = np.flatnonzero(mask)
    d = np.sqrt(d_sq[mask])
    cos_g = (d * d + r * r - eps * eps) / (2.0 * d * r)
    gamma = np.arccos(np.clip(cos_g, -1.0, 1.0))
    phase0 = velocity_angle - 0.5 * math.pi
    sweep = np.mod(np.arctan2(dy[mask], dx[mask]) - gamma - phase0, TWO_PI)
    guard_sweep = DEPARTURE_GUARD * b_magnitude
    for j in np.argsort(sweep):
        sw = float(sweep[j])
        if sw <= guard_sweep:
            continue
        hit_phase = phase0 + sw
        hit = orbit_center + r * np.array([math.cos(hit_phase),
                                           math.sin(hit_phase)])
        k = int(rows[j])
        n = impact_normal(hit, centers[k], eps)
        v = unit_vector(velocity_angle + sw)
        if float(v @ n) >= -GRAZING_TOL:
            continue
        return sw * r, k, n
    return None


def first_ray_entry(centers, position, v, eps: float, max_len: float):
    rel = centers - position
    proj = rel[:, 0] * v[0] + rel[:, 1] * v[1]
    perp_sq = np.einsum("ij,ij->i", rel, rel) - proj * proj
    disc = eps * eps - perp_sq
    ok = disc > (eps * GRAZING_TOL) ** 2
    if not np.any(ok):
        return None
    tau = proj[ok] - np.sqrt(disc[ok])
    good = (tau > DEPARTURE_GUARD) & (tau <= max_len)
    if not np.any(good):
        return None
    j = int(np.argmin(np.where(good, tau, math.inf)))
    t, k = float(tau[j]), int(np.flatnonzero(ok)[j])
    return t, k, impact_normal(position + t * v, centers[k], eps)


def reflect(velocity_angle: float, n: np.ndarray) -> float:
    v = unit_vector(velocity_angle)
    n = np.asarray(n, dtype=float)
    vp = v - 2.0 * float(v @ n) * n
    return normalize_angle(math.atan2(vp[1], vp[0]))
