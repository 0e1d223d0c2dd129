"""Reference forms of the hit geometry: array forms, exact oracles, distances.

* ``larmor_center``, ``advance_free``, ``impact_normal`` and
  ``first_ray_entry`` are the bodies ``maglorentz.geometry`` had when the
  event loop ran on numpy arrays.  They take and return plain values: a
  position is a 2-element array, a velocity angle a float and a velocity
  ``direction(angle)``.  The float forms of the package must return
  bit-identical results.
* ``exact_reflect`` and ``exact_arc_rows`` evaluate the reflection and the
  arc-disk contacts in 50-digit ``mpmath`` arithmetic from the float
  inputs.  The package's ``reflect`` and ``first_arc_hit`` take their
  transcendentals from the C library, so they are held to these within a
  few units of roundoff, not to any other build's bits.
* ``point_to_arc_distances`` measures, with numpy, how close an arc passes
  to given points: the oracle of the simulator's near-miss test.

``tests/test_geometry_reference.py`` and ``tests/test_geometry.py`` check
the package against them.
"""

import math

import mpmath
import numpy as np

from maglorentz.geometry import (DEPARTURE_GUARD, GRAZING_TOL, TWO_PI,
                                 normalize_angle)

#: digits of the exact oracles
DIGITS = 50


def direction(angle: float) -> np.ndarray:
    """The unit vector at ``angle``."""
    return np.array([math.cos(angle), math.sin(angle)])


def larmor_center(position, velocity_angle: float, b_magnitude: float
                  ) -> np.ndarray:
    if b_magnitude <= 0.0:
        raise ValueError("no Larmor center in the straight-line regime B = 0")
    r = 1.0 / b_magnitude
    return position + r * np.array(
        [-math.sin(velocity_angle), math.cos(velocity_angle)])


def advance_free(position, velocity_angle: float, b_magnitude: float,
                 tau: float) -> tuple[np.ndarray, float]:
    """``(position, angle)`` after ``tau``, the angle in [0, 2*pi)."""
    if not math.isfinite(tau) or tau < 0.0:
        raise ValueError("tau must be finite and nonnegative")
    if b_magnitude == 0.0:
        return (position + tau * direction(velocity_angle),
                normalize_angle(velocity_angle))
    center = larmor_center(position, velocity_angle, b_magnitude)
    r = 1.0 / b_magnitude
    phase = velocity_angle - 0.5 * math.pi + b_magnitude * tau
    return (center + r * direction(phase),
            normalize_angle(velocity_angle + b_magnitude * tau))


def impact_normal(point, center, eps: float) -> np.ndarray:
    n = (point - center) / eps
    return n / math.hypot(n[0], n[1])


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


def point_to_arc_distances(centers, orbit_center, radius, phase0, sweep):
    """Distance from each point to the arc swept from phase0 by sweep (CCW)."""
    rel = centers - orbit_center
    d = np.hypot(rel[:, 0], rel[:, 1])
    ang = np.mod(np.arctan2(rel[:, 1], rel[:, 0]) - phase0, TWO_PI)
    radial = np.abs(d - radius)
    p_start = orbit_center + radius * np.array([math.cos(phase0), math.sin(phase0)])
    p_end = orbit_center + radius * np.array(
        [math.cos(phase0 + sweep), math.sin(phase0 + sweep)])
    d_start = np.hypot(*(centers - p_start).T)
    d_end = np.hypot(*(centers - p_end).T)
    endpoint = np.minimum(d_start, d_end)
    return np.where(ang <= sweep, radial, endpoint)


def exact_reflect(velocity_angle: float, nx: float, ny: float) -> float:
    """Angle of v - 2 (v.n) n in [0, 2 pi), rounded once from the exact."""
    with mpmath.workdps(DIGITS):
        c, s = mpmath.cos(velocity_angle), mpmath.sin(velocity_angle)
        vn2 = 2 * (c * nx + s * ny)
        return float(mpmath.atan2(s - vn2 * ny, c - vn2 * nx)
                     % (2 * mpmath.pi))


def exact_arc_rows(centers, orbit_center, velocity_angle: float,
                   b_magnitude: float, eps: float):
    """Exact contact of the orbit with each disk, one dict per row.

    The orbit has radius exactly ``1/b_magnitude`` and starts at phase
    ``velocity_angle - pi/2`` about ``orbit_center``.  Each row gets the
    signed gaps of its squared distance to the annulus bounds, ``inner``
    and ``outer`` (both positive inside the annulus).  A row off the
    orbit center also gets its contact: ``gamma``, the angle at the orbit
    center between the disk center and the contact (its cosine clamped to
    [-1, 1], so a row outside the annulus gets the nearest tangency), the
    ``sweep`` to the contact in [0, 2 pi), its ``length``, the outward
    ``normal`` there and ``vn``, the velocity there dotted with that
    normal.  Floats throughout, each rounded once.
    """
    with mpmath.workdps(DIGITS):
        r = 1 / mpmath.mpf(b_magnitude)
        ox, oy = map(mpmath.mpf, orbit_center)
        e = mpmath.mpf(eps)
        phase0 = velocity_angle - mpmath.pi / 2
        rows = []
        for cx, cy in np.asarray(centers).tolist():
            dx, dy = cx - ox, cy - oy
            d_sq = dx * dx + dy * dy
            row = {"inner": float(d_sq - (r - e) ** 2),
                   "outer": float((r + e) ** 2 - d_sq)}
            rows.append(row)
            if d_sq == 0:
                continue
            d = mpmath.sqrt(d_sq)
            cos_g = (d_sq + r * r - e * e) / (2 * d * r)
            gamma = mpmath.acos(min(max(cos_g, -1), 1))
            sweep = (mpmath.atan2(dy, dx) - gamma - phase0) % (2 * mpmath.pi)
            px = ox + r * mpmath.cos(phase0 + sweep)
            py = oy + r * mpmath.sin(phase0 + sweep)
            h = mpmath.hypot(px - cx, py - cy)
            nx, ny = (px - cx) / h, (py - cy) / h
            a = velocity_angle + sweep
            row.update(gamma=float(gamma), sweep=float(sweep),
                       length=float(sweep * r), normal=(float(nx), float(ny)),
                       vn=float(mpmath.cos(a) * nx + mpmath.sin(a) * ny))
        return rows
