"""Circular-arc free flight and hard-disk scattering geometry.

A unit-speed charge in a uniform transverse magnetic field of magnitude B
moves counterclockwise on a circle of radius R = 1/B at angular rate B, so
arc length equals elapsed time.  The orientation convention is fixed once:
the guiding center sits 90 degrees counterclockwise from the velocity.
All downstream modules inherit it.

The first-hit kernels ``first_arc_hit`` (B > 0) and ``first_ray_entry``
(B = 0) take arrays of obstacle centers and plain floats and return the
first hit as ``(length, row, normal)``; they and ``reflect`` are the only
arc/ray-vs-disk arithmetic of the package, and the event-driven simulator
calls them on every flight leg.  ``arc_passes_within`` tells whether an
arc passes within reach of given points, for the simulator's near-miss
count, which only arcs take part in.

One rule fixes the hit arithmetic: numpy does only correctly rounded
elementwise work over many rows (the annulus mask, the ray kernel), every
transcendental is ``math`` on the few candidates' Python floats, and every
dot product a plain ``a*b + c*d``, which is never fused.  A hit's bits
then depend on the C library, not on the numpy or BLAS build.

Sign conventions used throughout:

* the signed impact parameter of a collision is ``b = eps * cross(v, n)``
  where ``n`` is the outward surface normal at impact and ``v`` the incoming
  velocity; then the reflected velocity angle equals the incoming angle plus
  ``deflection_from_impact(b / eps)`` modulo 2*pi,
* the deflection is ``sign(b) * (pi - 2*asin(|b|))`` with the head-on value
  pinned to +pi, so ``cos(deflection) = 2*(b/eps)**2 - 1`` holds exactly.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

#: |v . n| below this at an intersection counts as a grazing non-hit.
GRAZING_TOL = 1e-10

#: flight times below this are excluded when searching for the next hit,
#: so a reflection does not re-detect its own contact point.
DEPARTURE_GUARD = 1e-9


def normalize_angle(angle: float) -> float:
    """Map an angle to the half-open interval [0, 2*pi)."""
    a = math.fmod(angle, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    if a >= TWO_PI:
        a = 0.0
    return a


def larmor_center(x: float, y: float, velocity_angle: float,
                  b_magnitude: float) -> tuple[float, float]:
    """Guiding center of the cyclotron orbit through ``(x, y)``.

    Lies at distance R = 1/B from the position, 90 degrees counterclockwise
    from the velocity, so the orbit is traversed counterclockwise at angular
    rate B.
    """
    if b_magnitude <= 0.0:
        raise ValueError("no Larmor center in the straight-line regime B = 0")
    r = 1.0 / b_magnitude
    return (x + r * -math.sin(velocity_angle),
            y + r * math.cos(velocity_angle))


def advance_free(x: float, y: float, velocity_angle: float,
                 b_magnitude: float, tau: float) -> tuple[float, float, float]:
    """Position and velocity angle after a collision-free flight of ``tau``.

    For B > 0 the position rotates about the guiding center by B*tau and the
    velocity angle increases by the same amount; for B = 0 the motion is a
    straight segment.  Arc length equals tau in both cases.  The returned
    angle lies in [0, 2*pi).
    """
    if not math.isfinite(tau) or tau < 0.0:
        raise ValueError("tau must be finite and nonnegative")
    if b_magnitude == 0.0:
        return (x + tau * math.cos(velocity_angle),
                y + tau * math.sin(velocity_angle),
                normalize_angle(velocity_angle))
    cx, cy = larmor_center(x, y, velocity_angle, b_magnitude)
    r = 1.0 / b_magnitude
    phase = velocity_angle - 0.5 * math.pi + b_magnitude * tau
    return (cx + r * math.cos(phase), cy + r * math.sin(phase),
            normalize_angle(velocity_angle + b_magnitude * tau))


def impact_normal(x: float, y: float, cx: float, cy: float, eps: float
                  ) -> tuple[float, float]:
    """Outward unit normal at ``(x, y)`` on the disk of radius ``eps``."""
    nx, ny = (x - cx) / eps, (y - cy) / eps
    h = math.hypot(nx, ny)
    return nx / h, ny / h


def first_arc_hit(centers, orbit_center, velocity_angle: float,
                  b_magnitude: float, eps: float):
    """First impact of a counterclockwise orbit on disks of radius ``eps``.

    The orbit has radius R = 1/B about ``orbit_center`` (a pair of floats)
    and starts with velocity angle ``velocity_angle``; ``centers`` is an
    (n, 2) array of disk centers.  Only centers in the annulus
    R - eps < d < R + eps can be hit.  Returns ``(length, k, n)``: the arc
    length to impact, below one revolution, the row of ``centers`` hit and
    the outward unit normal there, a pair of floats.  None when no disk is
    hit within one revolution.  Grazing contacts (|v.n| below
    ``GRAZING_TOL``) and stale contacts (flight times below
    ``DEPARTURE_GUARD``) are skipped.  The annulus rows are found with
    numpy; they are few, so each one's sweep is taken with ``math``, and
    they are ordered by sweep, then by row, and checked in Python.
    """
    ox, oy = orbit_center
    r = 1.0 / b_magnitude
    dx = centers[:, 0] - ox
    dy = centers[:, 1] - oy
    d_sq = dx * dx + dy * dy
    rows = ((d_sq > (r - eps) ** 2) & (d_sq < (r + eps) ** 2)).nonzero()[0]
    if not len(rows):
        return None
    phase0 = velocity_angle - 0.5 * math.pi
    candidates = []
    for k, ex, ey, e_sq in zip(rows.tolist(), dx[rows].tolist(),
                               dy[rows].tolist(), d_sq[rows].tolist()):
        d = math.sqrt(e_sq)
        cos_g = (d * d + r * r - eps * eps) / (2.0 * d * r)
        gamma = math.acos(min(max(cos_g, -1.0), 1.0))
        candidates.append(((math.atan2(ey, ex) - gamma - phase0) % TWO_PI, k))
    guard_sweep = DEPARTURE_GUARD * b_magnitude
    for sw, k in sorted(candidates):
        if sw <= guard_sweep:
            continue
        hit_phase = phase0 + sw
        cx, cy = centers[k].tolist()
        nx, ny = impact_normal(ox + r * math.cos(hit_phase),
                               oy + r * math.sin(hit_phase), cx, cy, eps)
        a = velocity_angle + sw
        if math.cos(a) * nx + math.sin(a) * ny >= -GRAZING_TOL:
            continue
        return sw * r, k, (nx, ny)
    return None


def first_ray_entry(centers, position, v, eps: float, max_len: float):
    """First entry of the ray ``position + tau v`` into disks of radius ``eps``.

    ``centers`` is an (n, 2) array of disk centers, ``position`` a point
    and ``v`` a unit vector, each a pair of floats.  Returns ``(tau, k, n)``
    with the flight time to impact, within (``DEPARTURE_GUARD``,
    ``max_len``], the row of ``centers`` hit and the outward unit normal
    there, a pair of floats; None when no disk is entered.  Grazing lines
    (half-chord below ``eps * GRAZING_TOL``) are misses.  Every row is
    computed elementwise from the two coordinate columns, so a row's hit
    time does not depend on the other rows of ``centers``.
    """
    x, y = map(float, position)
    v0, v1 = map(float, v)
    rx = centers[:, 0] - x
    ry = centers[:, 1] - y
    proj = rx * v0 + ry * v1
    perp_sq = (rx * rx + ry * ry) - proj * proj
    disc = eps * eps - perp_sq
    rows = (disc > (eps * GRAZING_TOL) ** 2).nonzero()[0]
    if not len(rows):
        return None
    best = None
    for t, k in zip((proj[rows] - np.sqrt(disc[rows])).tolist(),
                    rows.tolist()):
        if DEPARTURE_GUARD < t <= max_len and (best is None or t < best[0]):
            best = t, k
    if best is None:
        return None
    t, k = best
    cx, cy = centers[k].tolist()
    return t, k, impact_normal(x + t * v0, y + t * v1, cx, cy, eps)


def arc_passes_within(points, orbit_center, radius: float, phase0: float,
                      sweep: float, reach: float) -> bool:
    """Whether the arc swept counterclockwise by ``sweep`` from ``phase0``
    passes within ``reach`` of any of ``points``, pairs of floats.

    A point is as far from the arc as from the circle when its polar angle
    lies on the arc, else as far as from the nearer end; one ``hypot``
    gives the circle distance and cuts the points beyond reach of it.
    """
    ox, oy = orbit_center
    ends = None
    for x, y in points:
        dx, dy = x - ox, y - oy
        radial = abs(math.hypot(dx, dy) - radius)
        if radial > reach:
            continue
        if (math.atan2(dy, dx) - phase0) % TWO_PI <= sweep:
            return True
        if ends is None:
            ends = [(ox + radius * math.cos(p), oy + radius * math.sin(p))
                    for p in (phase0, phase0 + sweep)]
        if min(math.hypot(x - ex, y - ey) for ex, ey in ends) <= reach:
            return True
    return False


def reflect(velocity_angle: float, nx: float, ny: float) -> float:
    """Angle of the elastically reflected velocity v' = v - 2 (v.n) n.

    Applying the map twice with the same normal is the identity.
    """
    c, s = math.cos(velocity_angle), math.sin(velocity_angle)
    vn2 = 2.0 * (c * nx + s * ny)
    return normalize_angle(math.atan2(s - vn2 * ny, c - vn2 * nx))


def deflection_from_impact(b_norm):
    """Signed deflection angle for a normalized impact parameter in [-1, 1].

    Head-on impact (b = 0) deflects by +pi; grazing impact (|b| = 1) passes
    undeflected; in between ``|deflection| = pi - 2 asin|b|`` with the sign
    of b, so that ``cos(deflection) = 2 b^2 - 1`` exactly.  Accepts scalars
    or arrays.
    """
    b = np.asarray(b_norm, dtype=float)
    out = np.abs(b, out=np.empty_like(b))
    if not np.all(out <= 1.0):
        raise ValueError("normalized impact parameter must lie in [-1, 1]")
    np.arcsin(out, out=out)
    out *= 2.0
    np.subtract(math.pi, out, out=out)
    np.copysign(out, b, out=out)
    out[b == 0.0] = math.pi
    if np.isscalar(b_norm) or getattr(b_norm, "shape", None) == ():
        return float(out)
    return out
