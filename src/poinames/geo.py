"""Region centroids and geodesic distances on the WGS-84 spheroid.

Distances use Vincenty's inverse formulae (oblate spheroid); the iteration
fails only near antipodal points, which never occur between US metros.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan, atan2, cos, fsum, radians, sin, sqrt, tan
from typing import Mapping, Sequence

from .corpus import PoiRecord
from .regionvec import RegionMatrix

WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563
WGS84_B = WGS84_A * (1.0 - WGS84_F)

_CONVERGENCE = 1e-12
_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class GeoPoint:
    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude}")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude out of range: {self.longitude}")


def region_centroid(pois: Sequence[PoiRecord]) -> GeoPoint:
    """Arithmetic mean of the POI coordinates (adequate at metro extent)."""
    if not pois:
        raise ValueError("cannot compute the centroid of an empty region")
    n = len(pois)
    return GeoPoint(
        latitude=fsum(p.latitude for p in pois) / n,
        longitude=fsum(p.longitude for p in pois) / n,
    )


def vincenty_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Inverse geodesic distance in meters between two points on WGS-84."""
    if a.latitude == b.latitude and a.longitude == b.longitude:
        return 0.0
    # canonical endpoint order makes d(a, b) and d(b, a) bit-identical
    if (b.latitude, b.longitude) < (a.latitude, a.longitude):
        a, b = b, a

    big_l = radians(b.longitude - a.longitude)
    u1 = atan((1.0 - WGS84_F) * tan(radians(a.latitude)))
    u2 = atan((1.0 - WGS84_F) * tan(radians(b.latitude)))
    sin_u1, cos_u1 = sin(u1), cos(u1)
    sin_u2, cos_u2 = sin(u2), cos(u2)

    lam = big_l
    for _ in range(_MAX_ITERATIONS):
        sin_lam, cos_lam = sin(lam), cos(lam)
        sin_sigma = sqrt(
            (cos_u2 * sin_lam) ** 2
            + (cos_u1 * sin_u2 - sin_u1 * cos_u2 * cos_lam) ** 2
        )
        if sin_sigma == 0.0:
            return 0.0  # coincident points
        cos_sigma = sin_u1 * sin_u2 + cos_u1 * cos_u2 * cos_lam
        sigma = atan2(sin_sigma, cos_sigma)
        sin_alpha = cos_u1 * cos_u2 * sin_lam / sin_sigma
        cos_sq_alpha = 1.0 - sin_alpha * sin_alpha
        if cos_sq_alpha == 0.0:
            cos_2sigma_m = 0.0  # equatorial geodesic
        else:
            cos_2sigma_m = cos_sigma - 2.0 * sin_u1 * sin_u2 / cos_sq_alpha
        c = WGS84_F / 16.0 * cos_sq_alpha * (4.0 + WGS84_F * (4.0 - 3.0 * cos_sq_alpha))
        lam_prev = lam
        lam = big_l + (1.0 - c) * WGS84_F * sin_alpha * (
            sigma
            + c
            * sin_sigma
            * (cos_2sigma_m + c * cos_sigma * (-1.0 + 2.0 * cos_2sigma_m**2))
        )
        if abs(lam - lam_prev) < _CONVERGENCE:
            break
    else:
        raise RuntimeError("vincenty did not converge (near-antipodal points)")

    u_sq = cos_sq_alpha * (WGS84_A**2 - WGS84_B**2) / WGS84_B**2
    big_a = 1.0 + u_sq / 16384.0 * (4096.0 + u_sq * (-768.0 + u_sq * (320.0 - 175.0 * u_sq)))
    big_b = u_sq / 1024.0 * (256.0 + u_sq * (-128.0 + u_sq * (74.0 - 47.0 * u_sq)))
    delta_sigma = (
        big_b
        * sin_sigma
        * (
            cos_2sigma_m
            + big_b
            / 4.0
            * (
                cos_sigma * (-1.0 + 2.0 * cos_2sigma_m**2)
                - big_b
                / 6.0
                * cos_2sigma_m
                * (-3.0 + 4.0 * sin_sigma**2)
                * (-3.0 + 4.0 * cos_2sigma_m**2)
            )
        )
    )
    return WGS84_B * big_a * (sigma - delta_sigma)


def distance_matrix(centroids: Mapping[str, GeoPoint]) -> RegionMatrix:
    """Pairwise Vincenty distances in meters between region centroids, zero diagonal."""
    import numpy as np
    if len(centroids) < 2:
        raise ValueError("distance matrix needs at least 2 regions")
    regions = tuple(sorted(centroids))
    n = len(regions)
    values = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            d = vincenty_distance(centroids[regions[i]], centroids[regions[j]])
            values[i, j] = d
            values[j, i] = d
    return RegionMatrix(regions=regions, values=values)
