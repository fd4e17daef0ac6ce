import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from poinames.corpus import PoiRecord, tokenize
from poinames.geo import (
    WGS84_A,
    WGS84_F,
    GeoPoint,
    distance_matrix,
    region_centroid,
    vincenty_distance,
)

REFERENCE_TABLE = Path(__file__).parent / "data" / "geodesic_reference.tsv"


def poi(lat, lon):
    return PoiRecord(name="x", region_id="a", latitude=lat, longitude=lon,
                     categories=frozenset(), tokens=tokenize("x"))


class TestGeoPoint:
    def test_bounds(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, -181.0)


class TestCentroid:
    def test_mean(self):
        c = region_centroid([poi(10.0, 20.0), poi(20.0, 40.0)])
        assert (c.latitude, c.longitude) == (15.0, 30.0)

    def test_single_point(self):
        c = region_centroid([poi(33.4, -112.1)])
        assert (c.latitude, c.longitude) == (33.4, -112.1)

    def test_repeated_point(self):
        c = region_centroid([poi(33.4, -112.1)] * 100)
        assert c.latitude == pytest.approx(33.4, abs=1e-12)
        assert c.longitude == pytest.approx(-112.1, abs=1e-12)

    def test_empty(self):
        with pytest.raises(ValueError):
            region_centroid([])


def meridian_arc(deg: float) -> float:
    """Independent oracle: quadrature of the meridional radius of curvature."""
    e2 = WGS84_F * (2.0 - WGS84_F)
    integrand = lambda phi: WGS84_A * (1.0 - e2) / (1.0 - e2 * math.sin(phi) ** 2) ** 1.5
    value, _ = quad(integrand, 0.0, math.radians(deg), epsrel=1e-13)
    return value


class TestVincenty:
    def test_identical_points(self):
        assert vincenty_distance(GeoPoint(33.4, -112.1), GeoPoint(33.4, -112.1)) == 0.0

    def test_equatorial_degree(self):
        d = vincenty_distance(GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0))
        assert d == pytest.approx(111319.491, abs=0.01)
        assert d == pytest.approx(WGS84_A * math.pi / 180.0, abs=0.01)

    def test_meridional_degree(self):
        d = vincenty_distance(GeoPoint(0.0, 0.0), GeoPoint(1.0, 0.0))
        assert d == pytest.approx(110574.389, abs=0.01)
        assert d == pytest.approx(meridian_arc(1.0), abs=0.01)

    def test_oblateness(self):
        equatorial = vincenty_distance(GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0))
        meridional = vincenty_distance(GeoPoint(0.0, 0.0), GeoPoint(1.0, 0.0))
        assert equatorial > meridional

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = GeoPoint(float(rng.uniform(25, 49)), float(rng.uniform(-124, -67)))
            b = GeoPoint(float(rng.uniform(25, 49)), float(rng.uniform(-124, -67)))
            assert vincenty_distance(a, b) == vincenty_distance(b, a)

    def test_agrees_with_frozen_oracle(self):
        # values precomputed with an independent high-precision geodesic
        # solver; see tests/data/make_geodesic_reference.py
        rows = REFERENCE_TABLE.read_text().splitlines()[1:]
        assert len(rows) == 50
        for row in rows:
            lat1, lon1, lat2, lon2, expected = (float(v) for v in row.split("\t"))
            d = vincenty_distance(GeoPoint(lat1, lon1), GeoPoint(lat2, lon2))
            assert abs(d - expected) < 1e-3, (lat1, lon1, lat2, lon2)

    def test_near_antipodal_raises(self):
        with pytest.raises(RuntimeError, match="converge"):
            vincenty_distance(GeoPoint(0.0, 0.0), GeoPoint(0.5, 179.7))


class TestDistanceMatrix:
    def test_seven_regions(self):
        rng = np.random.default_rng(12)
        centroids = {
            f"r{i}": GeoPoint(float(rng.uniform(25, 49)), float(rng.uniform(-124, -67)))
            for i in range(7)
        }
        dm = distance_matrix(centroids)
        assert dm.values.shape == (7, 7)
        assert np.array_equal(dm.values, dm.values.T)
        assert np.all(np.diag(dm.values) == 0.0)
        upper = dm.values[np.triu_indices(7, k=1)]
        assert len(set(upper.tolist())) == 21  # random metros: all pairs distinct

    def test_duplicate_centroids(self):
        dm = distance_matrix({"a": GeoPoint(10.0, 10.0), "b": GeoPoint(10.0, 10.0)})
        assert dm.values[0, 1] == 0.0

    def test_needs_two_regions(self):
        with pytest.raises(ValueError):
            distance_matrix({"a": GeoPoint(0.0, 0.0)})
