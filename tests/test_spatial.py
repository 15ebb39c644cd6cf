"""Exactness of the nearest-neighbour lookups against brute force.

The soil layers (``CategoricalField``) and distance-to-intersection
(``TrafficNetwork``) are the two nearest-point queries behind the Table
18.2 covariates. Both must agree with an ``argmin`` over every point.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gis.fields import CategoricalField
from repro.gis.traffic import TrafficNetwork
from repro.network.geometry import BoundingBox


def brute_nearest(pts, queries):
    """Index of the closest point to each query, by ``argmin`` over all points."""
    pts = np.asarray(pts, dtype=float)
    q = np.asarray(queries, dtype=float).reshape(-1, 2)
    d = np.hypot(q[:, 0, None] - pts[None, :, 0], q[:, 1, None] - pts[None, :, 1])
    return np.argmin(d, axis=1), d.min(axis=1)


def labelled_field(seeds):
    """Field whose label is each seed's own index, so a label names its seed."""
    labels = [str(i) for i in range(len(seeds))]
    return CategoricalField(seeds=np.asarray(seeds, dtype=float), labels=labels, categories=labels)


def hypot_to(pts, queries, idx):
    """``math.hypot`` from each query to point ``idx[i]``."""
    return np.array(
        [math.hypot(qx - pts[i][0], qy - pts[i][1]) for (qx, qy), i in zip(queries, idx)]
    )


class TestCategoricalFieldNearest:
    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(0)
        seeds = rng.uniform(0, 1000, size=(300, 2))
        queries = rng.uniform(-100, 1100, size=(2000, 2))
        idx, _ = brute_nearest(seeds, queries)
        assert labelled_field(seeds).values_at(queries) == [str(i) for i in idx]

    def test_clustered_seeds(self):
        rng = np.random.default_rng(1)
        seeds = np.concatenate([rng.normal(0, 1, (50, 2)), rng.normal(500, 1, (50, 2))])
        queries = np.array([[250.0, 250.0], [0.0, 0.0], [500.0, 500.0], [-3.0, 700.0]])
        idx, _ = brute_nearest(seeds, queries)
        assert labelled_field(seeds).values_at(queries) == [str(i) for i in idx]

    def test_single_seed(self):
        field = labelled_field([[1.0, 1.0]])
        assert field.values_at([(4.0, 5.0), (-1e6, 1e6), (1.0, 1.0)]) == ["0", "0", "0"]

    def test_query_on_seed(self):
        field = labelled_field([(0.0, 0.0), (10.0, 0.0), (5.0, 5.0)])
        assert field.value_at((5.0, 5.0)) == "2"

    def test_queries_far_outside(self):
        rng = np.random.default_rng(2)
        seeds = rng.uniform(0, 100, size=(40, 2))
        queries = np.array([[1e7, -1e7], [-5e6, 50.0], [50.0, 9e8]])
        idx, _ = brute_nearest(seeds, queries)
        assert labelled_field(seeds).values_at(queries) == [str(i) for i in idx]

    def test_value_at_is_values_at_of_one(self):
        rng = np.random.default_rng(3)
        box = BoundingBox(0.0, 0.0, 1000.0, 1000.0)
        field = CategoricalField.random(box, ["a", "b", "c"], 30, rng, weights=(0.5, 0.3, 0.2))
        for p in rng.uniform(-50, 1050, size=(200, 2)):
            assert field.value_at(tuple(p)) == field.values_at([p])[0]

    def test_accepts_list_of_tuples_and_array(self):
        rng = np.random.default_rng(4)
        field = labelled_field(rng.uniform(0, 10, size=(20, 2)))
        queries = rng.uniform(0, 10, size=(30, 2))
        assert field.values_at([tuple(q) for q in queries]) == field.values_at(queries)

    def test_no_queries(self):
        assert labelled_field([[0.0, 0.0]]).values_at([]) == []

    def test_rejects_no_seeds(self):
        with pytest.raises(ValueError):
            CategoricalField(seeds=np.zeros((0, 2)), labels=[], categories=[])


class TestTrafficDistanceNearest:
    def test_bit_identical_to_hypot_of_brute_nearest(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 5000, size=(400, 2))
        queries = rng.uniform(-200, 5200, size=(3000, 2))
        idx, _ = brute_nearest(pts, queries)
        got = TrafficNetwork(intersections=pts).distance_to_nearest(queries)
        np.testing.assert_array_equal(got, hypot_to(pts, queries, idx))

    def test_single_intersection(self):
        net = TrafficNetwork(intersections=np.array([[1.0, 1.0]]))
        assert net.distance_to_nearest([(4.0, 5.0)])[0] == 5.0

    def test_queries_far_outside(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 100, size=(40, 2))
        queries = np.array([[1e7, -1e7], [-5e6, 50.0], [50.0, 9e8]])
        idx, _ = brute_nearest(pts, queries)
        got = TrafficNetwork(intersections=pts).distance_to_nearest(queries)
        np.testing.assert_array_equal(got, hypot_to(pts, queries, idx))

    def test_identical_intersections_far_query(self):
        net = TrafficNetwork(intersections=np.full((25, 2), 3.0))
        assert net.distance_to_nearest([(3.0 + 3e6, 3.0 + 4e6)])[0] == 5e6

    def test_no_queries(self):
        out = TrafficNetwork(intersections=np.array([[0.0, 0.0]])).distance_to_nearest([])
        assert out.shape == (0,)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        ),
        st.tuples(
            st.floats(min_value=-50, max_value=150, allow_nan=False),
            st.floats(min_value=-50, max_value=150, allow_nan=False),
        ),
    )
    def test_property_nearest(self, pts, q):
        # Duplicate or equidistant points may tie: any tied point is exact.
        _, best = brute_nearest(pts, [q])
        got = TrafficNetwork(intersections=np.asarray(pts)).distance_to_nearest([q])[0]
        assert got == pytest.approx(best[0], rel=1e-12, abs=1e-12)
        label = labelled_field(pts).value_at(q)
        tied = hypot_to(pts, [q], [int(label)])[0]
        assert tied == pytest.approx(best[0], rel=1e-12, abs=1e-12)
