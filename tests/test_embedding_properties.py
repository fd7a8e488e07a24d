"""Property tests for the coordinate embedding on random metric data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.embedding import embed_pdistances, embedding_quality
from repro.core.pdistance import PDistanceMap
from tests.conftest import view_of, view_pairs


def euclidean_view(points: np.ndarray) -> PDistanceMap:
    pids = tuple(f"P{i}" for i in range(points.shape[0]))
    distances = {}
    for i, a in enumerate(pids):
        for j, b in enumerate(pids):
            distances[(a, b)] = float(np.linalg.norm(points[i] - points[j]))
    return view_of(pids, distances)


class TestEmbeddingProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=3, max_value=8),
        st.integers(min_value=0, max_value=1000),
    )
    def test_euclidean_data_embeds_near_perfectly(self, n_points, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(0.0, 100.0, size=(n_points, 2))
        view = euclidean_view(points)
        embedding = embed_pdistances(view, dimensions=2)
        quality = embedding_quality(view, embedding)
        assert quality.stress < 0.02

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=4, max_value=8), st.integers(min_value=0, max_value=500))
    def test_reconstruction_is_symmetric_and_nonnegative(self, n_points, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(0.0, 50.0, size=(n_points, 3))
        view = euclidean_view(points)
        embedding = embed_pdistances(view, dimensions=3)
        for src in embedding.pids:
            for dst in embedding.pids:
                forward = embedding.distance(src, dst)
                assert forward >= 0
                assert forward == pytest.approx(embedding.distance(dst, src))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=300))
    def test_smacof_never_hurts(self, seed):
        """Refinement should not worsen the classical-MDS stress."""
        rng = np.random.default_rng(seed)
        points = rng.uniform(0.0, 10.0, size=(7, 2))
        # Perturb into a non-Euclidean dissimilarity.
        view_base = euclidean_view(points)
        noisy = {
            pair: value * float(rng.uniform(0.8, 1.2)) if pair[0] != pair[1] else 0.0
            for pair, value in view_pairs(view_base).items()
        }
        # Re-symmetrize so the map is a valid dissimilarity.
        for (a, b) in list(noisy):
            mean = 0.5 * (noisy[(a, b)] + noisy[(b, a)])
            noisy[(a, b)] = noisy[(b, a)] = mean
        view = view_of(view_base.pids, noisy)
        raw = embedding_quality(view, embed_pdistances(view, 2, smacof_iterations=0))
        refined = embedding_quality(view, embed_pdistances(view, 2, smacof_iterations=60))
        assert refined.stress <= raw.stress + 1e-6
