"""Virtual coordinate embedding of p-distances (Sec. 9 / Sec. 10 future work).

The external view is a full mesh: ``O(n^2)`` entries per provider.  The
paper proposes virtual coordinate embedding as the scalability fix: the
iTracker publishes one low-dimensional coordinate per PID and clients
reconstruct ``p_ij ~ ||x_i - x_j||`` locally -- ``O(n * d)`` state, cacheable,
and composable across providers.

Implementation: classical multidimensional scaling (Torgerson) for the
initial solution, refined by SMACOF stress majorization -- routed
p-distances are generally non-Euclidean, where raw classical MDS leaves
substantial residual stress.  P-distances are not generally symmetric, so
the embedding works on the symmetrized map ``(p_ij + p_ji) / 2`` and
reports both the stress (relative RMS error) and the worst pairwise error
so an operator can judge whether the compression is acceptable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.pdistance import PDistanceMap


@dataclass(frozen=True)
class CoordinateEmbedding:
    """Per-PID virtual coordinates approximating a p-distance map."""

    pids: Tuple[str, ...]
    coordinates: np.ndarray  # shape (n_pids, dimensions)

    def __post_init__(self) -> None:
        if self.coordinates.shape[0] != len(self.pids):
            raise ValueError("one coordinate row per PID required")

    @property
    def dimensions(self) -> int:
        return self.coordinates.shape[1]

    def coordinate(self, pid: str) -> np.ndarray:
        return self.coordinates[self.pids.index(pid)]

    def distance(self, src: str, dst: str) -> float:
        """Reconstructed ``p_ij`` (Euclidean distance of the coordinates)."""
        if src == dst:
            return 0.0
        delta = self.coordinate(src) - self.coordinate(dst)
        return float(np.linalg.norm(delta))

    def state_size(self) -> int:
        """Floats a client must hold (vs ``n^2`` for the full mesh)."""
        return self.coordinates.size


@dataclass(frozen=True)
class EmbeddingQuality:
    """Fit diagnostics of an embedding against the true map."""

    stress: float  # relative RMS error over all ordered pairs
    max_relative_error: float
    compression_ratio: float  # full-mesh floats / embedding floats


def _symmetric_distance_matrix(view: PDistanceMap) -> Tuple[Tuple[str, ...], np.ndarray]:
    matrix = 0.5 * (view.matrix + view.matrix.T)
    np.fill_diagonal(matrix, 0.0)
    if np.isnan(matrix).any():
        raise ValueError("embedding needs every inter-PID p-distance")
    return view.pids, matrix


def _smacof(
    target: np.ndarray, coordinates: np.ndarray, iterations: int
) -> np.ndarray:
    """Stress majorization: iteratively move points to fit ``target``.

    Route-based p-distances are not Euclidean, so the classical MDS
    solution leaves residual stress that a few Guttman-transform steps
    reduce substantially.
    """
    n = target.shape[0]
    x = coordinates.copy()
    for _ in range(iterations):
        delta = x[:, None, :] - x[None, :, :]
        current = np.sqrt(np.sum(delta**2, axis=2))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(current > 1e-12, target / current, 0.0)
        b = -ratio
        np.fill_diagonal(b, 0.0)
        np.fill_diagonal(b, -b.sum(axis=1))
        x = (b @ x) / n
    return x


def embed_pdistances(
    view: PDistanceMap, dimensions: int = 4, smacof_iterations: int = 50
) -> CoordinateEmbedding:
    """Embed a (symmetrized) p-distance map into ``d`` dimensions.

    Classical MDS (Torgerson) provides the initial solution; SMACOF
    stress-majorization then refines it, which matters because routed
    p-distances are generally non-Euclidean.

    Args:
        view: The external view to compress.
        dimensions: Coordinate dimensionality ``d`` (clamped to ``n - 1``).
        smacof_iterations: Refinement steps (0 = raw classical MDS).

    Raises:
        ValueError: For fewer than 2 PIDs or non-positive dimensions.
    """
    pids, distance = _symmetric_distance_matrix(view)
    n = len(pids)
    if n < 2:
        raise ValueError("need at least two PIDs to embed")
    if dimensions < 1:
        raise ValueError("dimensions must be >= 1")
    if smacof_iterations < 0:
        raise ValueError("smacof_iterations must be >= 0")
    dimensions = min(dimensions, n - 1)

    # Torgerson double-centering: B = -1/2 J D^2 J.
    squared = distance**2
    centering = np.eye(n) - np.ones((n, n)) / n
    gram = -0.5 * centering @ squared @ centering
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    order = np.argsort(eigenvalues)[::-1][:dimensions]
    top_values = np.maximum(eigenvalues[order], 0.0)
    coordinates = eigenvectors[:, order] * np.sqrt(top_values)
    if smacof_iterations:
        coordinates = _smacof(distance, coordinates, smacof_iterations)
    return CoordinateEmbedding(pids=pids, coordinates=coordinates)


def embedding_quality(
    view: PDistanceMap, embedding: CoordinateEmbedding
) -> EmbeddingQuality:
    """Stress and worst-case error of an embedding vs the true map."""
    errors: List[float] = []
    truths: List[float] = []
    max_rel = 0.0
    for src in embedding.pids:
        for dst in embedding.pids:
            if src == dst:
                continue
            truth = 0.5 * (view.distance(src, dst) + view.distance(dst, src))
            approx = embedding.distance(src, dst)
            errors.append((approx - truth) ** 2)
            truths.append(truth**2)
            if truth > 1e-12:
                max_rel = max(max_rel, abs(approx - truth) / truth)
    denominator = float(np.sum(truths))
    stress = float(np.sqrt(np.sum(errors) / denominator)) if denominator > 0 else 0.0
    n = len(embedding.pids)
    full_mesh_floats = n * n
    return EmbeddingQuality(
        stress=stress,
        max_relative_error=max_rel,
        compression_ratio=full_mesh_floats / max(1, embedding.state_size()),
    )
