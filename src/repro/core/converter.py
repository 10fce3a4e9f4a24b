"""The prediction converter (§3.2 step 2).

After the meta-learner has combined the base learners' predictions for
every data instance of a source tag, the prediction converter collapses
those per-instance predictions into a single prediction for the tag.
"Currently the prediction converter simply computes the average score of
each label from the given predictions" — the ``mean`` strategy; ``median``
and ``max`` are provided for robustness experiments.

:meth:`PredictionConverter.convert_slices` collapses *every* tag column
of a flat score matrix in one grouped reduction (``ufunc.reduceat`` for
``mean``/``max``), which is how the matching pipeline consumes it. The
per-tag :meth:`~PredictionConverter.convert` routes through the same
kernel, so the two entry points are bitwise interchangeable — reduceat
sums a segment sequentially no matter how segments are grouped, whereas
mixing it with ``np.mean`` (pairwise summation) would not be.

The converter itself is stateless (one strategy string) and never
writes its inputs: both reductions allocate fresh output arrays, so a
read-only score matrix flows through untouched. ``np.asarray`` on such
input returns it as-is rather than copying.
"""

from __future__ import annotations

import numpy as np

_STRATEGIES = ("mean", "median", "max")


class PredictionConverter:
    """Collapses an ``(n_instances, n_labels)`` matrix to one score row."""

    def __init__(self, strategy: str = "mean") -> None:
        if strategy not in _STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; choose from {_STRATEGIES}")
        self.strategy = strategy

    def convert(self, instance_scores: np.ndarray) -> np.ndarray:
        """One normalised score row for the whole column.

        An empty column (the tag never occurred in the extracted sample)
        yields a uniform row: the data gives no evidence either way. A
        reduced row whose total is non-finite (a NaN or infinity leaked
        in from a degenerate upstream score) or non-positive also falls
        back to the uniform row instead of silently propagating — the
        guard is ``np.isfinite(total) and total > 0``, because a bare
        ``total <= 0.0`` comparison is *False* for NaN and would let the
        poison through.
        """
        matrix = np.asarray(instance_scores, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("expected an (n_instances, n_labels) matrix")
        return self._reduce_bounds(matrix, [(0, matrix.shape[0])])[0]

    def convert_slices(self, instance_scores: np.ndarray,
                       slices: dict[str, slice]) -> dict[str, np.ndarray]:
        """One normalised score row per tag, in a single grouped pass.

        ``slices`` maps each tag to its contiguous row block of the flat
        ``instance_scores`` matrix (ascending, non-overlapping — the
        layout the matching pipeline builds). Each tag's row is bitwise
        identical to ``convert(instance_scores[slices[tag]])``: both
        paths share :meth:`_reduce_bounds`, including the empty-column
        and non-finite uniform fallbacks.
        """
        matrix = np.asarray(instance_scores, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("expected an (n_instances, n_labels) matrix")
        tags = list(slices)
        bounds = [slices[tag].indices(matrix.shape[0])[:2] for tag in tags]
        rows = self._reduce_bounds(matrix, bounds)
        return {tag: rows[i] for i, tag in enumerate(tags)}

    # ------------------------------------------------------------------
    def _reduce_bounds(self, matrix: np.ndarray,
                       bounds: list[tuple[int, int]]) -> np.ndarray:
        """One normalised row per ``(start, stop)`` segment.

        The shared kernel behind both entry points. ``mean``/``max``
        segments reduce with ``ufunc.reduceat`` — sequential within a
        segment, so grouping segments together cannot change a bit —
        and ``median`` reduces per segment (already deterministic).
        """
        n_labels = matrix.shape[1]
        uniform = np.full(n_labels, 1.0 / n_labels)
        rows = np.empty((len(bounds), n_labels))
        empty = np.array([stop <= start for start, stop in bounds])
        filled = [i for i, is_empty in enumerate(empty) if not is_empty]
        if filled:
            kept = [bounds[i] for i in filled]
            if self.strategy == "median":
                reduced = np.stack([
                    np.median(matrix[start:stop], axis=0)
                    for start, stop in kept])
            else:
                op = np.add if self.strategy == "mean" else np.maximum
                reduced = self._grouped_reduce(op, matrix, kept)
                if self.strategy == "mean":
                    counts = np.array([stop - start
                                       for start, stop in kept])
                    reduced = reduced / counts[:, None]
            rows[filled] = reduced
        # Normalise; non-finite or non-positive totals (and empty
        # segments) fall back to the uniform row. Any non-finite entry
        # poisons its row total, so one finiteness check on the total
        # covers the whole row.
        rows[empty] = uniform
        totals = rows.sum(axis=1, keepdims=True)
        good = np.isfinite(totals) & (totals > 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            rows = np.where(good, rows / np.where(good, totals, 1.0),
                            uniform)
        rows[empty] = uniform
        return rows

    @staticmethod
    def _grouped_reduce(op: np.ufunc, matrix: np.ndarray,
                        bounds: list[tuple[int, int]]) -> np.ndarray:
        """``op``-reduce each non-empty ``[start, stop)`` row segment.

        Ascending non-overlapping segments collapse to one ``reduceat``
        call over interleaved boundaries (dummy gap segments sliced
        away); anything else falls back to one ``reduceat`` per segment
        — the same sequential per-segment reduction, just not batched.
        """
        n = matrix.shape[0]
        indices: list[int] = []
        keep: list[int] = []
        batchable = True
        for i, (start, stop) in enumerate(bounds):
            next_start = bounds[i + 1][0] if i + 1 < len(bounds) else n
            if stop > next_start:
                batchable = False  # overlap: reduceat would mis-segment
                break
            keep.append(len(indices))
            indices.append(start)
            if stop < next_start:
                indices.append(stop)  # close the gap (dummy segment)
        batchable = batchable and all(
            a < b for a, b in zip(indices, indices[1:]))
        if batchable:
            grouped = op.reduceat(
                matrix, np.asarray(indices, dtype=np.intp), axis=0)
            return grouped[keep]
        return np.stack([
            op.reduceat(matrix[start:stop],
                        np.zeros(1, dtype=np.intp), axis=0)[0]
            for start, stop in bounds])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PredictionConverter({self.strategy!r})"
