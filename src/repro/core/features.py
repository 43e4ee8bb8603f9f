"""Feature extraction for the JSONPath Predictor (paper §IV-A).

For each JSONPath the paper feeds the model: *database name*, *table
name*, *column name* (location features — "JSONPaths in the same data
source often appear together"), the *Count sequence* (access counts per
day) and the *Datediff sequence* (how old each count is).

Two encodings are produced from the same statistics window:

* **sequence features** ``(T, D)`` for LSTM-family models — one timestep
  per history day, each carrying [count, log1p(count), datediff,
  was-MPJP, location one-hots]; the final timestep is "tomorrow" with its
  count masked to -1 (that is the label to predict);
* **flat features** — the same window concatenated into a single vector
  for LR / SVM / MLP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..workload.trace import MPJP_THRESHOLD, PathKey
from .collector import JsonPathCollector

__all__ = ["FeatureConfig", "FeatureExtractor", "LabelledDataset"]

#: Dimensionality of each hashed location one-hot block.
_LOCATION_BUCKETS = 8


def _location_bucket(text: str) -> int:
    """Stable small-range hash (Python's hash() is salted per process)."""
    value = 2166136261
    for ch in text.encode("utf-8"):
        value = ((value ^ ch) * 16777619) & 0xFFFFFFFF
    return value % _LOCATION_BUCKETS


@dataclass(frozen=True)
class FeatureConfig:
    """Windowing parameters.

    ``window_days`` is the paper's "Date Window Size" (1 week / 2 weeks /
    1 month in Table IV). The MPJP rule the labels and the ``was_mpjp``
    feature read is :data:`~repro.workload.trace.MPJP_THRESHOLD`.
    """

    window_days: int = 7


@dataclass
class LabelledDataset:
    """Aligned features/labels for one prediction day.

    ``sequences[i]`` is (T, D); ``sequence_labels[i]`` is (T,) with the
    final element being the target-day label. ``flat`` is (N, F) and
    ``labels`` is (N,) with just the target-day label — the flat models'
    view. ``keys[i]`` identifies the JSONPath of row i.
    """

    keys: list[PathKey]
    sequences: list[np.ndarray]
    sequence_labels: list[np.ndarray]
    flat: np.ndarray
    labels: np.ndarray


class FeatureExtractor:
    """Build model inputs from collector statistics."""

    def __init__(self, config: FeatureConfig | None = None) -> None:
        self.config = config or FeatureConfig()

    @property
    def timestep_dim(self) -> int:
        """Features per timestep: 4 temporal + 3 hashed location blocks."""
        return 4 + 3 * _LOCATION_BUCKETS

    def _location_vector(self, key: PathKey) -> np.ndarray:
        vec = np.zeros(3 * _LOCATION_BUCKETS)
        vec[_location_bucket(key.database)] = 1.0
        vec[_LOCATION_BUCKETS + _location_bucket(key.table)] = 1.0
        vec[2 * _LOCATION_BUCKETS + _location_bucket(key.column)] = 1.0
        return vec

    def sequence_for(
        self,
        collector: JsonPathCollector,
        key: PathKey,
        target_day: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(T, D) feature sequence and (T,) labels ending at target_day.

        The window covers the ``window_days`` days before ``target_day``
        plus the target day itself as a masked final timestep.
        """
        cfg = self.config
        history = list(range(target_day - cfg.window_days, target_day))
        location = self._location_vector(key)
        rows: list[np.ndarray] = []
        labels: list[int] = []
        for day in history:
            count = collector.count(key, day) if day >= 0 else 0
            # Scaled to O(1) magnitudes: unnormalised counts/datediffs
            # saturate the LSTM gates and stall training.
            datediff = (target_day - day) / cfg.window_days
            was_mpjp = float(count >= MPJP_THRESHOLD)
            temporal = np.array(
                [min(count, 50) / 10.0, np.log1p(count), datediff, was_mpjp]
            )
            rows.append(np.concatenate([temporal, location]))
            labels.append(int(count >= MPJP_THRESHOLD))
        # Target day: count unknown at prediction time -> masked.
        masked = np.array([-1.0, -1.0, 0.0, -1.0])
        rows.append(np.concatenate([masked, location]))
        labels.append(collector.mpjp_label(key, target_day))
        return np.stack(rows), np.array(labels, dtype=int)

    def dataset(
        self,
        collector: JsonPathCollector,
        target_days: list[int],
        keys: list[PathKey] | None = None,
    ) -> LabelledDataset:
        """Build a labelled dataset over (path x target_day) examples.

        For training, labels come from the collector (the target day has
        already happened); for inference, call :meth:`sequence_for` with a
        future day and ignore the final label.
        """
        universe = keys if keys is not None else collector.universe
        out_keys: list[PathKey] = []
        sequences: list[np.ndarray] = []
        sequence_labels: list[np.ndarray] = []
        flats: list[np.ndarray] = []
        labels: list[int] = []
        for target_day in target_days:
            for key in universe:
                seq, lab = self.sequence_for(collector, key, target_day)
                out_keys.append(key)
                sequences.append(seq)
                sequence_labels.append(lab)
                flats.append(self.flatten(seq))
                labels.append(int(lab[-1]))
        return LabelledDataset(
            keys=out_keys,
            sequences=sequences,
            sequence_labels=sequence_labels,
            flat=np.stack(flats) if flats else np.zeros((0, 0)),
            labels=np.array(labels, dtype=int),
        )

    @staticmethod
    def flatten(sequence: np.ndarray) -> np.ndarray:
        """Flat-model view: order-free aggregates of the window.

        The paper's LR/SVM/MLP baselines "cannot take into account date
        sequences" (Table III discussion) — they see the location features
        plus summary statistics of the count window, not the per-day
        sequence. This is what produces their characteristic
        high-precision / low-recall profile: strong steady daily signals
        are caught, weekly and bursty patterns are not.
        """
        history = sequence[:-1]  # drop the masked target step
        counts = history[:, 0] * 10.0  # undo the sequence-feature scaling
        location = sequence[0, 4:]
        yesterday = counts[-1] if len(counts) else 0.0
        aggregates = np.array(
            [
                yesterday,
                np.log1p(max(yesterday, 0.0)),
                float(yesterday >= MPJP_THRESHOLD),
                counts.mean() if len(counts) else 0.0,
                counts.max() if len(counts) else 0.0,
                float(np.mean(counts >= MPJP_THRESHOLD)) if len(counts) else 0.0,
                float(np.mean(counts > 0)) if len(counts) else 0.0,
            ]
        )
        return np.concatenate([aggregates, location])
