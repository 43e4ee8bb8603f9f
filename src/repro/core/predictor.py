"""JSONPath Predictor (paper §IV-A): the model zoo behind MPJP prediction.

Wraps the NumPy models of :mod:`repro.ml` behind one interface:
``fit(collector, train_days)`` then ``predict(collector, target_day)``
returning the set of paths predicted to be Multiple-Parsed JSONPaths on
``target_day``. Model names match the paper's comparison:

====================  =====================================================
``"lr"``              logistic regression (Table III row 1)
``"svm"``             linear SVM, squared hinge (row 2)
``"mlp"``             MLP classifier (row 3)
``"lstm"``            Uni-LSTM sequence labeller (Table IV comparator)
``"lstm_crf"``        the proposed LSTM+CRF hybrid (rows 4 / Table IV)
``"oracle"``          ground truth (upper bound, for ablations)
``"always"``          predicts every path (cache-everything baseline)
====================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ml.linear import LogisticRegression
from ..ml.lstm import LSTMSequenceClassifier
from ..ml.lstm_crf import LSTMCRFTagger
from ..ml.metrics import PRF, precision_recall_f1
from ..ml.mlp import MLPClassifier
from ..ml.preprocessing import StandardScaler
from ..ml.svm import LinearSVM
from ..workload.trace import PathKey
from .collector import JsonPathCollector
from .features import FeatureConfig, FeatureExtractor

__all__ = ["PredictorConfig", "JsonPathPredictor", "MODEL_NAMES"]

MODEL_NAMES = ("lr", "svm", "mlp", "lstm", "lstm_crf", "oracle", "always")


@dataclass
class PredictorConfig:
    """Model choice plus feature windowing."""

    model: str = "lstm_crf"
    window_days: int = 7
    hidden_size: int = 50
    num_layers: int = 2
    epochs: int = 8
    learning_rate: float = 5e-3
    all_possible_transitions: bool = True
    seed: int = 0


class JsonPathPredictor:
    """Predict tomorrow's MPJPs from collector statistics."""

    def __init__(self, config: PredictorConfig | None = None) -> None:
        self.config = config or PredictorConfig()
        if self.config.model not in MODEL_NAMES:
            raise ValueError(
                f"unknown model {self.config.model!r}; choose from {MODEL_NAMES}"
            )
        self.extractor = FeatureExtractor(
            FeatureConfig(window_days=self.config.window_days)
        )
        self._model = None
        self._scaler: StandardScaler | None = None
        self._is_sequence_model = self.config.model in ("lstm", "lstm_crf")

    # ------------------------------------------------------------------
    def _build_model(self):
        cfg = self.config
        if cfg.model == "lr":
            return LogisticRegression(max_iterations=400, seed=cfg.seed)
        if cfg.model == "svm":
            return LinearSVM(max_iter=400, seed=cfg.seed)
        if cfg.model == "mlp":
            return MLPClassifier(max_iter=300, random_state=cfg.seed)
        if cfg.model == "lstm":
            return LSTMSequenceClassifier(
                input_size=self.extractor.timestep_dim,
                hidden_size=cfg.hidden_size,
                num_layers=cfg.num_layers,
                learning_rate=cfg.learning_rate,
                epochs=cfg.epochs,
                seed=cfg.seed,
            )
        if cfg.model == "lstm_crf":
            return LSTMCRFTagger(
                input_size=self.extractor.timestep_dim,
                hidden_size=cfg.hidden_size,
                num_layers=cfg.num_layers,
                learning_rate=cfg.learning_rate,
                epochs=cfg.epochs,
                all_possible_transitions=cfg.all_possible_transitions,
                seed=cfg.seed,
            )
        return None  # oracle / always need no fitting

    # ------------------------------------------------------------------
    def fit(
        self,
        collector: JsonPathCollector,
        train_days: list[int],
        keys: list[PathKey] | None = None,
    ) -> "JsonPathPredictor":
        """Train on (path, target_day) examples for each day in train_days."""
        if self.config.model in ("oracle", "always"):
            return self
        dataset = self.extractor.dataset(collector, train_days, keys)
        self._model = self._build_model()
        if self._is_sequence_model:
            self._model.fit(dataset.sequences, dataset.sequence_labels)
        else:
            self._scaler = StandardScaler()
            X = self._scaler.fit_transform(dataset.flat)
            self._model.fit(X, dataset.labels)
        return self

    def predict_labels(
        self,
        collector: JsonPathCollector,
        target_day: int,
        keys: list[PathKey] | None = None,
    ) -> tuple[list[PathKey], np.ndarray]:
        """Per-path 0/1 MPJP predictions for target_day."""
        universe = keys if keys is not None else collector.universe
        if self.config.model == "always":
            return universe, np.ones(len(universe), dtype=int)
        if self.config.model == "oracle":
            labels = np.array(
                [collector.mpjp_label(key, target_day) for key in universe],
                dtype=int,
            )
            return universe, labels
        if self._model is None:
            raise RuntimeError("predictor used before fit()")
        sequences = [
            self.extractor.sequence_for(collector, key, target_day)[0]
            for key in universe
        ]
        if self._is_sequence_model:
            predictions = self._model.predict_last(sequences)
        else:
            flat = np.stack([self.extractor.flatten(s) for s in sequences])
            predictions = self._model.predict(self._scaler.transform(flat))
        return universe, np.asarray(predictions, dtype=int)

    def predict(
        self,
        collector: JsonPathCollector,
        target_day: int,
        keys: list[PathKey] | None = None,
    ) -> set[PathKey]:
        """The predicted MPJP set for target_day."""
        universe, labels = self.predict_labels(collector, target_day, keys)
        return {key for key, label in zip(universe, labels) if label == 1}

    # ------------------------------------------------------------------
    def evaluate(
        self,
        collector: JsonPathCollector,
        eval_days: list[int],
        keys: list[PathKey] | None = None,
    ) -> PRF:
        """Precision/recall/F1 against ground-truth MPJP labels."""
        y_true: list[int] = []
        y_pred: list[int] = []
        for day in eval_days:
            universe, labels = self.predict_labels(collector, day, keys)
            for key, label in zip(universe, labels):
                y_true.append(collector.mpjp_label(key, day))
                y_pred.append(int(label))
        return precision_recall_f1(np.array(y_true), np.array(y_pred))
