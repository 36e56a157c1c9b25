"""Ticket text classifiers: tf-idf features, a one-vs-rest hinge-loss linear
model and a single-hidden-layer feedforward net, plus the agreement-gated
ensemble and the accuracy-targeted confidence threshold sweep.

Training is full-batch with a fixed seed, so identical data and seed always
yield identical parameters.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import TrainingError

_TOKEN_RE = re.compile(r"\w+")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


class TfidfVectorizer:
    """Unigram+bigram tf-idf with l2 normalization."""

    def __init__(self, max_features: int = 4000):
        self.max_features = max_features
        self.vocab: dict[str, int] = {}
        self.idf: np.ndarray | None = None

    @staticmethod
    def _terms(text: str) -> list[str]:
        toks = tokenize(text)
        return toks + [f"{a} {b}" for a, b in zip(toks, toks[1:])]

    def fit(self, texts: list[str]) -> "TfidfVectorizer":
        df: dict[str, int] = {}
        for text in texts:
            for term in set(self._terms(text)):
                df[term] = df.get(term, 0) + 1
        ranked = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))[:self.max_features]
        self.vocab = {term: i for i, term in enumerate(sorted(t for t, _ in ranked))}
        n = len(texts)
        self.idf = np.zeros(len(self.vocab))
        for term, i in self.vocab.items():
            self.idf[i] = np.log((1.0 + n) / (1.0 + df[term])) + 1.0
        return self

    def transform(self, texts: list[str]) -> np.ndarray:
        X = np.zeros((len(texts), len(self.vocab)))
        for row, text in enumerate(texts):
            for term in self._terms(text):
                i = self.vocab.get(term)
                if i is not None:
                    X[row, i] += 1.0
        X *= self.idf
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return X / norms


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))


def _softmax(Z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: of a vector, or of each row of a matrix."""
    E = np.exp(Z - Z.max(axis=-1, keepdims=True))
    return E / E.sum(axis=-1, keepdims=True)


# full-batch training: Platt calibration, then the two heads
_PLATT_ITERS = 500
_PLATT_LR = 0.5
_LINEAR_EPOCHS = 60
_LINEAR_LR = 1.0
_MLP_HIDDEN = 64
_MLP_EPOCHS = 120
_MLP_LR = 0.5
_REG = 1e-4  # L2 weight of both heads


def _fit_platt(scores: np.ndarray, correct: np.ndarray) -> tuple[float, float]:
    """1-D logistic fit of P(correct | score) on a non-empty holdout; deterministic."""
    # degenerate holdouts: fall back to a fixed squashing
    if correct.all():
        return 2.0, 1.0
    if not correct.any():
        return 1.0, -3.0
    a, b = 1.0, 0.0
    y = correct.astype(np.float64)
    for _ in range(_PLATT_ITERS):
        p = _sigmoid(a * scores + b)
        ga = ((p - y) * scores).mean()
        gb = (p - y).mean()
        a -= _PLATT_LR * ga
        b -= _PLATT_LR * gb
    return float(a), float(b)


@dataclass
class TextClassifierModel:
    kind: str  # linear_ovr_margin | feedforward_1hidden
    classes: list[str]
    params: dict
    calib_a: float
    calib_b: float

    def _scores(self, X: np.ndarray) -> np.ndarray:
        if self.kind == "linear_ovr_margin":
            return X @ self.params["W"].T + self.params["b"]
        H = np.maximum(0.0, X @ self.params["W1"].T + self.params["b1"])
        return H @ self.params["W2"].T + self.params["b2"]

    def _raw_confidence(self, scores: np.ndarray) -> np.ndarray:
        """Margin gap between the best and second-best of at least 2 classes."""
        part = np.sort(scores, axis=1)
        return part[:, -1] - part[:, -2]

    def predict(self, x: np.ndarray) -> tuple[str, float]:
        """Label and calibrated confidence for one tf-idf row of shape (1, V)."""
        scores = self._scores(x)
        idx = int(scores[0].argmax())
        conf = _sigmoid(self.calib_a * self._raw_confidence(scores)[0] + self.calib_b)
        return self.classes[idx], float(conf)


def _train_linear(X, yi, n_classes, seed):
    rng = np.random.RandomState(seed)
    W = rng.normal(0, 0.01, (n_classes, X.shape[1]))
    b = np.zeros(n_classes)
    Y = np.where(np.eye(n_classes)[yi] > 0, 1.0, -1.0)  # (n, c)
    n = len(yi)
    for t in range(_LINEAR_EPOCHS):
        step = _LINEAR_LR / (1.0 + 0.05 * t)
        M = X @ W.T + b  # margins
        active = (Y * M) < 1.0
        G = -(Y * active) / n  # subgradient of hinge
        W -= step * (G.T @ X + _REG * W)
        b -= step * G.sum(axis=0)
    return {"W": W, "b": b}


def _train_mlp(X, yi, n_classes, seed):
    rng = np.random.RandomState(seed)
    W1 = rng.normal(0, 0.05, (_MLP_HIDDEN, X.shape[1]))
    b1 = np.zeros(_MLP_HIDDEN)
    W2 = rng.normal(0, 0.05, (n_classes, _MLP_HIDDEN))
    b2 = np.zeros(n_classes)
    onehot = np.eye(n_classes)[yi]
    n = len(yi)
    for _ in range(_MLP_EPOCHS):
        H = np.maximum(0.0, X @ W1.T + b1)
        G = (_softmax(H @ W2.T + b2) - onehot) / n
        gW2 = G.T @ H + _REG * W2
        gb2 = G.sum(axis=0)
        GH = (G @ W2) * (H > 0)
        gW1 = GH.T @ X + _REG * W1
        gb1 = GH.sum(axis=0)
        W2 -= _MLP_LR * gW2
        b2 -= _MLP_LR * gb2
        W1 -= _MLP_LR * gW1
        b1 -= _MLP_LR * gb1
    return {"W1": W1, "b1": b1, "W2": W2, "b2": b2}


def _holdout_split(labels: list[str]) -> tuple[list[int], list[int]]:
    """Deterministic ~10% stratified holdout; small classes stay fully in train."""
    by_class: dict[str, list[int]] = {}
    for i, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(i)
    train, held = [], []
    for lab in sorted(by_class):
        idxs = by_class[lab]
        if len(idxs) >= 10:
            held.extend(idxs[::10])
            train.extend(i for k, i in enumerate(idxs) if k % 10)
        else:
            train.extend(idxs)
    return sorted(train), sorted(held)


def train_classifier(X, labels: list[str], kind: str,
                     seed: int = 0) -> TextClassifierModel:
    """Train a classifier with margin->probability calibration on X, the
    tf-idf rows of the labelled texts as a scipy.sparse CSR matrix. The
    training and holdout subsets are row slices of X and stay CSR: each
    product with them yields a dense array of scores or gradients, so no
    tickets x vocabulary array is ever dense."""
    if kind not in ("linear_ovr_margin", "feedforward_1hidden"):
        raise TrainingError(f"unknown classifier kind {kind!r}")
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise TrainingError("need at least 2 classes")
    if min(Counter(labels).values()) < 5:
        raise TrainingError("need at least 5 examples per class")

    train_idx, held_idx = _holdout_split(labels)
    Xtr = X[train_idx]
    ytr = np.array([classes.index(labels[i]) for i in train_idx])

    if kind == "linear_ovr_margin":
        params = _train_linear(Xtr, ytr, len(classes), seed)
    else:
        params = _train_mlp(Xtr, ytr, len(classes), seed)

    model = TextClassifierModel(kind, classes, params, 1.0, 0.0)
    if held_idx:
        scores = model._scores(X[held_idx])
        raw = model._raw_confidence(scores)
        pred = scores.argmax(axis=1)
        gold = np.array([classes.index(labels[i]) for i in held_idx])
        a, b = _fit_platt(raw, pred == gold)
        model.calib_a, model.calib_b = a, b
    return model


def ensemble_predict(m1: TextClassifierModel, m2: TextClassifierModel,
                     x: np.ndarray) -> tuple[str, float]:
    """Agreement gate over one tf-idf row: agreeing models yield min
    confidence, disagreement yields confidence 0 so the caller falls through
    to the long-tail path."""
    l1, c1 = m1.predict(x)
    l2, c2 = m2.predict(x)
    if l1 == l2:
        return l1, min(c1, c2)
    return (l1, 0.0) if c1 >= c2 else (l2, 0.0)


def choose_threshold(predictions: list[tuple[float, bool]],
                     target_accuracy: float) -> tuple[float, float, bool]:
    """Smallest cutoff whose covered-set accuracy reaches the target.

    predictions: (confidence, correct) pairs from a validation set.
    Returns (cutoff, coverage, attainable).
    """
    if target_accuracy <= 0.0:
        return 0.0, 1.0 if predictions else 0.0, True
    if not predictions:
        return 1.0, 0.0, False
    pairs = sorted(predictions)
    n = len(pairs)
    candidates = [0.0] + sorted({c for c, _ in pairs})
    best = None
    for cutoff in candidates:
        covered = [(c, ok) for c, ok in pairs if c >= cutoff]
        if not covered:
            continue
        acc = sum(ok for _, ok in covered) / len(covered)
        if acc >= target_accuracy:
            best = (cutoff, len(covered) / n)
            break
    if best is None:
        return 1.0, 0.0, False
    return best[0], best[1], True
