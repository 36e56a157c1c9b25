import numpy as np
import pytest
from scipy import sparse

from tickettriage.classify import (
    TfidfVectorizer,
    _holdout_split,
    choose_threshold,
    ensemble_predict,
    tokenize,
    train_classifier,
)
from tickettriage.errors import TrainingError


def _toy_corpus():
    texts, labels = [], []
    for i in range(12):
        texts.append(f"printer driver jam error tray {i}")
        labels.append("hardware")
        texts.append(f"vpn timeout network connection drop {i}")
        labels.append("network")
        texts.append(f"outlook mailbox sync folder email {i}")
        labels.append("email")
    return texts, labels


def test_tokenize_lowercases_and_splits():
    assert tokenize("VPN Error-42 re-sync") == ["vpn", "error", "42", "re", "sync"]


def test_tfidf_rows_are_l2_normalized():
    texts, _ = _toy_corpus()
    vec = TfidfVectorizer().fit(texts)
    X = vec.transform(texts)
    norms = np.linalg.norm(X, axis=1)
    assert np.allclose(norms[norms > 0], 1.0)


def test_tfidf_vocab_cap():
    texts, _ = _toy_corpus()
    vec = TfidfVectorizer(max_features=5).fit(texts)
    assert len(vec.vocab) == 5


def _tfidf(texts):
    return sparse.csr_matrix(TfidfVectorizer().fit(texts).transform(texts))


@pytest.mark.parametrize("kind", ["linear_ovr_margin", "feedforward_1hidden"])
def test_classifier_learns_separable_labels(kind):
    texts, labels = _toy_corpus()
    vec = TfidfVectorizer().fit(texts)
    model = train_classifier(sparse.csr_matrix(vec.transform(texts)), labels, kind, seed=0)
    for text, label in zip(texts, labels):
        pred, conf = model.predict(vec.transform([text]))
        assert pred == label
        assert 0.0 <= conf <= 1.0


def test_classifier_training_is_deterministic():
    texts, labels = _toy_corpus()
    m1 = train_classifier(_tfidf(texts), labels, "feedforward_1hidden", seed=4)
    m2 = train_classifier(_tfidf(texts), labels, "feedforward_1hidden", seed=4)
    for key in m1.params:
        assert np.array_equal(m1.params[key], m2.params[key])
    assert (m1.calib_a, m1.calib_b) == (m2.calib_a, m2.calib_b)


def test_classifier_input_validation():
    texts, labels = _toy_corpus()
    with pytest.raises(TrainingError):
        train_classifier(_tfidf(texts), labels, "decision_tree")
    with pytest.raises(TrainingError):
        train_classifier(_tfidf(["a"] * 10), ["x"] * 10, "linear_ovr_margin")
    with pytest.raises(TrainingError):
        train_classifier(_tfidf(["a", "b", "c", "d", "e", "f"]),
                         ["x", "x", "x", "x", "x", "y"], "linear_ovr_margin")


class _Stub:
    def __init__(self, label, conf):
        self._out = (label, conf)

    def predict(self, x):
        return self._out


def test_ensemble_truth_table():
    # agree -> agreed label with the smaller confidence
    assert ensemble_predict(_Stub("a", 0.9), _Stub("a", 0.6), "t") == ("a", 0.6)
    assert ensemble_predict(_Stub("a", 0.2), _Stub("a", 0.8), "t") == ("a", 0.2)
    # disagree -> higher-confidence label, confidence forced to zero
    assert ensemble_predict(_Stub("a", 0.9), _Stub("b", 0.6), "t") == ("a", 0.0)
    assert ensemble_predict(_Stub("a", 0.3), _Stub("b", 0.6), "t") == ("b", 0.0)
    # exact tie on disagreement -> first model wins deterministically
    assert ensemble_predict(_Stub("a", 0.5), _Stub("b", 0.5), "t") == ("a", 0.0)


def test_choose_threshold_picks_smallest_sufficient_cutoff():
    preds = [(0.2, False), (0.4, True), (0.6, True), (0.8, True)]
    cutoff, coverage, ok = choose_threshold(preds, 0.9)
    assert ok
    assert cutoff == 0.4
    assert coverage == 0.75


def test_choose_threshold_unattainable_target():
    preds = [(0.9, False), (0.8, False)]
    cutoff, coverage, ok = choose_threshold(preds, 0.5)
    assert (cutoff, coverage, ok) == (1.0, 0.0, False)


def test_choose_threshold_trivial_target():
    assert choose_threshold([(0.1, False)], 0.0) == (0.0, 1.0, True)
    assert choose_threshold([], 0.9) == (1.0, 0.0, False)


def _holdout_split_oracle(labels):
    """The split as first written: quadratic membership test per class."""
    by_class = {}
    for i, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(i)
    train, held = [], []
    for lab in sorted(by_class):
        idxs = by_class[lab]
        if len(idxs) >= 10:
            held.extend(idxs[::10])
            train.extend(i for i in idxs if i not in set(idxs[::10]))
        else:
            train.extend(idxs)
    return sorted(train), sorted(held)


def test_holdout_split_matches_oracle_on_random_labels():
    rng = np.random.RandomState(5)
    for _ in range(200):
        n_classes = int(rng.randint(1, 8))
        labels = [f"c{k}" for k in rng.randint(0, n_classes, size=int(rng.randint(0, 120)))]
        assert _holdout_split(labels) == _holdout_split_oracle(labels)


def _train_classifier_oracle(texts, labels, kind, seed):
    """A head as first written: its own vectorizer fitted on the texts, the
    train and holdout subsets transformed separately (and passed as CSR, as
    train_classifier passes its row slices)."""
    from tickettriage.classify import (TextClassifierModel, _fit_platt, _train_linear,
                                       _train_mlp)
    classes = sorted(set(labels))
    vec = TfidfVectorizer().fit(texts)
    train_idx, held_idx = _holdout_split(labels)
    Xtr = sparse.csr_matrix(vec.transform([texts[i] for i in train_idx]))
    ytr = np.array([classes.index(labels[i]) for i in train_idx])
    train = _train_linear if kind == "linear_ovr_margin" else _train_mlp
    model = TextClassifierModel(kind, classes, train(Xtr, ytr, len(classes), seed), 1.0, 0.0)
    if held_idx:
        scores = model._scores(sparse.csr_matrix(vec.transform([texts[i] for i in held_idx])))
        gold = np.array([classes.index(labels[i]) for i in held_idx])
        model.calib_a, model.calib_b = _fit_platt(model._raw_confidence(scores),
                                                  scores.argmax(axis=1) == gold)
    return model


def test_shared_tfidf_matrix_matches_per_head_vectorizers(corpus_dir):
    """One vectorizer and one batch transform give the same rows, and so the
    same heads, as a vectorizer per head transforming its own subsets."""
    import os

    from tickettriage.recommend import load_corpus
    from tickettriage.training import _tfidf_matrix, enrich_text_only

    corpus = load_corpus(os.path.join(corpus_dir, "tickets.jsonl"))
    texts = [enrich_text_only(r.text) for r in corpus]
    vec = TfidfVectorizer().fit(texts)
    X = vec.transform(texts)
    for i, text in enumerate(texts):
        assert np.array_equal(X[i:i + 1], vec.transform([text]))
    shared = _tfidf_matrix(vec, texts)  # 400 texts: two chunks
    assert np.array_equal(shared.toarray(), X)

    heads = [([r.resolver_group for r in corpus], "linear_ovr_margin", 1),
             ([r.resolver_group for r in corpus], "feedforward_1hidden", 2),
             ([r.category_f1 for r in corpus], "linear_ovr_margin", 5)]
    for labels, kind, seed in heads:
        for idx in _holdout_split(labels):
            assert np.array_equal(X[idx], vec.transform([texts[i] for i in idx]))
        got = train_classifier(shared, labels, kind, seed)
        want = _train_classifier_oracle(texts, labels, kind, seed)
        assert got.classes == want.classes
        assert sorted(got.params) == sorted(want.params)
        for key in want.params:
            assert np.array_equal(got.params[key], want.params[key])
        assert (got.calib_a, got.calib_b) == (want.calib_a, want.calib_b)


class _DenseRows:
    """Row slices of a CSR matrix handed out dense: train_classifier on this
    trains each head on dense arrays, as it did before the heads took the
    CSR rows directly."""

    def __init__(self, X):
        self.X = X
        self.shape = X.shape

    def __getitem__(self, rows):
        return self.X[rows].toarray()


def test_heads_trained_on_csr_rows_match_dense_training(corpus_dir, bundle):
    """Sparse products sum in another order, so the seven heads may differ
    from dense training in the last bits only, and no prediction changes."""
    import os

    from tickettriage.recommend import SUBFIELDS, load_corpus
    from tickettriage.training import _tfidf_matrix, enrich_text_only

    corpus = load_corpus(os.path.join(corpus_dir, "tickets.jsonl"))
    texts = [enrich_text_only(r.text) for r in corpus]
    models = bundle.models
    X = _tfidf_matrix(models.vectorizer, texts)
    seed = bundle.meta["seed"]
    resolver = [r.resolver_group for r in corpus]
    category = [r.category for r in corpus]
    heads = [(models.resolver_pair[0], resolver, "linear_ovr_margin", seed),
             (models.resolver_pair[1], resolver, "feedforward_1hidden", seed + 1),
             (models.category_pair[0], category, "linear_ovr_margin", seed + 2),
             (models.category_pair[1], category, "feedforward_1hidden", seed + 3)]
    heads += [(models.subfield_models[sf], [getattr(r, sf) for r in corpus],
               "linear_ovr_margin", seed + 4 + i) for i, sf in enumerate(SUBFIELDS)]
    assert len(heads) == 7
    rows = [models.vectorizer.transform([text]) for text in texts]
    for got, labels, kind, head_seed in heads:
        want = train_classifier(_DenseRows(X), labels, kind, head_seed)
        assert got.classes == want.classes
        assert sorted(got.params) == sorted(want.params)
        for key in want.params:
            assert np.allclose(got.params[key], want.params[key], rtol=1e-9, atol=1e-12)
        assert np.allclose([got.calib_a, got.calib_b], [want.calib_a, want.calib_b],
                           rtol=1e-9, atol=1e-12)
        for row in rows:
            assert got.predict(row)[0] == want.predict(row)[0]
