import pytest

from tickettriage.bundle import load_bundle, save_bundle
from tickettriage.errors import ConsistencyError


def test_bundle_round_trip(bundle, tmp_path):
    path = tmp_path / "m.bin"
    save_bundle(bundle, str(path))
    loaded = load_bundle(str(path))
    assert loaded.meta == bundle.meta
    text = "Vpn drops every hour. VPN Client reported Error 789."
    assert (loaded.models.resolver_pair[0].predict(loaded.models.vectorizer.transform([text]))
            == bundle.models.resolver_pair[0].predict(bundle.models.vectorizer.transform([text])))


def test_bundle_serialization_is_byte_stable(bundle, tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_bundle(bundle, str(p1))
    save_bundle(bundle, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE\x01something")
    with pytest.raises(ConsistencyError):
        load_bundle(str(path))


def test_load_rejects_truncated_file(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"TT")
    with pytest.raises(ConsistencyError):
        load_bundle(str(path))


def test_load_rejects_future_format_version(bundle, tmp_path):
    path = tmp_path / "m.bin"
    save_bundle(bundle, str(path))
    data = bytearray(path.read_bytes())
    data[4] = 99
    path.write_bytes(bytes(data))
    with pytest.raises(ConsistencyError):
        load_bundle(str(path))


def test_load_rejects_format_version_1(bundle, tmp_path):
    # version 1 bundles kept one vectorizer per head; they must not reach triage
    path = tmp_path / "m.bin"
    save_bundle(bundle, str(path))
    data = bytearray(path.read_bytes())
    data[4] = 1
    path.write_bytes(bytes(data))
    with pytest.raises(ConsistencyError):
        load_bundle(str(path))


def test_load_rejects_format_version_2(bundle, tmp_path):
    # version 2 bundles pickled the search index's posting lists
    path = tmp_path / "m.bin"
    save_bundle(bundle, str(path))
    data = bytearray(path.read_bytes())
    data[4] = 2
    path.write_bytes(bytes(data))
    with pytest.raises(ConsistencyError):
        load_bundle(str(path))


def test_load_rejects_bundle_without_vectorizer(bundle, tmp_path):
    import copy
    broken = copy.copy(bundle)
    broken.models = copy.copy(bundle.models)
    broken.models.vectorizer = None
    path = tmp_path / "m.bin"
    save_bundle(broken, str(path))
    with pytest.raises(ConsistencyError):
        load_bundle(str(path))
