import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from screenshot_reference import BinaryRaster, binarize
from tickettriage.raster import (
    GrayRaster,
    Raster,
    gaussian_blur,
    gaussian_kernel,
    otsu_threshold,
    MAX_PIXELS,
    read_ppm,
    to_grayscale,
    write_ppm,
)


def test_raster_shape_validation():
    with pytest.raises(ValueError):
        Raster(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        Raster(np.zeros((0, 4, 3), dtype=np.uint8))


def test_binary_raster_rejects_intermediate_values():
    with pytest.raises(ValueError):
        BinaryRaster(np.full((2, 2), 7, dtype=np.uint8))


def test_luma_of_pure_red_is_76():
    # round(0.299 * 255) = 76
    img = Raster(np.full((3, 3, 3), (255, 0, 0), dtype=np.uint8))
    assert int(to_grayscale(img).array[1, 1]) == 76


def test_luma_matches_weighted_sum_oracle():
    rng = np.random.RandomState(0)
    arr = rng.randint(0, 256, size=(8, 9, 3), dtype=np.uint8)
    gray = to_grayscale(Raster(arr)).array
    f = arr.astype(np.float64)
    expected = np.rint(0.299 * f[:, :, 0] + 0.587 * f[:, :, 1] + 0.114 * f[:, :, 2])
    assert np.array_equal(gray, expected.astype(np.uint8))


def test_gaussian_kernel_normalized_and_symmetric():
    for sigma in (0.5, 1.0, 2.3):
        k = gaussian_kernel(sigma)
        assert abs(k.sum() - 1.0) < 1e-12
        assert np.allclose(k, k[::-1])
        assert k.argmax() == len(k) // 2
    with pytest.raises(ValueError):
        gaussian_kernel(0.0)


def test_blur_impulse_reproduces_separable_kernel():
    sigma = 1.0
    k = gaussian_kernel(sigma)
    radius = (len(k) - 1) // 2
    size = 4 * radius + 1
    arr = np.zeros((size, size), dtype=np.uint8)
    arr[size // 2, size // 2] = 255
    out = gaussian_blur(GrayRaster(arr), sigma).array
    expected = np.zeros((size, size))
    expected[size // 2 - radius:size // 2 + radius + 1,
             size // 2 - radius:size // 2 + radius + 1] = np.outer(k, k) * 255
    assert np.abs(out.astype(np.float64) - np.rint(expected)).max() <= 1


def test_blur_preserves_constant_image():
    arr = np.full((10, 10), 97, dtype=np.uint8)
    assert np.array_equal(gaussian_blur(GrayRaster(arr), 1.5).array, arr)


def test_binarize_threshold_semantics():
    arr = np.array([[0, 99, 100, 255]], dtype=np.uint8)
    out = binarize(GrayRaster(arr), 100).array
    assert out.tolist() == [[0, 0, 255, 255]]


def test_otsu_separates_bimodal_image():
    arr = np.zeros((10, 10), dtype=np.uint8)
    arr[:, 5:] = 200
    t = otsu_threshold(GrayRaster(arr))
    assert 0 < t <= 200
    out = binarize(GrayRaster(arr), t).array
    assert (out[:, :5] == 0).all() and (out[:, 5:] == 255).all()


def test_ppm_round_trip_is_byte_exact(tmp_path):
    rng = np.random.RandomState(5)
    img = Raster(rng.randint(0, 256, size=(17, 23, 3), dtype=np.uint8))
    p1 = tmp_path / "a.ppm"
    p2 = tmp_path / "b.ppm"
    write_ppm(img, p1)
    back = read_ppm(p1)
    assert back == img
    write_ppm(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_ppm_rejects_other_formats(tmp_path):
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(ValueError):
        read_ppm(bad)


def test_read_ppm_refuses_an_image_over_the_pixel_cap(tmp_path):
    path = tmp_path / "big.ppm"
    path.write_bytes(b"P6\n4000 4000\n255\n" + bytes(64))  # the body is never read
    assert 4000 * 4000 > MAX_PIXELS
    with pytest.raises(ValueError, match="pixels"):
        read_ppm(path)


def test_read_ppm_reads_a_header_with_comments(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6 # made by hand\n2 # wide\n1\n255\n" + bytes(range(6)))
    assert read_ppm(path).array.tolist() == [[[0, 1, 2], [3, 4, 5]]]


@settings(max_examples=150, deadline=None)
@given(width=st.integers(-3, 3), height=st.integers(-3, 3), body=st.integers(0, 40))
@example(width=-2, height=3, body=18)  # a negative pixel count would read the whole body
def test_read_ppm_returns_declared_shape_or_raises(tmp_path_factory, width, height, body):
    path = tmp_path_factory.mktemp("ppm") / "x.ppm"
    path.write_bytes(b"P6\n%d %d\n255\n" % (width, height) + bytes(range(body)))
    try:
        img = read_ppm(path)
    except ValueError:
        return
    assert img.array.shape == (height, width, 3)
    assert width >= 1 and height >= 1 and body >= width * height * 3
