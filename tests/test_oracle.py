import random

import numpy as np

from dbemem.oracle import GoldenOracle, ycocg_frame


def ycocg_inverse(yco: np.ndarray) -> np.ndarray:
    """The exact inverse of `ycocg_frame` over a (..., 3) int array."""
    y, co, cg = yco[..., 0], yco[..., 1], yco[..., 2]
    t = y - (cg >> 1)
    g = cg + t
    b = t - (co >> 1)
    return np.stack([b + co, g, b], axis=-1)


# regression constants computed by direct evaluation of the mixing function
PINNED = {
    (0, 0, 0): (0, 995, 118),
    (0, 1, 0): (431, 922, 139),
    (0, 0, 1): (550, 884, 630),
    (7, 3, 5): (363, 276, 738),
}


def test_pinned_values():
    for (seed, x, y), want in PINNED.items():
        assert tuple(GoldenOracle(seed).golden_frame(x + 1, y + 1)[y, x]) \
            == want


def test_determinism():
    o = GoldenOracle(12345)
    assert np.array_equal(o.golden_frame(32, 16), o.golden_frame(32, 16))
    # a pixel does not depend on the frame size it is read from
    assert np.array_equal(o.golden_frame(18, 10)[9, 17],
                          GoldenOracle(12345).golden_frame(64, 12)[9, 17])


def test_adjacent_pixels_differ():
    probe = GoldenOracle(0).golden_frame(64, 64)
    assert (probe[:, :-1] != probe[:, 1:]).any(axis=-1).all()
    assert (probe[:-1] != probe[1:]).any(axis=-1).all()


def test_gray_axis():
    v = np.array([0, 1, 511, 700, 1023], dtype=np.int32)
    gray = np.stack([v, v, v], axis=-1)
    yco = ycocg_frame(gray)
    assert yco.tolist() == [[int(g), 0, 0] for g in v]
    assert np.array_equal(ycocg_inverse(yco), gray)


def test_pinned_transform():
    rgb = np.array([1023, 0, 0], dtype=np.int32)
    yco = ycocg_frame(rgb)
    assert yco.tolist() == [255, 1023, -511]
    assert ycocg_inverse(yco).tolist() == [1023, 0, 0]


def test_roundtrip_random_10bit():
    rng = random.Random(1)
    rgb = np.array([[rng.randrange(1024) for _ in range(3)]
                    for _ in range(10000)], dtype=np.int32)
    assert np.array_equal(ycocg_inverse(ycocg_frame(rgb)), rgb)


def test_roundtrip_exhaustive_8bit_vectorized():
    # full 8-bit cube through the array transform and back
    v = np.arange(256, dtype=np.int32)
    r, g, b = np.meshgrid(v, v, v, indexing="ij")
    rgb = np.stack([r.ravel(), g.ravel(), b.ravel()], axis=-1)
    yco = ycocg_frame(rgb)
    assert np.array_equal(ycocg_inverse(yco), rgb)
    assert yco[:, 0].min() >= 0 and yco[:, 0].max() <= 255


def test_component_ranges_random():
    rng = random.Random(2)
    rgb = np.array([[rng.randrange(1024) for _ in range(3)]
                    for _ in range(5000)], dtype=np.int32)
    y, co, cg = ycocg_frame(rgb).T
    assert 0 <= y.min() and y.max() <= 1023
    assert -1023 <= co.min() and co.max() <= 1023
    assert -1023 <= cg.min() and cg.max() <= 1023
