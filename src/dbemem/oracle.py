"""Deterministic golden pixel source and the lossless RGB/YCoCg transform.

The decoder's coding algorithms are out of scope here; a seeded 64-bit
mixing function stands in for the reconstructed image so that every buffer
read can be checked bit-exactly against ground truth.  The color transform
is the reversible (lossless) YCoCg variant, which makes the
"fetch RGB from the line buffer and re-convert" path exactly checkable.
Its injectivity also lets the engine decide a word that holds its own
place's pixels without any golden value: such a word mismatches exactly
when a flip changed it, in RGB and after the re-convert alike.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_KX = 0x9E3779B97F4A7C15
_KY = 0xC2B2AE3D27D4EB4F
_KC = 0x165667B19E3779F9
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_MAX_VALUE = (1 << 10) - 1  # every component has 10 bits


class GoldenOracle:
    """Stateless pixel generator: same (seed, x, y) always yields the same RGB."""

    def __init__(self, seed: int = 0):
        self.seed = seed & _MASK64

    def golden_frame(self, width: int, height: int) -> np.ndarray:
        """Whole frame as an int32 array of shape (height, width, 3).

        Component c of pixel (x, y) is the low 10 bits of a 64-bit
        mix of seed ^ x*KX ^ y*KY ^ c*KC.  The reference engine builds it
        for every run.  `Engine` builds it only at a run's first compare of
        a word of another line than its place's (`Engine._golden`), and a
        run without such words builds none.  Both gather from the frame with
        numpy instead of hashing per pixel.
        """
        xs = np.arange(width, dtype=np.uint64) * np.uint64(_KX)
        ys = np.arange(height, dtype=np.uint64) * np.uint64(_KY)
        frame = np.empty((height, width, 3), dtype=np.int32)
        with np.errstate(over="ignore"):
            for c in range(3):
                h = (np.uint64(self.seed) ^ ys[:, None]) ^ xs[None, :]
                h = h ^ np.uint64((c * _KC) & _MASK64)
                h ^= h >> np.uint64(30)
                h *= np.uint64(_M1)
                h ^= h >> np.uint64(27)
                h *= np.uint64(_M2)
                h ^= h >> np.uint64(31)
                frame[:, :, c] = (h & np.uint64(_MAX_VALUE)).astype(np.int32)
        return frame


def ycocg_frame(rgb_frame: np.ndarray) -> np.ndarray:
    """Forward lossless transform RGB -> YCoCg (integer, exactly
    invertible) over a (..., 3) int array."""
    r = rgb_frame[..., 0].astype(np.int32)
    g = rgb_frame[..., 1].astype(np.int32)
    b = rgb_frame[..., 2].astype(np.int32)
    co = r - b
    t = b + (co >> 1)
    cg = g - t
    y = t + (cg >> 1)
    return np.stack([y, co, cg], axis=-1)
