"""Image/slice/block geometry, decode order and line-buffer partitions.

The image is tiled by 8x2 blocks; decoding works on two lines at a time
(a blockline).  Line buffers are 480-word x 256-bit SRAMs holding 8 pixels
per word, partitioned equally among the active slice columns.
"""

from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError

BLOCK_W = 8
BLOCK_H = 2
LINE_WORDS = 480          # words per line buffer
WORD_BITS = 256           # 8 pixels x 32-bit slot
PIXELS_PER_WORD = 8
CYCLES_PER_SLOT = 4       # 16 px per block at 4 px/cycle


class Interleave(Enum):
    ROUND_ROBIN = "round_robin"
    COLUMN_MAJOR = "column_major"


@dataclass(frozen=True)
class ImageGeometry:
    width: int
    height: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ConfigError(f"image {self.width}x{self.height} must be positive")
        if self.height % BLOCK_H:
            raise ConfigError(f"height {self.height} not divisible by block height {BLOCK_H}")


@dataclass(frozen=True)
class SliceLayout:
    columns: int = 1
    rows: int = 1

    def __post_init__(self):
        if self.columns not in (1, 2, 4):
            raise ConfigError(f"slice columns must be 1, 2 or 4, got {self.columns}")
        if self.rows < 1:
            raise ConfigError(f"slice rows must be >= 1, got {self.rows}")


@dataclass(frozen=True)
class GeometryPlan:
    image: ImageGeometry
    slices: SliceLayout
    slice_width: int
    words_per_line: int         # per slice column; one 8-px block per word
    partition_bases: tuple[int, ...]
    total_blocklines: int
    blocklines_per_slice: int
    interleave: Interleave

    def is_first_blockline_of_slice(self, blockline: int) -> bool:
        return blockline % self.blocklines_per_slice == 0


def build_geometry(image: ImageGeometry, slices: SliceLayout,
                   interleave: Interleave) -> GeometryPlan:
    """Validate the grid and derive per-column block counts and partition bases."""
    if image.width % (BLOCK_W * slices.columns):
        raise ConfigError(
            f"width {image.width} not divisible by {BLOCK_W} x {slices.columns} columns")
    slice_width = image.width // slices.columns
    words = slice_width // PIXELS_PER_WORD
    region = LINE_WORDS // slices.columns
    if words > region:
        raise ConfigError(
            f"slice width {slice_width} needs {words} words; partition holds {region}")
    if image.height % (BLOCK_H * slices.rows):
        raise ConfigError(
            f"height {image.height} not divisible by {BLOCK_H} x {slices.rows} rows")
    slice_height = image.height // slices.rows
    bases = tuple(c * region for c in range(slices.columns))
    return GeometryPlan(
        image=image,
        slices=slices,
        slice_width=slice_width,
        words_per_line=words,
        partition_bases=bases,
        total_blocklines=image.height // BLOCK_H,
        blocklines_per_slice=slice_height // BLOCK_H,
        interleave=interleave,
    )


def decode_position(plan: GeometryPlan, global_slot):
    """The decode order: the blockline, slice column and block x decoded in
    a slot, or in each slot of an array of slots.

    Blocklines advance in raster order.  Within a blockline, round_robin
    visits the slice columns one block slot each; column_major finishes one
    column's blockline before the next.
    """
    cols, n = plan.slices.columns, plan.words_per_line
    bl, within = divmod(global_slot, cols * n)
    if plan.interleave is Interleave.ROUND_ROBIN:
        bx, c = divmod(within, cols)
    else:
        c, bx = divmod(within, n)
    return bl, c, bx
