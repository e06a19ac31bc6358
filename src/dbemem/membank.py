"""Single-port SRAM bank model with access checking.

Each bank grants at most one access (read or write) per cycle.  Violations
are recorded as data, never raised, so one run can tally every conflict,
overwrite hazard, and underflow in a broken configuration.
"""

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .geometry import LINE_WORDS, PIXELS_PER_WORD


class Purpose(Enum):
    WRITE_BLOCK_ROW = "WriteBlockRow"
    OUTPUT_READ = "OutputRead"
    PREDICT_FETCH = "PredictFetch"


class AccessRecord(NamedTuple):
    """One planned bank access, from the schedule to the checks; a tuple, so
    replayed schedules build it cheaply."""
    cycle: int
    buffer: str
    bank_id: int
    word_index: int
    purpose: Purpose
    block_id: int            # -1 for display reads
    slice_col: int
    line: int                # the image line written, displayed or demanded
    px: int                  # x of the word's first pixel on that line

    @property
    def op(self) -> str:
        return "write" if self.purpose is Purpose.WRITE_BLOCK_ROW else "read"


@dataclass(frozen=True)
class ConflictViolation:
    cycle: int
    buffer: str
    bank_id: int
    first_purpose: Purpose
    second_purpose: Purpose
    first_word: int
    second_word: int
    block_id: int

    def trace_row(self) -> tuple:
        return (self.cycle, -1, self.buffer, self.bank_id, "conflict",
                self.second_word, self.second_purpose.value, self.block_id)


@dataclass(frozen=True)
class HazardViolation:
    """A word was overwritten while reads of the old data were still pending."""
    cycle: int
    buffer: str
    bank_id: int
    word_index: int
    pending_output_reads: int
    pending_fetch_reads: int
    block_id: int

    def trace_row(self) -> tuple:
        return (self.cycle, -1, self.buffer, self.bank_id, "hazard",
                self.word_index, Purpose.WRITE_BLOCK_ROW.value, self.block_id)


@dataclass(frozen=True)
class UnderflowViolation:
    """A read targeted a word that was never written."""
    cycle: int
    buffer: str
    bank_id: int
    word_index: int
    purpose: Purpose

    def trace_row(self) -> tuple:
        return (self.cycle, -1, self.buffer, self.bank_id, "underflow",
                self.word_index, self.purpose.value, -1)


# what a bank records, in drain order: its lists of violations, and the
# ViolationLog counts and detail classes they go to
VIOLATION_CLASSES = ("conflicts", "hazards", "underflows")


class SramBankModel:
    """One single-port bank of a 480-word line buffer.

    Contents are per-word 8x3 component arrays plus the line each word
    holds.  The hazard checker flags writes that land before the registered
    number of output/fetch reads of the previous contents has completed.
    """

    def __init__(self, buffer: str, bank_id: int):
        self.buffer = buffer
        self.bank_id = bank_id
        self.values = np.zeros((LINE_WORDS, PIXELS_PER_WORD, 3), dtype=np.int32)
        # per-word scalars are Python lists: commit touches them one at a time
        self.written = [False] * LINE_WORDS
        self.line_tag = [-1] * LINE_WORDS
        self.pending_output = [0] * LINE_WORDS
        self.pending_fetch = [0] * LINE_WORDS
        self._booked: dict[int, tuple] = {}
        self.frontier = 0
        self.conflicts: list[ConflictViolation] = []
        self.hazards: list[HazardViolation] = []
        self.underflows: list[UnderflowViolation] = []

    def request_access(self, rec: AccessRecord, values=None) -> bool:
        """Book one access.  Returns False (and records a conflict) when the
        cycle already carries an access on this bank.  A write tags its word
        with `rec.line`."""
        if rec.cycle < self.frontier:
            raise ConfigError(
                f"access at cycle {rec.cycle} behind frontier {self.frontier}")
        if rec.word_index >= LINE_WORDS or rec.word_index < 0:
            raise ConfigError(f"word {rec.word_index} outside 0..{LINE_WORDS - 1}")
        prior = self._booked.get(rec.cycle)
        if prior is not None:
            first = prior[0]
            self.conflicts.append(ConflictViolation(
                cycle=rec.cycle, buffer=self.buffer, bank_id=self.bank_id,
                first_purpose=first.purpose, second_purpose=rec.purpose,
                first_word=first.word_index, second_word=rec.word_index,
                block_id=rec.block_id))
            return False
        self._booked[rec.cycle] = (rec, values)
        return True

    def register_required_reads(self, word_index: int, count: int,
                                kind: str = "output") -> None:
        if count < 0:
            raise ConfigError("required read count must be >= 0")
        if kind == "output":
            self.pending_output[word_index] += count
        elif kind == "fetch":
            self.pending_fetch[word_index] += count
        else:
            raise ConfigError(f"unknown required-read kind {kind!r}")

    def commit_cycle(self, cycle: int):
        """Apply the booked access for `cycle`, if any.

        Returns (record, values) for a granted read, (record, None) for a
        write, or None when the cycle is idle.  `values` is the bank's own
        row, valid until the word's next write: copy it to keep it.  Hazards
        and underflows are appended to the bank's violation lists.
        """
        if cycle < self.frontier:
            raise ConfigError(f"commit at {cycle} behind frontier {self.frontier}")
        self.frontier = cycle + 1
        entry = self._booked.pop(cycle, None)
        if entry is None:
            return None
        rec, values = entry
        w = rec.word_index
        if rec.purpose is Purpose.WRITE_BLOCK_ROW:
            if self.pending_output[w] > 0 or self.pending_fetch[w] > 0:
                self.hazards.append(HazardViolation(
                    cycle=cycle, buffer=self.buffer, bank_id=self.bank_id,
                    word_index=w,
                    pending_output_reads=self.pending_output[w],
                    pending_fetch_reads=self.pending_fetch[w],
                    block_id=rec.block_id))
                self.pending_output[w] = 0
                self.pending_fetch[w] = 0
            if values is not None:   # a ledger-only booking carries none
                self.values[w] = values
            self.written[w] = True
            self.line_tag[w] = rec.line
            return (rec, None)
        # read path
        if not self.written[w]:
            self.underflows.append(UnderflowViolation(
                cycle=cycle, buffer=self.buffer, bank_id=self.bank_id,
                word_index=w, purpose=rec.purpose))
            return (rec, None)
        if rec.purpose is Purpose.OUTPUT_READ and self.pending_output[w] > 0:
            self.pending_output[w] -= 1
        elif rec.purpose is Purpose.PREDICT_FETCH and self.pending_fetch[w] > 0:
            self.pending_fetch[w] -= 1
        return (rec, self.values[w])
