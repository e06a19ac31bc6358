"""The single-port law of a line-buffer bank.

Each bank grants at most one access (read or write) per cycle: the first
booking of a cycle wins, and a later one is recorded as a conflict, never
raised, so one run can tally every conflict in a broken configuration.
What a granted access does to a word (its value, the line it holds, the
reads it still owes, hazards and underflows) is the engines' word ledger.
"""

from enum import Enum
from typing import NamedTuple

from .errors import ConfigError
from .geometry import LINE_WORDS


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


class ConflictViolation(NamedTuple):
    """A booking of a (bank, cycle) another booking already holds."""
    cycle: int
    buffer: str
    bank_id: int
    first_purpose: Purpose
    second_purpose: Purpose
    first_word: int
    second_word: int
    block_id: int


class HazardViolation(NamedTuple):
    """A word was overwritten while reads of the old data were still pending."""
    cycle: int
    buffer: str
    bank_id: int
    word_index: int
    pending_output_reads: int
    pending_fetch_reads: int
    block_id: int


class UnderflowViolation(NamedTuple):
    """A read targeted a word that was never written."""
    cycle: int
    buffer: str
    bank_id: int
    word_index: int
    purpose: Purpose


# the violations of a bank, in drain order, and the ViolationLog counts and
# detail classes they go to: the bank's conflicts, then the word ledger's
# hazards and underflows on its words
VIOLATION_CLASSES = ("conflicts", "hazards", "underflows")


class SramBankModel:
    """One single-port bank of a 480-word line buffer: its booked cycles,
    the cycle after its last commit (`frontier`) and its conflicts."""

    def __init__(self, buffer: str, bank_id: int):
        self.buffer = buffer
        self.bank_id = bank_id
        self._booked: dict[int, AccessRecord] = {}
        self.frontier = 0
        self.conflicts: list[ConflictViolation] = []

    def request_access(self, rec: AccessRecord) -> bool:
        """Book one access.  Returns False (and records a conflict) when the
        cycle already carries an access on this bank."""
        if rec.cycle < self.frontier:
            raise ConfigError(
                f"access at cycle {rec.cycle} behind frontier {self.frontier}")
        if rec.word_index >= LINE_WORDS or rec.word_index < 0:
            raise ConfigError(f"word {rec.word_index} outside 0..{LINE_WORDS - 1}")
        first = self._booked.get(rec.cycle)
        if first is not None:
            self.conflicts.append(ConflictViolation(
                cycle=rec.cycle, buffer=self.buffer, bank_id=self.bank_id,
                first_purpose=first.purpose, second_purpose=rec.purpose,
                first_word=first.word_index, second_word=rec.word_index,
                block_id=rec.block_id))
            return False
        self._booked[rec.cycle] = rec
        return True

    def commit_cycle(self, cycle: int) -> AccessRecord | None:
        """The access booked for `cycle`, or None when the cycle is idle."""
        if cycle < self.frontier:
            raise ConfigError(f"commit at {cycle} behind frontier {self.frontier}")
        self.frontier = cycle + 1
        return self._booked.pop(cycle, None)
