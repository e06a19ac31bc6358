"""The single-port law on `SramBankModel`, and what a committed access does
to a word on the reference's word ledger (`ReferenceEngine.apply`)."""

import numpy as np
import pytest

from dbemem.engine import SimConfig
from dbemem.errors import ConfigError
from dbemem.geometry import ImageGeometry
from dbemem.membank import (VIOLATION_CLASSES, AccessRecord, Purpose,
                            SramBankModel)
from dbemem.reference import ReferenceEngine
from dbemem.sched import preset_type1


def rec(cycle, word, purpose=Purpose.OUTPUT_READ, line=-1, buffer="upper"):
    return AccessRecord(cycle=cycle, buffer=buffer, bank_id=0,
                        word_index=word, purpose=purpose, block_id=0,
                        slice_col=0, line=line, px=0)


def ledger():
    """An unrun reference engine on two line buffers of one bank each."""
    return ReferenceEngine(SimConfig(image=ImageGeometry(64, 8),
                                     preset=preset_type1()))


def found(ref, name):
    """The violations of one class not yet drained from lower0's bank."""
    order = ref.sched.bank_order["lower0", 0]
    return ref.undrained[order][VIOLATION_CLASSES.index(name)]


def test_same_cycle_conflict():
    bank = SramBankModel("upper", 0)
    assert bank.request_access(rec(10, 0, Purpose.WRITE_BLOCK_ROW, line=0))
    assert not bank.request_access(rec(10, 1))
    assert len(bank.conflicts) == 1
    v = bank.conflicts[0]
    assert v.first_purpose is Purpose.WRITE_BLOCK_ROW
    assert v.second_purpose is Purpose.OUTPUT_READ
    # the first booking wins the cycle
    assert bank.commit_cycle(10) == rec(10, 0, Purpose.WRITE_BLOCK_ROW, line=0)


def test_distinct_banks_no_conflict():
    b0 = SramBankModel("upper", 0)
    b1 = SramBankModel("upper", 1)
    assert b0.request_access(rec(10, 0, Purpose.WRITE_BLOCK_ROW, line=0))
    assert b1.request_access(rec(10, 0))
    assert not b0.conflicts and not b1.conflicts


def test_write_then_read_roundtrip():
    ref = ledger()
    k = ref._word(rec(0, 5, buffer="lower0"))
    assert ref.word_line[k] == -1
    assert ref.apply(rec(0, 5, Purpose.WRITE_BLOCK_ROW, line=3,
                         buffer="lower0")) is None
    vals = ref.apply(rec(2, 5, buffer="lower0"))
    # the write's pixels: the golden frame at its line and x
    assert np.array_equal(vals, ref._rgb[3, 0:8])
    assert ref.word_line[k] == 3   # the write's line
    assert not found(ref, "underflows")


def test_underflow_on_unwritten_word():
    ref = ledger()
    assert ref.apply(rec(0, 7, buffer="lower0")) is None
    assert len(found(ref, "underflows")) == 1


def test_empty_cycle_commits_clean():
    bank = SramBankModel("upper", 0)
    assert bank.commit_cycle(0) is None
    assert not bank.conflicts


def test_hazard_overwrite_before_required_read():
    ref = ledger()
    write = rec(0, 3, Purpose.WRITE_BLOCK_ROW, line=1, buffer="lower0")
    ref.apply(write)
    ref._arm_required_reads(0, [write], [])
    # overwrite before the read happens
    ref.apply(rec(4, 3, Purpose.WRITE_BLOCK_ROW, line=3, buffer="lower0"))
    hazards = found(ref, "hazards")
    assert len(hazards) == 1
    assert hazards[0].pending_output_reads == 1


def test_required_read_consumed_no_hazard():
    ref = ledger()
    write = rec(0, 3, Purpose.WRITE_BLOCK_ROW, line=1, buffer="lower0")
    ref.apply(write)
    ref._arm_required_reads(0, [write], [])
    ref.apply(rec(2, 3, buffer="lower0"))
    ref.apply(rec(4, 3, Purpose.WRITE_BLOCK_ROW, line=3, buffer="lower0"))
    assert not found(ref, "hazards")


def test_frontier_enforced():
    bank = SramBankModel("upper", 0)
    bank.commit_cycle(5)
    with pytest.raises(ConfigError):
        bank.request_access(rec(2, 0))
    with pytest.raises(ConfigError):
        bank.commit_cycle(2)


def test_word_bounds_checked():
    bank = SramBankModel("upper", 0)
    with pytest.raises(ConfigError):
        bank.request_access(rec(0, 480))
