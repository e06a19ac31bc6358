import numpy as np
import pytest

from dbemem.errors import ConfigError
from dbemem.membank import AccessRecord, Purpose, SramBankModel


def rec(cycle, word, purpose=Purpose.OUTPUT_READ, line=-1):
    return AccessRecord(cycle=cycle, buffer="upper", bank_id=0,
                        word_index=word, purpose=purpose, block_id=0,
                        slice_col=0, line=line, px=0)


def wvals(seed=1):
    return np.full((8, 3), seed, dtype=np.int32)


def test_same_cycle_conflict():
    bank = SramBankModel("upper", 0)
    assert bank.request_access(rec(10, 0, Purpose.WRITE_BLOCK_ROW, line=0),
                               values=wvals())
    assert not bank.request_access(rec(10, 1))
    assert len(bank.conflicts) == 1
    v = bank.conflicts[0]
    assert v.first_purpose is Purpose.WRITE_BLOCK_ROW
    assert v.second_purpose is Purpose.OUTPUT_READ


def test_distinct_banks_no_conflict():
    b0 = SramBankModel("upper", 0)
    b1 = SramBankModel("upper", 1)
    assert b0.request_access(rec(10, 0, Purpose.WRITE_BLOCK_ROW, line=0),
                             values=wvals())
    assert b1.request_access(rec(10, 0))
    assert not b0.conflicts and not b1.conflicts


def test_write_then_read_roundtrip():
    bank = SramBankModel("lower0", 0)
    bank.request_access(rec(0, 5, Purpose.WRITE_BLOCK_ROW, line=3),
                        values=wvals(42))
    assert bank.commit_cycle(0)[1] is None
    bank.request_access(rec(2, 5))
    out, vals = bank.commit_cycle(2)
    assert np.array_equal(vals, wvals(42))
    assert bank.line_tag[5] == 3   # the write's line
    assert not bank.underflows


def test_underflow_on_unwritten_word():
    bank = SramBankModel("upper", 0)
    bank.request_access(rec(0, 7))
    out, vals = bank.commit_cycle(0)
    assert vals is None
    assert len(bank.underflows) == 1


def test_empty_cycle_commits_clean():
    bank = SramBankModel("upper", 0)
    assert bank.commit_cycle(0) is None
    assert not bank.conflicts and not bank.hazards and not bank.underflows


def test_hazard_overwrite_before_required_read():
    bank = SramBankModel("lower0", 0)
    bank.request_access(rec(0, 3, Purpose.WRITE_BLOCK_ROW, line=1),
                        values=wvals(1))
    bank.commit_cycle(0)
    bank.register_required_reads(3, 1, "output")
    # overwrite before the read happens
    bank.request_access(rec(4, 3, Purpose.WRITE_BLOCK_ROW, line=3),
                        values=wvals(2))
    bank.commit_cycle(4)
    assert len(bank.hazards) == 1
    assert bank.hazards[0].pending_output_reads == 1


def test_required_read_consumed_no_hazard():
    bank = SramBankModel("lower0", 0)
    bank.request_access(rec(0, 3, Purpose.WRITE_BLOCK_ROW, line=1),
                        values=wvals(1))
    bank.commit_cycle(0)
    bank.register_required_reads(3, 1, "output")
    bank.request_access(rec(2, 3))
    bank.commit_cycle(2)
    bank.request_access(rec(4, 3, Purpose.WRITE_BLOCK_ROW, line=3),
                        values=wvals(2))
    bank.commit_cycle(4)
    assert not bank.hazards


def test_zero_count_required_reads_allows_writes():
    bank = SramBankModel("upper", 0)
    bank.register_required_reads(9, 0, "output")
    bank.request_access(rec(0, 9, Purpose.WRITE_BLOCK_ROW, line=0),
                        values=wvals())
    bank.commit_cycle(0)
    assert not bank.hazards


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

