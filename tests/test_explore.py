import random
from itertools import product

import pytest

from dbemem.explore import (FetchBudget, _candidates, _schedule_feasible,
                            minimal_resident_set, preset_budget)
from dbemem.predwindow import RESIDENT, WindowSpec
from dbemem.sched import (REFILL, STREAMING, preset_baseline, preset_type1,
                          preset_type2)


def test_preset_budgets_reproduce_counts():
    spec = WindowSpec()
    cases = [
        (preset_baseline(), 106),
        (preset_type1(), 90),
        (preset_type2(), 25),
    ]
    for preset, want in cases:
        res = minimal_resident_set(spec, preset_budget(preset),
                                   forwarding=preset.forwarding,
                                   reconvert=preset.reconvert_on_fetch)
        assert res.resident_count == want, preset.name


def test_type2_routes_are_auditable():
    res = minimal_resident_set(WindowSpec(), preset_budget(preset_type2()),
                               forwarding=True, reconvert=True)
    assert res.routes == {"prev": "fetch", "row0": "resident", "row1": "fetch"}
    assert sum(len(v) for v in res.resident_positions.values()) == 25
    assert len(res.resident_positions["row0"]) == 25


def test_streaming_degradations():
    spec = WindowSpec()
    streaming = FetchBudget("streaming", 2)
    no_reconv = minimal_resident_set(spec, streaming, forwarding=True,
                                     reconvert=False)
    assert no_reconv.resident_count == 49    # lower row cannot stream
    no_fwd = minimal_resident_set(spec, streaming, forwarding=False,
                                  reconvert=True)
    assert no_fwd.resident_count == 33       # forwarded block becomes resident


@pytest.mark.parametrize("fwd, rec, want", [
    (False, False, 65), (False, True, 65), (True, False, 49), (True, True, 49)])
def test_one_bank_streaming_obeys_the_port_law(fwd, rec, want):
    """Streaming on one bank per buffer: a row1 fetch next to the
    previous-line fetch does not fit beside the writes and display reads
    on the one lower bank, so the explorer must keep row1 resident.  An
    explorer that skipped the port law would stream row1 whenever
    reconvert is on, for 33 resident pixels, or 25 with forwarding."""
    res = minimal_resident_set(WindowSpec(), FetchBudget("streaming", 1),
                               fwd, rec)
    assert res.resident_count == want
    assert res.routes["row1"] == "resident"


def random_spec(rng):
    prev_lo = -8 * rng.randint(0, 2)
    prev_hi = rng.randint(0, 39)
    r0_hi = -1
    r0_lo = -rng.randint(1, 40)
    r1_lo = -rng.randint(1, 40)
    return WindowSpec(prev_line_span=(prev_lo, prev_hi),
                      cur_row0_span=(r0_lo, r0_hi),
                      cur_row1_span=(r1_lo, -1))


def test_full_residency_is_always_placeable():
    """The explorer's last candidate keeps every section resident, and its
    traffic is placeable under every window spec, budget kind, bank count
    and forwarding choice: `minimal_resident_set` always finds a routing
    (1,200 randomized cases)."""
    rng = random.Random(7)
    for _ in range(150):
        spec = random_spec(rng)
        for kind, banks, fwd in product((REFILL, STREAMING), (1, 2),
                                        (False, True)):
            last = _candidates(spec, FetchBudget(kind, banks), fwd, False)[-1]
            assert set(last.residency.values()) == {RESIDENT}
            assert _schedule_feasible(spec, last), (spec, kind, banks, fwd)


def test_monotone_in_budget_forwarding_reconvert():
    """Resident count never grows when the fetch budget rises or when
    forwarding/reconvert are switched on (>=100 randomized window specs)."""
    rng = random.Random(42)
    budgets = [FetchBudget("refill", 1), FetchBudget("streaming", 2)]
    checked = 0
    for _ in range(120):
        spec = random_spec(rng)
        for fwd in (False, True):
            for rec in (False, True):
                counts = [minimal_resident_set(spec, b, fwd, rec).resident_count
                          for b in budgets]
                assert counts == sorted(counts, reverse=True), (spec, fwd, rec)
        for b in budgets:
            off = minimal_resident_set(spec, b, False, False).resident_count
            fwd_on = minimal_resident_set(spec, b, True, False).resident_count
            rec_on = minimal_resident_set(spec, b, False, True).resident_count
            both = minimal_resident_set(spec, b, True, True).resident_count
            assert fwd_on <= off and rec_on <= off and both <= min(fwd_on, rec_on)
        checked += 1
    assert checked >= 100
