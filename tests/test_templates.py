"""`ledger.class_templates` builds every class template of a run in one
batch.  Each template built inside the run's batch equals the template of
the same blockline built alone, as a batch of one, field by field: on
every class of the drawn configs of test_ledger.py and on a stride of the
legal widths of test_engine.py."""

import numpy as np
import pytest

from dbemem.engine import Engine
from dbemem.ledger import Pass

from test_engine import PEAKS, cfg_for, legal_widths
from test_ledger import CONFIGS

SWEEP = [cfg_for(name, width=width, height=16, cols=cols)
         for name in PEAKS for cols in (1, 2, 4)
         for width in legal_widths(cols)[::37]]


def assert_batch_is_each_alone(cfg):
    """Every template of cfg's run equals its blockline's built alone;
    returns how many templates the run's batch holds."""
    eng = Engine(cfg)
    _, templates = eng._templates()
    for tm in templates.values():
        alone = vars(Pass(eng, tm.bl0))
        assert vars(tm).keys() == alone.keys()
        for name, want in alone.items():
            got = vars(tm)[name]
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype, (tm.bl0, name)
                assert np.array_equal(got, want), (tm.bl0, name)
            else:
                assert got == want, (tm.bl0, name)
    return len(templates)


@pytest.mark.parametrize("cfg", CONFIGS, ids=range(len(CONFIGS)))
def test_batched_templates_match_each_built_alone(cfg):
    assert_batch_is_each_alone(cfg)


def test_batched_templates_match_each_built_alone_on_a_width_stride():
    """Every run of the stride batches several classes."""
    assert min(map(assert_batch_is_each_alone, SWEEP)) > 1
