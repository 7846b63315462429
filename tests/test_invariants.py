"""Every check of the invariant catalogue, at the count `outwalk verify`
runs it."""

import numpy as np
import pytest

from outwalk import invariants

ROWS = [(suite, name, check, count)
        for suite, rows in invariants.SUITES.items()
        for name, check, count in rows]


@pytest.mark.parametrize("suite,name,check,count", ROWS,
                         ids=[row[1] for row in ROWS])
def test_catalogue_check_passes(suite, name, check, count):
    check(np.random.default_rng(invariants.SEEDS[suite]), count)
