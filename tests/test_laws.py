"""Every law's Lyapunov invariants: the rows of `laws.TABLE`."""

import pytest

import laws
import paths


@pytest.mark.parametrize("row, structure", laws.CASES, ids=map(paths.case_id, laws.CASES))
def test_each_law_keeps_its_lyapunov_invariants(row, structure, traffic):
    row.check(structure, traffic)
