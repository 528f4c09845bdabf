"""Every fast path against its reference path: the rows of `paths.TABLE`."""

import pytest

import paths


@pytest.mark.parametrize("row, structure", paths.CASES, ids=map(paths.case_id, paths.CASES))
def test_fast_path_gives_the_bits_of_its_reference(row, structure, fig3_runs, fig4_result):
    row.check(structure, paths.traffic([(loop, arc) for _, loop, arc, _, _ in fig3_runs.values()]
                                       + [(m.loop, m.arc) for m in fig4_result.members]))
