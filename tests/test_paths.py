"""Every fast path against its reference path: the rows of `paths.TABLE`."""

import pytest

import paths


@pytest.mark.parametrize("row, structure", paths.CASES, ids=map(paths.case_id, paths.CASES))
def test_fast_path_gives_the_bits_of_its_reference(row, structure, traffic):
    row.check(structure, traffic)
