"""Byte identity across commits: the runs of `make_golden.run_all` against `golden.json`.

`make_golden.py` wrote the file, and regenerates it for a deliberate output
change.  Where the platform matches the one it was made on, every CSV,
certificate and run record must have its digest; elsewhere (another Python,
numpy or C library) their parsed values must agree at 1e-12, and a warning
says that the exact check did not run.
"""

import json
import math
import warnings

import make_golden

TOL = 1e-12


def assert_values_close(want, got, where: str):
    if isinstance(want, float):
        assert math.isclose(got, want, rel_tol=TOL, abs_tol=TOL) or (
            math.isnan(want) and math.isnan(got)), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert want.keys() == got.keys(), where
        for key in want:
            assert_values_close(want[key], got[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(want) == len(got), where
        for i, (a, b) in enumerate(zip(want, got)):
            assert_values_close(a, b, f"{where}[{i}]")
    else:
        assert got == want, where


def test_short_fig3_and_fig4_runs_give_the_golden_files(tmp_path):
    golden = json.loads(make_golden.GOLDEN.read_text())
    files = make_golden.run_all(tmp_path)
    assert sorted(files) == sorted(golden["files"])
    exact = golden["platform"] == make_golden.platform_key()
    for name, path in files.items():
        want = golden["files"][name]
        if exact:
            assert make_golden.digest(path) == want["sha256"], name
        assert_values_close(want["values"], make_golden.values(path), name)
    if not exact:
        warnings.warn(f"golden files: the byte-for-byte check did not run, since this platform "
                      f"{make_golden.platform_key()} is not {golden['platform']}; the parsed "
                      f"values agree at {TOL}")
