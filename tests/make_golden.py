"""Regenerate `tests/golden.json`: the digests and parsed values of short runs.

    PYTHONPATH=src python tests/make_golden.py

The runs are `so3track run fig4 --t-max 1.5`, `so3track run fig3 --t-max 2`
and the four tumbling members of `paths` to t = 0.5, whose hybrid laws
refine a crossing each; a member's CSV is written by `write_csv`, with its
certificate's lines as the footer.  For each CSV, `_cert.txt` and `_run.json`,
the file holds its sha256 and a summary of its parsed values (`values`), next
to the platform the bits depend on: the Python and numpy versions and the C
library, whose `sin` and `cos` the kernels call.  `test_golden.py` compares a
fresh run with it.

Regenerating is a deliberate output change and a logged step of its own: the
script prints the largest difference of each changed value from the old
file, to be stated with the change.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from so3track import cli
from so3track.output import write_csv
from so3track.scenarios import simulate_member
from paths import TUMBLE_SEEDS, tumble_config

GOLDEN = Path(__file__).resolve().parent / "golden.json"
RUNS = (("fig4", "--t-max", "1.5"), ("fig3", "--t-max", "2"))
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|\binf\b|\bnan\b)")


def platform_key() -> dict:
    """What the bits of the files depend on besides the code."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "libc": list(platform.libc_ver())}


def run_all(out_dir: Path) -> dict:
    """Run RUNS into directories of their own under out_dir and the tumbling members into
    `tumble_<law>.csv` there; {name: path} of the CSVs, certificates and run records."""
    files = {}
    for name, *args in RUNS:
        target = out_dir / name
        code = cli.main(["run", name, "--out-dir", str(target), "--no-plots", *args])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"so3track run {name} {' '.join(args)} exited {code}")
        files.update((p.name, p) for p in sorted(target.iterdir())
                     if p.suffix == ".csv" or p.name.endswith(("_cert.txt", "_run.json")))
    for law in sorted(TUMBLE_SEEDS):
        cfg = tumble_config(law)
        res = simulate_member(cfg, cfg.members[0])
        path = files[f"tumble_{law}.csv"] = out_dir / f"tumble_{law}.csv"
        write_csv(path, res.arc, footer_lines=res.report.lines())
    return files


def _text_values(lines) -> dict:
    """The numbers of text lines, and the lines with each number replaced by '#'."""
    text = "\n".join(lines)
    numbers = [float(x) for x in _NUMBER.findall(text)]
    return {"skeleton": _NUMBER.sub("#", text), "numbers": numbers}


def values(path: Path) -> dict:
    """The parsed values of a CSV or a certificate, summarised to compare at a tolerance.

    A CSV gives its header, its row count, per column the sum, the sum of
    absolute values, the least, the largest and the last value, and its '#'
    footer as text; a certificate gives its text; a run record gives its
    fields but `versions`, whose Python and numpy the digest covers where the
    platform matches.
    """
    if path.suffix == ".json":
        return {k: v for k, v in json.loads(path.read_text()).items() if k != "versions"}
    lines = path.read_text().splitlines()
    if path.suffix != ".csv":
        return _text_values(lines)
    rows = [line for line in lines[1:] if not line.startswith("#")]
    data = np.array([[float(x) for x in row.split(",")] for row in rows])
    return {
        "header": lines[0],
        "rows": len(rows),
        "columns": [[float(c.sum()), float(np.abs(c).sum()), float(c.min()), float(c.max()),
                     float(c[-1])] for c in data.T],
        "footer": _text_values([line for line in lines[1:] if line.startswith("#")]),
    }


def digest(path: Path) -> str:
    """The sha256 of the file; of a run record, with the package version blanked, since a
    release changes it and no output."""
    return hashlib.sha256(re.sub(rb'"so3track": "[^"]*"', b'"so3track": ""',
                                 path.read_bytes())).hexdigest()


def golden(files: dict) -> dict:
    return {"platform": platform_key(),
            "files": {name: {"sha256": digest(p), "values": values(p)}
                      for name, p in sorted(files.items())}}


def _numbers(v):
    """The floats of a values summary, in order."""
    if isinstance(v, float):
        yield v
    elif isinstance(v, dict):
        for x in v.values():
            yield from _numbers(x)
    elif isinstance(v, list):
        for x in v:
            yield from _numbers(x)


def largest_differences(old: dict, new: dict) -> dict:
    """{file name: largest absolute difference of its values} over the files whose bytes changed."""
    out = {}
    for name, entry in new["files"].items():
        before = old["files"].get(name)
        if before is None or before["sha256"] == entry["sha256"]:
            continue
        a, b = list(_numbers(before["values"])), list(_numbers(entry["values"]))
        out[name] = (max((abs(x - y) for x, y in zip(a, b) if math.isfinite(x - y)), default=0.0)
                     if len(a) == len(b) else "layout changed")
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        new = golden(run_all(Path(tmp)))
    if GOLDEN.exists():
        for name, diff in largest_differences(json.loads(GOLDEN.read_text()), new).items():
            print(f"{name}: largest value difference {diff}")
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n")
    print(f"wrote {GOLDEN} for {new['platform']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
