"""CSV output: the bytes `write_csv` gives for a known arc."""

import numpy as np

from so3track import output
from so3track.hybrid import HybridArc
from so3track.output import write_csv


def test_write_csv_prints_integers_as_integers_and_floats_with_17_digits(tmp_path):
    arc = HybridArc(
        controller="basic", columns=("x", "in_jump_set"),
        t=np.array([0.0, 2.0, 3.0]), j=np.array([0, 1, 10**6]),
        data=np.array([[0.1, 0.0], [-2.0, 1.0], [1.0 / 3.0, 0.0]]),
        states=np.zeros((3, 1)), jumps=[], status="ok", dt=1.0,
    )
    path = tmp_path / "arc.csv"
    write_csv(path, arc, footer_lines=("done",))
    assert path.read_text() == (
        "t,j,x,in_jump_set\n"
        "0,0,0.10000000000000001,0\n"
        "2,1,-2,1\n"
        "3,1000000,0.33333333333333331,0\n"
        "# done\n"
    )


def test_write_csv_gives_the_same_bytes_batch_by_batch(tmp_path, monkeypatch):
    # rows are formatted in batches of CSV_BATCH; a batch boundary changes no byte
    arc = HybridArc(
        controller="basic", columns=("x",), t=np.linspace(0.0, 1.0, 5), j=np.arange(5),
        data=np.sqrt(np.arange(5.0))[:, None], states=np.zeros((5, 1)), jumps=[],
        status="ok", dt=0.25,
    )
    write_csv(tmp_path / "one.csv", arc)
    monkeypatch.setattr(output, "CSV_BATCH", 2)
    write_csv(tmp_path / "three.csv", arc)
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "three.csv").read_bytes()
    assert (tmp_path / "one.csv").read_text().splitlines()[2] == "0.25,1,1"
