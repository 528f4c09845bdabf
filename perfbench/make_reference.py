"""Write the reference outcomes that every benchmark run is checked against.

    python3 perfbench/make_reference.py

For each workload and each seed in SEEDS it runs one untraced repetition and stores every
member's status, jumps, jump times, certification verdicts and terminal
dist_Re and theta in perfbench/reference.json. fig3_quiet is noise-free, so
its outcome does not depend on the seed and is stored once, under "*".
Outcomes are stored as they come out, certification failures included.
"""

import json
import shutil
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(40)


def render(obj, depth: int = 0) -> str:
    """JSON with one line per member outcome, so a changed outcome is a one-line diff."""
    if depth == 3 or not isinstance(obj, dict):
        return json.dumps(obj, sort_keys=True)
    pad = " " * (depth + 1)
    items = [f"{pad}{json.dumps(k)}: {render(v, depth + 1)}" for k, v in sorted(obj.items())]
    return "{\n" + ",\n".join(items) + "\n" + " " * depth + "}"


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    warnings.simplefilter("ignore")
    import workloads

    stored = {}
    out_dir = HERE / ".work" / "reference"
    for workload in workloads.WORKLOADS:
        keys = ["*"] if workload == "fig3_quiet" else [str(s) for s in SEEDS]
        for key in keys:
            inputs = workloads.make_inputs(workload, 0 if key == "*" else int(key))
            rep = workloads.run_rep(workloads.build_configs(inputs),
                                    out_dir if "scenario" in inputs else None)
            stored.setdefault(workload, {})[key] = rep.outcomes
            failing = [k for k, o in rep.outcomes.items() if not o.get("passed")]
            print(f"{workload} seed {key}: {len(rep.outcomes)} members, failing {failing}",
                  flush=True)
    (HERE / "reference.json").write_text(render(stored) + "\n")
    shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
