"""Set-up probe: a fresh process that stops at the program's first solver step.

    python3 perfbench/probe.py INPUTS_JSON OUT_DIR

`run.py` starts this script and reads the CLOCK_MONOTONIC time it prints,
so the set-up time it measures covers interpreter start, the imports, config
parsing and validation, `design_params` and loop construction: everything a
workload does before `solve` takes its first step.
"""

import json
import sys
import time
import warnings
from pathlib import Path


class FirstStep(Exception):
    pass


def main() -> int:
    inputs_path, out_dir = sys.argv[1], Path(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    warnings.simplefilter("ignore")  # gain advisories of the bundled configs
    import workloads
    from so3track import scenarios

    first = []

    def solve(*args, **kwargs):
        first.append(time.clock_gettime(time.CLOCK_MONOTONIC))
        raise FirstStep

    inputs = json.loads(Path(inputs_path).read_text())
    cfgs = workloads.build_configs(inputs)
    scenarios.solve = solve
    try:
        if "scenario" in inputs:
            scenarios.run_scenario(cfgs[0], out_dir, plots=True)
        else:
            scenarios.simulate_member(cfgs[0], cfgs[0].members[0])
    except FirstStep:
        pass
    if not first:
        print("probe: the workload finished without calling solve", file=sys.stderr)
        return 1
    print(json.dumps({"first_step": min(first)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
