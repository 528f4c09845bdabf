"""Does the table of `paths` see one operator swapped in a compiled kernel or run?

    PYTHONPATH=src:tests python tests/mutate_paths.py

For each function that `straightline` compiles for the table (the kernels
`<law>_step`, `<law>_margin`, `<law>_record` of each structure and the runs
`<law>_run`), a mutant swaps one operator (+ -, * /, unary - +, < <=, > >=,
== !=) at one of PER = 30 positions, sampled by a seed from the source, or at
any comparison of a run.  It takes the function's place in
`controllers._TRACES`, and the table's cases that compile the function run
until one fails, which kills it; unmutated, they must all pass first.  The
script prints the killed and total counts per kernel and each survivor.
"""

import ast
import collections
import types
import warnings
import zlib

import numpy as np

import paths
import so3track as st
from so3track import controllers, straightline

SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.USub: ast.UAdd, ast.UAdd: ast.USub, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
         ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
PER = 30  # operator positions sampled per emitted function


def positions(tree) -> list:
    """(node, index of the op in a comparison or None) of each operator that has a swap."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.UnaryOp)) and type(node.op) in SWAPS:
            out.append((node, None))
        elif isinstance(node, ast.Compare):
            out += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
    return out


def mutant(source: str, k) -> tuple:
    """(code, "expression -> mutated expression") of source with the k-th operator swapped;
    with k None, of source as it is (the control)."""
    tree = ast.parse(source)
    change = ""
    if k is not None:
        node, i = positions(tree)[k]
        before = ast.unparse(node)
        if i is None:
            node.op = SWAPS[type(node.op)]()
        else:
            node.ops[i] = SWAPS[type(node.ops[i])]()
        change = f"{before} -> {ast.unparse(node)}"
    return straightline._function_code(ast.unparse(tree)), change


def code_of(key, fn):
    """The code of a `controllers._TRACES` entry: a run, or a `Traced`."""
    return fn.__code__ if key[1] == "run" else fn.code


def main() -> int:
    warnings.simplefilter("error", RuntimeWarning)  # as the suite's pytest settings do
    members = [st.simulate_member(cfg, m) for cfg in map(st.load_scenario, ("fig3", "fig4"))
               for m in cfg.members]
    traffic = paths.traffic([(m.loop, m.arc) for m in members])

    # the cases that compile each emitted function, each case tracing afresh
    sources, users, traces = {}, collections.defaultdict(list), {}
    compile_code = straightline._function_code

    def recording(source):
        sources[code := compile_code(source)] = source
        return code

    straightline._function_code = recording
    for case in paths.CASES:
        controllers._TRACES.clear()
        case[0].check(case[1], traffic)
        for key, fn in controllers._TRACES.items():
            users[sources[code_of(key, fn)]].append(case)
            traces.setdefault(key, fn)
    straightline._function_code = compile_code
    controllers._TRACES.update(traces)

    counts = collections.defaultdict(lambda: [0, 0])
    survivors = []
    for source, cases in users.items():
        name = source[4:source.index("(")]
        kernel = name.rsplit("_", 1)[1]
        ops = positions(ast.parse(source))
        rng = np.random.default_rng(zlib.crc32(source.encode()))  # the same sample every run
        sample = set(rng.choice(len(ops), min(PER, len(ops)), replace=False).tolist())
        if kernel == "run":
            sample |= {k for k, (_, i) in enumerate(ops) if i is not None}
        keys = {k: code_of(k, fn) for k, fn in traces.items() if sources[code_of(k, fn)] == source}
        for k in [None, *sorted(sample)]:
            code, change = mutant(source, k)
            for key in keys:
                if kernel == "run":
                    controllers._TRACES[key] = types.FunctionType(code, {}, name,
                                                                  traces[key].__defaults__)
                else:
                    traces[key].code = code
            killed = None
            for row, s in cases:
                try:
                    row.check(s, traffic)
                except Exception as e:  # any failure of a case kills the mutant
                    killed = type(e).__name__
                    break
            for key, original in keys.items():
                controllers._TRACES[key] = traces[key]
                if kernel != "run":
                    traces[key].code = original
            if k is None:
                if killed:
                    raise SystemExit(f"{name} fails its cases unmutated: {killed}")
                continue
            counts[kernel][0] += killed is not None
            counts[kernel][1] += 1
            if killed is None:
                survivors.append(f"{name} ({paths.case_id(cases[0])}) op {k}: {change}")
    for kernel, (killed, total) in sorted(counts.items()):
        print(f"{kernel}: {killed} of {total} mutants killed")
    print(*(f"survived: {s}" for s in survivors), sep="\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
