"""Straight-line compilation of a float kernel, by tracing it once.

A closed loop's flow runs about two hundred float operations through some
thirty Python calls, and the calls, tuple packing, slicing and attribute
lookups cost more than the arithmetic.  `compile_traced` runs a function once
on symbolic floats (`Var`), which record every operation they take part in,
and emits one Python function that evaluates the recorded expressions
directly:

  * a node used once is folded, in parentheses, into the expression that
    uses it; only nodes used more than once become locals;
  * each input sequence is unpacked once;
  * every constant and math function is bound as a default argument, so the
    body makes no global or attribute lookup (`co_names == ()`) and its
    source text depends on the structure of the trace, not on the values of
    its constants.  Code objects are cached by source text.

The emitted code applies the same IEEE operations to the same operands in
the same expression tree as the traced function, so it returns the same
bits.  Whatever would need a value at trace time (a branch, a comparison,
`abs`, a `math` function, a numpy scalar) raises TypeError instead of being
baked in; a kernel takes its math functions from its `xp` argument, and the
trace passes `XP`.
"""

from __future__ import annotations

import functools
import math
import types

_BINARY = ("+", "-", "*", "/")
_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "sqrt": math.sqrt}


def _operand(x):
    """x itself if it is a Var or a constant of exact type float or int."""
    if type(x) is Var or type(x) is float or type(x) is int:
        return x
    raise TypeError(f"a traced float meets a {type(x).__name__}; only float and int "
                    "constants can be traced")


def _binary(op: str) -> tuple:
    """The operator and its reflected form, each recording its operands in order."""
    return (lambda self, o: Var(op, (self, _operand(o))),
            lambda self, o: Var(op, (_operand(o), self)))


def _no_value(self, *_):
    raise TypeError("a traced float has no value: a branch, comparison, abs() or math "
                    "function cannot depend on it (kernels take math from their xp)")


class Var:
    """A traced float: a node of the expression DAG (op None is an input, args its name)."""

    __slots__ = ("op", "args")
    __array_ufunc__ = None  # numpy defers to the reflected operator, which refuses its scalars

    def __init__(self, op, args):
        self.op = op
        self.args = args

    __add__, __radd__ = _binary("+")
    __sub__, __rsub__ = _binary("-")
    __mul__, __rmul__ = _binary("*")
    __truediv__, __rtruediv__ = _binary("/")

    def __neg__(self):
        return Var("neg", (self,))

    __bool__ = __float__ = __index__ = __abs__ = _no_value
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _no_value  # and so unhashable


def _call(name):
    return lambda x: Var(name, (_operand(x),))


# The kernels' `xp` during a trace: each call is recorded.
XP = types.SimpleNamespace(**{name: _call(name) for name in _FUNCTIONS})


def _inputs(name: str, shape):
    """Input Vars for an argument of the given shape: a length, a tuple of lengths, or None."""
    if shape is None:
        return None
    if isinstance(shape, int):
        return tuple(Var(None, f"{name}{i}") for i in range(shape))
    start = 0
    parts = []
    for n in shape:
        parts.append(tuple(Var(None, f"{name}{start + i}") for i in range(n)))
        start += n
    return tuple(parts)


def _target(part) -> str:
    return "(" + ", ".join(v.args if type(v) is Var else _target(v) for v in part) + ",)"


def _emit(name: str, inputs: dict, outputs) -> tuple[str, list]:
    """(source text, default values) of a function returning `outputs`."""
    uses, order = {}, []  # order: the operation nodes reachable from outputs, operands first

    def visit(v):
        if id(v) in uses:
            uses[id(v)] += 1
            return
        uses[id(v)] = 1
        if v.op is not None:
            for a in v.args:
                if type(a) is Var:
                    visit(a)
            order.append(v)

    for o in outputs:
        if type(o) is Var:
            visit(o)
    names = {}  # id of a local or a constant -> its name
    defaults, calls = [], set()

    def expr(v) -> str:
        text = names.get(id(v))
        if text is not None:
            return text
        if type(v) is not Var:  # constants are kept alive by the DAG, so ids stay unique
            text = names[id(v)] = f"c_{len(defaults)}"
            defaults.append(v)
            return text
        if v.op is None:
            return v.args
        if v.op == "neg":
            return f"(-{expr(v.args[0])})"
        if v.op in _BINARY:
            return f"({expr(v.args[0])} {v.op} {expr(v.args[1])})"
        calls.add(v.op)
        return f"{v.op}({expr(v.args[0])})"

    body = [f"    {_target(part)} = {arg}" for arg, part in inputs.items() if part is not None]
    n_locals = 0
    for v in order:
        if uses[id(v)] > 1:
            local = f"t_{n_locals}"
            n_locals += 1
            body.append(f"    {local} = {expr(v)}")
            names[id(v)] = local
    body.append(f"    return ({''.join(expr(o) + ', ' for o in outputs)})")
    funcs = sorted(calls)
    params = [*inputs, *(f"c_{i}" for i in range(len(defaults))), *funcs]
    source = f"def {name}({', '.join(params)}):\n" + "\n".join(body) + "\n"
    return source, [*defaults, *(_FUNCTIONS[f] for f in funcs)]


@functools.lru_cache(maxsize=64)
def _code(source: str) -> types.CodeType:
    module = compile(source, "<straightline>", "exec")
    return next(c for c in module.co_consts if isinstance(c, types.CodeType))


def compile_traced(fn, name: str, **shapes):
    """fn(XP, **inputs) as one straight-line function of the inputs named in `shapes`.

    Each shape is a length (a sequence of floats), a tuple of lengths (a
    sequence of such sequences) or None (an argument that is not traced; fn
    gets None).  fn returns a sequence of traced floats or float constants;
    the compiled function takes the inputs by position and returns them as a
    tuple.  Argument names are alphabetic and name no math function, so they
    cannot collide with the generated names.
    """
    for arg in shapes:
        if not arg.isalpha() or arg in _FUNCTIONS:
            raise ValueError(f"argument name {arg!r} is not alphabetic or names a function")
    inputs = {arg: _inputs(arg, shape) for arg, shape in shapes.items()}
    outputs = [_operand(o) for o in fn(XP, **inputs)]
    source, defaults = _emit(name, inputs, outputs)
    return types.FunctionType(_code(source), {}, name, tuple(defaults))
