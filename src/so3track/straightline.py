"""Straight-line compilation of a float kernel, by tracing it once.

A closed loop's RK4 step runs one to two and a half thousand float
operations through many Python calls, and the calls, tuple packing, slicing
and attribute lookups cost more than the arithmetic.  `trace` runs a
function once on symbolic floats (`Var`), which record every operation they
take part in, and emits one Python function that evaluates the recorded
expressions directly:

  * an operation that repeats an earlier one, the same op on the same
    operands, is emitted once (value numbering): the two `t + h/2` stages
    of an RK4 step evaluate the reference once, and the basic law's exact
    step drops from 1 084 to 1 060 binary operations and from 20 to 17
    math calls;
  * a node used once is folded into the expression that uses it, with only
    the parentheses that its grouping needs; only nodes used more than once
    become locals;
  * a local's name is reused once its last use has run, so its float is
    released there and not kept until the return;
  * each input sequence is unpacked once;
  * every constant and math function is bound as a default argument, so the
    body makes no global or attribute lookup (`co_names == ()`).  The math
    functions are those of the `xp` that `Traced.bind` is given: `math` for
    floats, or elementwise ones for (n,) arrays (`so3.ARRAY_MATH`), on which
    the same code runs every operation elementwise, with the same bits.

A local is addressed by a one-byte argument up to the 256th; past that
every access pays an `EXTENDED_ARG`.  So a caller keeps kernels apart rather
than tracing them as one: a noisy velocity_free step traced together with
its two jump margins has 299 locals and ran slower than the step and the
margins called apart, while for the basic and smooth laws (222 and 252
locals) the fold gained nothing.

The parameters of a trace are objects (gains, weights) that the traced code
reads attributes of.  During the trace each is a read-only stand-in: reading
a float, or a tuple of floats, gives input Vars, and reading anything else
raises TypeError, so no parameter value is baked into the code.  The trace
splits the expression DAG: the nodes that depend on parameters alone are
emitted as a second function, `bind`, which `Traced.bind` evaluates once for
each set of parameter objects (partial evaluation), and the main function
takes their values as default arguments.  One trace thus serves every caller
whose parameters have the same shapes.  Nothing is cached here: a caller
keeps the `Traced` it will bind again (the closed loops keep theirs in one
cache, by loop structure; see `controllers._TrackingLoop._compile`).

The emitted code applies the same IEEE operations to the same operands in
the same expression tree as the traced function, so it returns the same
bits.  Whatever would need a value at trace time (a branch, a comparison,
`abs`, a `math` function, a numpy scalar) raises TypeError instead of being
baked in; a kernel takes its math functions from its `xp` argument, and the
trace passes `XP`.

`statements` emits a traced kernel as statements instead, for generated code
with control flow around it that holds the kernel's inputs in locals (the
closed loops' runs of flow steps inline the Newton-Schulz pass this way),
and `function` makes such code a function.
"""

from __future__ import annotations

import math
import types

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}  # binary operators; both sides associate left
_UNARY = 3  # unary minus binds tighter than * and /
_ATOM = 4  # names and calls
_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "sqrt": math.sqrt}
_NUMBERS = (float, int)


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
    """Input Vars for an argument of the given shape.

    () is a float, a length a sequence of floats, a tuple of lengths a
    sequence of such sequences, and None an argument that is not traced.
    """
    if shape is None:
        return None
    if shape == ():
        return Var(None, name)
    if isinstance(shape, int):
        return tuple(Var(None, f"{name}{i}") for i in range(shape))
    start = 0
    parts = []
    for n in shape:
        parts.append(tuple(Var(None, f"{name}{start + i}") for i in range(n)))
        start += n
    return tuple(parts)


def _leaf_shape(value):
    """None for a float or int parameter, its length for a tuple of them, else TypeError."""
    if type(value) in _NUMBERS:
        return None
    if type(value) is tuple and all(type(x) in _NUMBERS for x in value):
        return len(value)
    raise TypeError(f"a {type(value).__name__} is not a float or a tuple of floats, "
                    "so it cannot be a parameter of traced code")


class _Parameters:
    """The read-only stand-in for a parameter object during a trace.

    Each float or float-tuple attribute read becomes input Vars of `bind`,
    named p0, p1, ... in the order of first reading, and is recorded in
    `leaves` as (owner, attribute, shape).
    """

    def __init__(self, owner: str, obj, leaves: list, flat: list):
        object.__setattr__(self, "_of", (owner, obj, leaves, flat, {}))

    def __getattr__(self, attr):
        owner, obj, leaves, flat, seen = self._of
        if attr not in seen:
            try:
                shape = _leaf_shape(getattr(obj, attr))
            except TypeError as e:
                raise TypeError(f"{owner}.{attr}: {e}") from None
            leaves.append((owner, attr, shape))
            n = 1 if shape is None else shape
            new = tuple(Var(None, f"p{len(flat) + i}") for i in range(n))
            flat.extend(new)
            seen[attr] = new[0] if shape is None else new
        return seen[attr]

    def __setattr__(self, attr, value):
        raise TypeError("the parameters of a trace are read-only")


def _flatten(outputs) -> list:
    """The leaves of a nested tuple or list of outputs, each checked by `_operand`."""
    if type(outputs) is tuple or type(outputs) is list:
        return [x for o in outputs for x in _flatten(o)]
    return [_operand(outputs)]


def _graph(roots, stop: dict) -> tuple[dict, list]:
    """(uses, order) of the DAG below `roots`.

    uses maps the id of every node reached to its number of uses; order
    lists the operation nodes, operands first.  Nodes in `stop` are counted
    but not entered.
    """
    uses, order = {}, []
    for r in roots:
        if type(r) is Var:
            _visit(r, uses, order, stop)
    return uses, order


def _visit(v, uses: dict, order: list, stop: dict) -> None:
    # A function of its own, not a closure, whose cycle through its cell
    # would keep `order`, and so the whole DAG, alive until a collection.
    if id(v) in uses:
        uses[id(v)] += 1
        return
    uses[id(v)] = 1
    if v.op is not None and id(v) not in stop:
        for a in v.args:
            if type(a) is Var:
                _visit(a, uses, order, stop)
        order.append(v)


def _numbered(outputs):
    """outputs, with each operation node that repeats an earlier one replaced by that one.

    Value numbering: in order, operands first, a node whose op and operands
    (after their own replacement) are those of an earlier node is replaced
    by it, in the operands of every later node (in place) and in outputs.
    Constants are the same operand when their reprs are, so 0.0 and -0.0
    stay apart.  A node and its repeat compute the same bits, so the merged
    DAG does too.
    """
    _, order = _graph(_flatten(outputs), {})
    first, same = {}, {}  # (op, *operand keys) -> its first node; id of a repeat -> that node
    for v in order:
        v.args = args = tuple([same.get(id(a), a) for a in v.args])
        key = (v.op, *[id(a) if type(a) is Var else (type(a), repr(a)) for a in args])
        u = first.setdefault(key, v)
        if u is not v:
            same[id(v)] = u
    return _replaced(outputs, same)


def _replaced(outputs, same: dict):
    # A function of its own, not a closure: see `_visit`.
    if type(outputs) is tuple or type(outputs) is list:
        return tuple(_replaced(o, same) for o in outputs)
    return same.get(id(outputs), outputs)


def _display(o, render) -> str:
    """A nested sequence of nodes as a tuple display, each node rendered by `render`."""
    if type(o) is tuple or type(o) is list:
        return "(" + "".join(_display(x, render) + ", " for x in o) + ")"
    return render(o)[0]


def _statements(outputs, bound=(), prefix: str = "") -> tuple[list, str, list, list]:
    """(statements, result, constants, math function names) that evaluate `outputs`.

    outputs is a nested sequence of Vars and constants; result displays it
    as nested tuples over the statements' locals, named prefix + t_<i>, and
    the inputs' names.  The nodes in `bound` are read as b_0, b_1, ..., the
    constants as prefix + c_<i>, in the order of the constants list, and the
    math functions by their names: the caller binds them all.
    """
    names = {id(v): f"b_{i}" for i, v in enumerate(bound)}  # id of a node -> its name
    uses, order = _graph(_flatten(outputs), names)
    unread = {id(v): uses[id(v)] for v in order if uses[id(v)] > 1}  # each local's reads to come
    defaults, calls, dead = [], set(), []

    def render(v) -> tuple[str, int]:
        """(text, precedence) of the expression of v, from the names given so far."""
        text = names.get(id(v))
        if text is not None:
            if id(v) in unread:  # a local read for the last time frees its name
                unread[id(v)] -= 1
                if not unread[id(v)]:
                    dead.append(text)
            return text, _ATOM
        if type(v) is not Var:  # constants are kept alive by the DAG, so ids stay unique
            text = names[id(v)] = f"{prefix}c_{len(defaults)}"
            defaults.append(v)
            return text, _ATOM
        if v.op is None:
            return v.args, _ATOM
        if v.op == "neg":
            text, prec = render(v.args[0])
            return "-" + (text if prec >= _UNARY else f"({text})"), _UNARY
        prec = _PRECEDENCE.get(v.op)
        if prec is not None:
            left, lp = render(v.args[0])
            right, rp = render(v.args[1])
            if lp < prec:
                left = f"({left})"
            if rp <= prec:  # a - (b - c) and a * (b * c) keep their grouping
                right = f"({right})"
            return f"{left} {v.op} {right}", prec
        calls.add(v.op)
        return f"{v.op}({render(v.args[0])[0]})", _ATOM

    body, free, n_names = [], [], 0
    for v in order:
        if id(v) in unread:
            value = render(v)[0]
            free += dead
            dead.clear()
            if free:
                local = free.pop()
            else:
                local = f"{prefix}t_{n_names}"
                n_names += 1
            body.append(f"{local} = {value}")
            names[id(v)] = local
    return body, _display(outputs, render), defaults, sorted(calls)


def _emit(name: str, inputs: dict, outputs, bound=()) -> tuple[str, list, list]:
    """(source text, constants, math function names) of a function of `inputs` returning `outputs`.

    outputs is a nested sequence of Vars and constants, returned as nested
    tuples.  The nodes in `bound` are parameters b_0, b_1, ... of the
    function, after the inputs, and the constants and the math functions
    follow them, in the order of the two lists; none of these has a default
    in the source.
    """
    unpack = [f"{_display(part, lambda v: (v.args,))} = {arg}" for arg, part in inputs.items()
              if type(part) is tuple and part]
    body, result, defaults, funcs = _statements(outputs, bound)
    params = [*inputs, *(f"b_{i}" for i in range(len(bound))),
              *(f"c_{i}" for i in range(len(defaults))), *funcs]
    lines = [*unpack, *body, f"return {result}"]
    source = f"def {name}({', '.join(params)}):\n" + "".join(f"    {s}\n" for s in lines)
    return source, defaults, funcs


def statements(fn, prefix: str, **inputs) -> tuple[list, str, dict]:
    """fn traced into statements for generated code that holds its inputs in locals.

    Each input is a tuple of the names of the locals that hold its floats;
    fn(XP, **inputs) gets a tuple of Vars of those names for each and
    returns a nested sequence of traced floats and constants.  Returns
    (lines, result, constants): the lines compute, in order, the nodes read
    more than once into locals named prefix + t_<i>; result is the outputs
    as a tuple display over those locals and the inputs, to be assigned at
    once, since an output's local may be an input of another; constants
    maps the names by which the lines read constants, prefix + c_<i>, to
    their values, which the generated code binds.  The lines run the traced
    operations as `trace`'s code does, so they give its bits; fn may call no
    math function.
    """
    outputs = _numbered(fn(XP, **{arg: tuple(Var(None, n) for n in names)
                                  for arg, names in inputs.items()}))
    lines, result, constants, calls = _statements(outputs, prefix=prefix)
    if calls:
        raise TypeError(f"a statement calls {calls}: generated code binds no math function")
    return lines, result, {f"{prefix}c_{i}": c for i, c in enumerate(constants)}


def function(source: str, name: str, defaults: tuple) -> types.FunctionType:
    """The function `name` defined by `source`, with `defaults` for its last parameters.

    The function's globals are empty, so its code must read every name it
    uses from its parameters.
    """
    return types.FunctionType(_function_code(source), {}, name, defaults)


def _function_code(source: str) -> types.CodeType:
    module = compile(source, "<straightline>", "exec")
    return next(c for c in module.co_consts if isinstance(c, types.CodeType))


class Traced:
    """A traced function: its code, and `bind`, which gives it the values of parameter objects."""

    def __init__(self, name: str, leaves: list, emitted: tuple, bind_emitted: tuple):
        """emitted and bind_emitted are what `_emit` gives for the function and for `bind`."""
        self.name = name
        self.source, constants, self._calls = emitted
        self.code = _function_code(self.source)
        self._constants = tuple(constants)
        self._leaves = leaves
        bind_source, bind_constants, bind_calls = bind_emitted
        self._bind = function(bind_source, "bind", (
            *bind_constants, *(_FUNCTIONS[f] for f in bind_calls)))

    def bind(self, xp=math, **objects):
        """The traced function with the parameters of `objects`, named as in the trace.

        The function calls the math functions of `xp`: `math` for floats, or
        any namespace whose `sin`, `cos` and `sqrt` apply to the inputs it
        will be given (such as `so3.ARRAY_MATH`, for (n,) arrays).  The
        parameters are evaluated here on floats, with `math`, whatever `xp`
        is.  Every attribute the trace read must have the shape it had then;
        TypeError otherwise.
        """
        p = []
        for owner, attr, shape in self._leaves:
            value = getattr(objects[owner], attr)
            try:
                ok = _leaf_shape(value) == shape
            except TypeError:
                ok = False
            if not ok:
                traced = "a float" if shape is None else f"a tuple of {shape} floats"
                raise TypeError(f"{owner}.{attr} = {value!r} does not have the shape it was "
                                f"traced with, {traced}")
            if shape is None:
                p.append(value)
            else:
                p.extend(value)
        return types.FunctionType(self.code, {}, self.name, (
            *self._bind(p), *self._constants, *(getattr(xp, f) for f in self._calls)))


def trace(fn, name: str, parameters: dict | None = None, **shapes) -> Traced:
    """Trace fn(XP, **stand-ins, **inputs) into a straight-line function of the inputs.

    Each shape is () (a float), a length (a sequence of floats), a tuple of
    lengths (a sequence of such sequences) or None (an argument that is not
    traced; fn gets None).  `parameters` maps argument names to the objects
    whose float attributes the traced code may read; fn gets read-only
    stand-ins for them (see the module docstring).  fn returns a nested
    sequence of traced floats or float constants.  The function that
    `Traced.bind` returns takes the inputs by position and returns that
    sequence as nested tuples.  Input names are alphabetic and name no math
    function, so they cannot collide with the generated names.
    """
    parameters = parameters or {}
    for arg in shapes:
        if not arg.isalpha() or arg in _FUNCTIONS or arg in parameters:
            raise ValueError(f"argument name {arg!r} is not alphabetic, names a function or "
                             "a parameter")
    leaves, flat = [], []
    stand_ins = {arg: _Parameters(arg, obj, leaves, flat) for arg, obj in parameters.items()}
    inputs = {arg: _inputs(arg, shape) for arg, shape in shapes.items()}
    outputs = _numbered(fn(XP, **stand_ins, **inputs))
    bound = _bound_nodes(outputs, {id(v) for v in flat})
    emitted = _emit(name, inputs, outputs, bound)
    bind_emitted = _emit("bind", {"p": tuple(flat)}, bound)
    del stand_ins, inputs, outputs, bound, flat  # the DAG goes before the compiler's peak
    return Traced(name, leaves, emitted, bind_emitted)


def _bound_nodes(outputs, parameters: set) -> list:
    """The nodes that depend on parameters and constants alone and that an
    output, or a node that depends on an input, reads: what `bind` returns."""
    roots = _flatten(outputs)
    _, order = _graph(roots, {})
    fixed = {}  # id of an operation node -> whether it depends on parameters and constants alone

    def is_fixed(a) -> bool:
        if type(a) is not Var:
            return True
        return id(a) in parameters if a.op is None else fixed[id(a)]

    for v in order:
        fixed[id(v)] = all(is_fixed(a) for a in v.args)
    bound = {}
    for v in order:
        if not fixed[id(v)]:
            bound.update((id(a), a) for a in v.args if type(a) is Var and is_fixed(a))
    bound.update((id(r), r) for r in roots if type(r) is Var and is_fixed(r))
    return list(bound.values())
