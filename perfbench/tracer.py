"""A tracer that times so3track's layers from outside the package.

It replaces module attributes and class methods with timing wrappers and puts
the originals back afterwards; nothing under `src/` is edited. Each wrapper
knows its boundary's label (what is reported) and family (what counts as the
same boundary). A call made while the innermost open boundary is of the same
family passes straight through, so `NonHybridLoop.flow` calling
`BasicLoop.flow` through `super()` is counted once.

Every thread keeps its own stack of open boundaries, because `run_scenario`
runs members on a thread pool. Busy time is the thread's CPU time, so time a
pool thread spends waiting for the interpreter lock is not charged to the
layer it was in; it shows as the member's wall time minus its CPU time. Hot
boundaries are not kept as spans: each member aggregates, per (label, parent
family), the call count, busy time and the busy time of child boundaries.
Coarse boundaries also keep one span per call, with wall-clock start and end.
Everything stays in memory until the caller writes it out.
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass
from typing import Callable

HOT, SPAN, MEMBER = "hot", "span", "member"


@dataclass(frozen=True)
class Boundary:
    owner: object  # module or class whose attribute is replaced
    attr: str
    label: str
    family: str
    kind: str = HOT
    # Extra amount to add up for each call, from (args, result); e.g. bytes.
    extra: Callable | None = None


def resolve(path: str):
    """'pkg.mod' or 'pkg.mod:Class' to the module or class object."""
    mod, _, cls = path.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self, boundaries, member_key: Callable):
        """`member_key(args)` names the member a member boundary runs."""
        self.boundaries = list(boundaries)
        self.member_key = member_key
        self.members = {}  # member key -> {"agg", "start", "end", "cpu", "thread"}
        self.spans = []
        self._roots = []  # one aggregate per thread, for calls outside members
        self._local = threading.local()
        self._patches = []

    def __enter__(self):
        for b in self.boundaries:
            original = (b.owner.__dict__[b.attr] if isinstance(b.owner, type)
                        else getattr(b.owner, b.attr))
            make = self._hot if b.kind == HOT else self._span
            setattr(b.owner, b.attr, make(original, b))
            self._patches.append((b.owner, b.attr, original))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def _stack(self) -> list:
        """The calling thread's stack of open boundaries, made on first use."""
        loc = self._local
        try:
            return loc.stack
        except AttributeError:
            loc.stack = []
            loc.agg = {}
            loc.member = None
            self._roots.append(loc.agg)  # list.append is atomic
            return loc.stack

    def _hot(self, fn, b: Boundary):
        label, family, loc, get_stack = b.label, b.family, self._local, self._stack
        clock = time.thread_time

        def wrapper(*args, **kwargs):
            try:
                stack = loc.stack
            except AttributeError:
                stack = get_stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == family:
                return fn(*args, **kwargs)
            frame = [family, 0.0]
            stack.append(frame)
            c0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - c0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                key = (label, parent[0] if parent is not None else None)
                rec = loc.agg.get(key)
                if rec is None:
                    loc.agg[key] = [1, dt, frame[1], 0.0]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += frame[1]

        return wrapper

    def _span(self, fn, b: Boundary):
        """Aggregates like a hot boundary and keeps a span per call.

        A member boundary also gives the calls under it an aggregate of their
        own, kept in `members` under the member's key.
        """
        label, family, extra, loc = b.label, b.family, b.extra, self._local
        member_boundary = b.kind == MEMBER
        perf, clock = time.perf_counter, time.thread_time

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == family:
                return fn(*args, **kwargs)
            frame = [family, 0.0]
            stack.append(frame)
            prev_agg, prev_member = loc.agg, loc.member
            member = prev_member
            if member_boundary:
                member = self.member_key(args)
                loc.agg, loc.member = {}, member
            result = returned = None
            t0, c0 = perf(), clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                dt = clock() - c0
                t1 = perf()
                stack.pop()
                if member_boundary:
                    self.members[member] = {
                        "agg": loc.agg, "start": t0, "end": t1, "cpu": dt,
                        "thread": threading.get_ident(),
                    }
                    loc.agg, loc.member = prev_agg, prev_member
                if parent is not None:
                    parent[1] += dt
                pfam = parent[0] if parent is not None else None
                add = extra(args, result) if extra is not None and returned else 0.0
                rec = prev_agg.setdefault((label, pfam), [0, 0.0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]
                rec[3] += add
                self.spans.append({
                    "name": label, "parent": pfam, "member": member,
                    "thread": threading.get_ident(), "start": t0, "end": t1,
                    "cpu": dt, "self_cpu": dt - frame[1],
                })

        return wrapper

    def totals(self) -> dict:
        """(label, parent family) -> [calls, CPU s, child CPU s, extra], over all threads."""
        out = {}
        for agg in [*self._roots, *(m["agg"] for m in self.members.values())]:
            for key, rec in agg.items():
                acc = out.setdefault(key, [0, 0.0, 0.0, 0.0])
                for i in range(4):
                    acc[i] += rec[i]
        return out
