"""Exception types shared across the package."""

from __future__ import annotations


class ContractError(ValueError):
    """An input violates a documented precondition or invariant."""


class SolverError(RuntimeError):
    """The hybrid solver could not continue (chattering, domain exit, bound violation).

    An error raised by `solve` carries the hybrid time `t` and jump count `j`
    where it stopped: a flow step's error the (t, j) the step started from and
    its length `h`, a jump margin that is not a number or the chattering guard
    the (t, j) of the offending state, with `h` None.  A reference that leaves
    its declared bounds raises with the t at which it did, and `j` and `h`
    None; a jump map applied outside its set leaves all three None.
    """

    def __init__(self, message: str, *, t: float | None = None, j: int | None = None,
                 h: float | None = None):
        super().__init__(message)
        self.t = t
        self.j = j
        self.h = h


class ConfigError(ValueError):
    """A scenario configuration is invalid."""
