"""A spy on a closed loop's compiled step, the one boundary every flow step crosses.

`loop.step` and the loop's compiled run of flow steps (`flow_steps`) both
call the compiled step, so a spy there sees each step whichever path takes
it; a step that the run hands back to `solve` is seen twice, once by the
run and once by `loop.step`.
"""


def spy_compiled_step(loop, seen) -> None:
    """Call seen(t, y, h, meas) before each call of the loop's compiled step.

    The step is that of the loop's measurement kind and reference function,
    compiled here if it was not yet.
    """
    exact = loop.noise is None
    step = loop._step_function(exact)

    def spy(t, y, h, meas):
        seen(t, y, h, meas)
        return step(t, y, h, meas)

    loop._steps[exact, loop.reference.z_fn] = spy
