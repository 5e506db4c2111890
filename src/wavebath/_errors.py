"""Refusals shared by modules that do not import each other.

`waveline` and `lattice` both raise `ReflectionWindowError`; it lives
here so that `lattice` need not import the line engine to name it.
"""


class ReflectionWindowError(ValueError):
    """A truncation end would reach the observed site inside the run.

    Raised by both truncation guards: a far-end reflection re-entering
    a reflection-free line, and a chain horizon t_max >= M/c that lets
    the clamped ends contaminate the center site. It refuses the run's
    length, an input, so it is a ValueError like every other refusal.
    """
