"""The worked example: the 12-scene, 6-actor instance the tests and the
benchmark runner share, with its known costs.

It stays in the package only because ``perfbench/run.py`` and
``perfbench/pin.py`` import it; once perfbench keeps its own copy, it can
join the rest of the test support under ``tests/``.
"""

from __future__ import annotations

from .instance import Instance

# 12-scene, 6-actor worked example (matrix rows are actors, X = required)
_WORKED_ROWS = [
    "X.X..X.XXXXX",
    "XXXXX.X.X.X.",
    ".X....XX....",
    "XX..XX......",
    "...X...XX...",
    ".........X..",
]
_WORKED_DURATIONS = (1, 1, 2, 1, 3, 1, 1, 2, 1, 2, 1, 1)
_WORKED_WAGES = (20, 5, 4, 10, 4, 7)


def fixture_worked_example() -> Instance:
    """The canonical 12x6 worked example used throughout the tests."""
    return Instance.from_rows(
        _WORKED_ROWS, _WORKED_DURATIONS, _WORKED_WAGES, name="worked-example"
    )


# best known order for the worked example (0-based scene ids)
WORKED_BEST_ORDER = (4, 1, 6, 0, 5, 7, 3, 8, 2, 10, 9, 11)
WORKED_TOTAL_IDENTITY = 604
WORKED_HOLDING_IDENTITY = 223
WORKED_TOTAL_BEST = 434
WORKED_HOLDING_BEST = 53
