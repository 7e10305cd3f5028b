"""Reference helpers that only the tests use.

``classify_tail`` is the per-value reference for ``sweep._tail_codes``, and
``trajectory_from_csv`` parses what ``report.trajectory_csv_text`` writes.
"""

from math import isnan

import numpy as np

from dyadsim.sweep import COMPLEMENTARY, NEUTRAL, SYNCHRONOUS, TAIL_LABELS, UNDEFINED


def classify_tail(r: float, threshold: float) -> str:
    """Tail label for a correlation value (nan -> ``undefined``)."""
    if isnan(r):
        return TAIL_LABELS[UNDEFINED]
    if r < -threshold:
        return TAIL_LABELS[COMPLEMENTARY]
    if r > threshold:
        return TAIL_LABELS[SYNCHRONOUS]
    return TAIL_LABELS[NEUTRAL]


def trajectory_from_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse `t,b1,b2` CSV text back into (b1, b2) arrays."""
    lines = text.strip().split("\n")
    if not lines or lines[0] != "t,b1,b2":
        raise ValueError("not a trajectory CSV: bad header")
    b1, b2 = [], []
    for expected_t, line in enumerate(lines[1:]):
        t_str, x, y = line.split(",")
        if int(t_str) != expected_t:
            raise ValueError(f"trajectory CSV out of order at row {expected_t}")
        b1.append(float(x))
        b2.append(float(y))
    return np.asarray(b1), np.asarray(b2)
