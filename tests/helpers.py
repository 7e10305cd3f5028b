"""Reference helpers that only the tests use.

``classify_tail`` is the per-value reference for ``sweep._tail_codes``,
``trajectory_from_csv`` parses what ``report.trajectory_csv_text`` writes, and
``assert_same_text`` compares whole output texts.
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


def assert_same_text(got, want) -> None:
    """Raise ``AssertionError`` naming the first differing line, both versions
    of it and both line counts, unless the texts (str or bytes) are equal.

    pytest's rewritten ``got == want`` would diff two long texts in full,
    which takes minutes once a broken draw makes every output differ.
    """
    if got == want:
        return
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    line = 0
    while line < min(len(got_lines), len(want_lines)) and got_lines[line] == want_lines[line]:
        line += 1
    got_line = got_lines[line] if line < len(got_lines) else None
    want_line = want_lines[line] if line < len(want_lines) else None
    raise AssertionError(f"texts differ at line {line + 1}: got {got_line!r}, want {want_line!r} "
                         f"({len(got_lines)} lines against {len(want_lines)})")
