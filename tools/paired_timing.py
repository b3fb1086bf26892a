"""Time two or more callables in one loop, so host drift falls on each alike.

Timing each form in its own back-to-back median lets a slow spell of the
host land on one form and not the other, and so in their ratio.  Here every
round calls each form once, the round's first call moving one form on each
round, and the ratio of two forms is taken per round before the median:

    from paired_timing import paired_ms
    times = paired_ms({"full": full, "live": live}, repeat=50)
    times["live"]  # {"ms": ..., "vs_first": -0.38, "vs_first_iqr": [-0.41, -0.35]}

Each form's ``ms`` is the median of its calls in milliseconds.  Every form
past the first also gets ``vs_first``, the median over rounds of its time
over the first form's time, less one, and ``vs_first_iqr``, the first and
third quartiles of those per-round ratios, less one.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable


def paired_ms(forms: dict[str, Callable[[], object]], repeat: int) -> dict[str, dict]:
    """Call each of ``forms`` once per round for ``repeat`` rounds, in an
    order that starts one form later each round, and summarize each
    form's times against the first form's, round by round."""
    names = list(forms)
    times = {name: [] for name in names}
    for round_ in range(repeat):
        for name in names[round_ % len(names):] + names[:round_ % len(names)]:
            start = time.perf_counter()
            forms[name]()
            times[name].append(time.perf_counter() - start)
    first = times[names[0]]
    doc = {names[0]: {"ms": round(statistics.median(first) * 1e3, 3)}}
    for name in names[1:]:
        ratios = [t / f - 1 for t, f in zip(times[name], first)]
        q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
        doc[name] = {"ms": round(statistics.median(times[name]) * 1e3, 3),
                     "vs_first": round(statistics.median(ratios), 4),
                     "vs_first_iqr": [round(q1, 4), round(q3, 4)]}
    return doc
