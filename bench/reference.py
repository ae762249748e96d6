"""Reference column: mpmath's built-ins timed on the benchmark's own inputs.

The inputs are the first eval-mix pass for the seed (``qp`` on the
``euler_f`` draws, ``jtheta`` on the theta draws, ``ellipk`` on the ``K_of_k``
draws, ``qhyper`` on the ``phi21`` draws) and the recognize-120 pool
(``findpoly``).  Each built-in runs at the working precision the library
uses for the same call.  None of this touches qelliptic's code paths, so the
numbers should not move with a change to the library: they track the
machine.
"""

from __future__ import annotations

import time

from mpmath.ctx_mp import MPContext

import qelliptic
from workloads import RECOGNITION_DIGITS, RECOGNITION_POOL, EvalMix, oracle, pool_value

# The ROADMAP's pinned findpoly settings; mpmath's defaults miss 3 of 5
# positives at 120 digits.
FINDPOLY_DEGREE = 8
FINDPOLY_MAXCOEFF = 10**8
FINDPOLY_MAXSTEPS = 200_000


# eval-mix entry -> the built-in its oracle calls, the timing bucket
KIND_OF_ENTRY = {
    "euler_f": "qp",
    "theta3_real": "jtheta",
    "theta3_complex": "jtheta",
    "theta4_real": "jtheta",
    "theta4_complex": "jtheta",
    "K_of_k": "ellipk",
    "phi21": "qhyper",
}


def findpoly(ctx, x):
    return ctx.findpoly(
        ctx.mpf(x), FINDPOLY_DEGREE, maxcoeff=FINDPOLY_MAXCOEFF,
        maxsteps=FINDPOLY_MAXSTEPS, tol=ctx.mpf(10) ** (-(RECOGNITION_DIGITS - 15)),
    )


def reference_ms(seed: int, pool=RECOGNITION_POOL) -> tuple:
    """({"qp": ms per call, ...}, findpoly agreements, pool size)."""
    totals = {kind: [0.0, 0] for kind in ("qp", "jtheta", "ellipk", "qhyper", "findpoly")}
    clock = time.perf_counter
    contexts = {}
    for entry, args, digits in EvalMix(seed).draw(0):
        kind = KIND_OF_ENTRY.get(entry)
        if kind is None:
            continue
        ctx = contexts.get(digits)
        if ctx is None:
            ctx = contexts[digits] = MPContext()
            ctx.dps = qelliptic.PrecisionSpec(digits).workdps
        start = clock()
        oracle(ctx, entry, args)
        totals[kind][0] += clock() - start
        totals[kind][1] += 1

    prec = qelliptic.PrecisionSpec(RECOGNITION_DIGITS)
    agree = 0
    ctx = MPContext()
    ctx.dps = RECOGNITION_DIGITS
    for _, spec, expected in pool:
        x = pool_value(spec, prec)
        start = clock()
        found = findpoly(ctx, x)
        totals["findpoly"][0] += clock() - start
        totals["findpoly"][1] += 1
        agree += _same_polynomial(found, expected)
    return {k: 1000 * t / max(n, 1) for k, (t, n) in totals.items()}, agree, len(pool)


def _same_polynomial(found, expected) -> bool:
    """findpoly gives descending coefficients with its own sign choice."""
    if found is None or expected is None:
        return found is None and expected is None
    ascending = tuple(reversed(found))
    return ascending in (tuple(expected), tuple(-c for c in expected))
