"""Seeded inputs for each workload; the program sees only these lists.

Every generator draws from ``random.Random(seed)`` and nothing else, so a
seed always gives the same inputs. Where request costs differ a lot, the
draw is stratified so that every seed asks for about the same total work;
otherwise the run-to-run spread across seeds would swamp the bounds.
"""

from __future__ import annotations

import random

# the default `harmsum verify` grid: both families, p 0..6, m 1..5,
# s = a*n+b with a, b in 0..2, n 0..40
GRID_P = range(7)
GRID_M = range(1, 6)
GRID_AB = range(3)
GRID_N_MAX = 40

# verify-deep: (family, p, m, a, b) rows checked cell by cell at large n
DEEP_ROWS = (
    ("F", 2, 2, 2, 1),
    ("G", 3, 1, 1, 0),
    ("F", 4, 1, 2, 0),
    ("G", 1, 3, 2, 2),
)
DEEP_N = range(200, 400)
DEEP_CELLS_PER_ROW = 50

# emit: the identity draw spans both families, p 0..8, m -3..4, a, b 0..3
EMIT_M = range(-3, 5)
EMIT_AB = range(4)
EMIT_LIGHT_P = range(4)
EMIT_HEAVY_P = range(4, 9)
EMIT_HEAVY_OFFSET = (1, 0)

BERNOULLI_N_MAX = 600

SAMPLED_CELLS = 8


def verify_grid(rng: random.Random) -> dict:
    """One row per (family, p, m, a) of the default grid, with a seeded b.

    Rows are whole `harmsum verify` rows of n 0..40. Stratifying on a and
    drawing only b keeps the work per seed within about 1 % (b moves a
    row's cost much less than a does).
    """
    rows = [
        [family, p, m, a, rng.choice(GRID_AB)]
        for family in "FG"
        for p in GRID_P
        for m in GRID_M
        for a in GRID_AB
    ]
    sample = [
        [i, rng.randint(0, GRID_N_MAX)] for i in sorted(rng.sample(range(len(rows)), SAMPLED_CELLS))
    ]
    return {"rows": rows, "n_max": GRID_N_MAX, "sample": sample}


def verify_deep(rng: random.Random) -> dict:
    """The fixed deep rows, each at one seeded n from every block of four in 200..399.

    A cell's cost grows with n, so drawing one n per block (rather than 50
    anywhere in the range) keeps every seed's work, and its slowest
    tenth of cells, the same to within a block.
    """
    block = len(DEEP_N) // DEEP_CELLS_PER_ROW
    rows = []
    for family, p, m, a, b in DEEP_ROWS:
        ns = [rng.choice(DEEP_N[i : i + block]) for i in range(0, len(DEEP_N), block)]
        rows.append({"row": [family, p, m, a, b], "n": ns})
    sample = [[i, rng.choice(row["n"])] for i, row in enumerate(rows) for _ in range(2)]
    return {"rows": rows, "sample": sample}


def emit(rng: random.Random) -> dict:
    """The catalogue in three formats plus identity requests.

    For p 0..3 every (family, p, m) gets four requests, a = 0..3 paired
    with a seeded permutation of b = 0..3, so each seed asks for every a
    and every b equally often.
    For p 4..8 every (p, m) gets one request at s = n, the family
    alternating in a checkerboard: there the text render's cost swings
    from 0.05 s to 2 s with the offset, and for p = 8, a + b >= 2 it can
    run for minutes (render._rational_root), so a seeded offset would move
    the run's total by 5-10 % from seed to seed.
    """
    identities = []
    for family in "FG":
        for p in EMIT_LIGHT_P:
            for m in EMIT_M:
                bs = list(EMIT_AB)
                rng.shuffle(bs)
                identities += [[family, p, m, a, b] for a, b in zip(EMIT_AB, bs)]
    identities += [
        ["FG"[(p + m) % 2], p, m, *EMIT_HEAVY_OFFSET] for p in EMIT_HEAVY_P for m in EMIT_M
    ]
    rng.shuffle(identities)
    return {"formats": ["text", "latex", "json"], "identities": identities}


def bernoulli(rng: random.Random) -> dict:
    """B_0..B_N from an empty cache; the input is one integer, the same for every seed."""
    return {"n_max": BERNOULLI_N_MAX}


GENERATORS = {
    "verify-grid": verify_grid,
    "verify-deep": verify_deep,
    "emit": emit,
    "bernoulli": bernoulli,
}


def make_inputs(workload: str, seed: int) -> dict:
    return GENERATORS[workload](random.Random(seed))
