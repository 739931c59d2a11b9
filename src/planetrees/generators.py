"""Seeded instance generators for every drawing class.

All generators are deterministic functions of their seed (each builds
its own ``random.Random``), so identical seeds reproduce identical
instances byte-for-byte after serialization.  The annulus generator
draws and checks its candidates in integer ticks of one full turn.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .book import PAGE_BOTTOM, PAGE_TOP, BookLayout
from .core import EdgeColoring
from .cylindrical import CylindricalLayout, NotSimpleError, side_crossings
from .straightline import PointDrawing

WRAP_PROB = 0.15  # chance that an annulus winding gains or loses a full turn
WRAP_ATTEMPTS = 32  # annulus attempts over which the wrap probability falls to zero


class GenerationError(RuntimeError):
    """A rejection-sampled generator ran out of attempts."""


def gen_coloring(n: int, k: int, seed: int) -> EdgeColoring:
    """Uniform random coloring; every class nonempty when C(n,2) >= k."""
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    rng = random.Random(f"coloring:{n}:{k}:{seed}")
    m = n * (n - 1) // 2
    for _ in range(100):
        colors = tuple(rng.randrange(k) for _ in range(m))
        if m < k or len(set(colors)) == k:
            return EdgeColoring(n, k, colors)
    # Force one edge per class, fill the rest uniformly.
    slots = list(range(m))
    rng.shuffle(slots)
    forced = {slot: col for col, slot in enumerate(slots[:k])}
    colors = tuple(forced.get(i, rng.randrange(k)) for i in range(m))
    return EdgeColoring(n, k, colors)


def gen_cylindrical(
    n_inner: int, n_outer: int, seed: int, k: int = 2, wrap_prob: float = WRAP_PROB
) -> CylindricalLayout:
    """Random annulus layout accepted by the simplicity check.

    Angles are distinct ticks, ``resolution`` to a full turn.  Windings
    start from the minimal representative of the angle difference and
    occasionally gain or lose a full turn; candidates are re-sampled
    until ``side_crossings`` accepts them, with the wrap probability
    falling to zero at attempt ``WRAP_ATTEMPTS``.  Minimal windings are
    always simple, so that attempt is the last (were it refused, the
    refusal is raised): an independent pair's angular differences at
    the two circles differ by less than a turn, so it meets at most
    once, and an adjacent pair's are 0 and less than a turn, so it
    never meets.  Only the accepted candidate becomes exact angles and
    windings.
    """
    if n_inner < 0 or n_outer < 0:
        raise ValueError(f"circle sizes must be non-negative, got n_inner={n_inner}, n_outer={n_outer}")
    n = n_inner + n_outer
    if n < 2:
        raise ValueError("need at least 2 vertices in total")
    rng = random.Random(f"cylindrical:{n_inner}:{n_outer}:{seed}")
    resolution = max(8 * n * n, 64)  # ticks per full turn
    color = gen_coloring(n, k, seed)
    for attempt in range(WRAP_ATTEMPTS + 1):
        inner = sorted(rng.sample(range(resolution), n_inner))
        outer = sorted(rng.sample(range(resolution), n_outer))
        p_wrap = wrap_prob * (1.0 - attempt / WRAP_ATTEMPTS)
        windings = [[(b - a) % resolution for b in outer] for a in inner]
        for row in windings:
            for j, w in enumerate(row):
                if rng.random() < p_wrap:
                    row[j] = w + (resolution if rng.random() < 0.5 else -resolution)
        sides = [((u, w), a, a + t) for u, a in enumerate(inner) for w, t in enumerate(windings[u], n_inner)]
        try:
            side_crossings(sides, resolution)
        except NotSimpleError:
            if p_wrap:
                continue
            raise
        exact = [tuple(Fraction(2 * t, resolution) for t in row) for row in (inner, outer, *windings)]
        return CylindricalLayout(exact[0], exact[1], tuple(exact[2:]), color)


def gen_book(n: int, seed: int, k: int = 2) -> BookLayout:
    """Random spine permutation and uniform page assignment."""
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    rng = random.Random(f"book:{n}:{seed}")
    spine = list(range(n))
    rng.shuffle(spine)
    m = n * (n - 1) // 2
    pages = tuple(PAGE_TOP if rng.random() < 0.5 else PAGE_BOTTOM for _ in range(m))
    return BookLayout(tuple(spine), pages, gen_coloring(n, k, seed))


def gen_points(n: int, seed: int, k: int = 2, max_resamples: int = 2000) -> PointDrawing:
    """Random general-position integer grid points.

    Points are added one at a time, rejecting any candidate that
    repeats an x-coordinate or closes a collinear triple; the grid
    grows with n to keep rejection workable.  Two placed points are
    collinear with the candidate exactly when their reduced directions
    from it, signed so that dx > 0, are equal.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    rng = random.Random(f"points:{n}:{seed}")
    grid = max(4 * n * n, 64)
    points: list[tuple[int, int]] = []
    attempts = 0
    while len(points) < n:
        attempts += 1
        if attempts > max_resamples:
            raise GenerationError(
                f"no general-position point set within {max_resamples} attempts "
                f"(n={n}, seed={seed})"
            )
        cx, cy = rng.randrange(grid), rng.randrange(grid)
        directions = set()
        for x, y in points:
            dx, dy = x - cx, y - cy
            g = math.gcd(dx, dy) if dx > 0 else -math.gcd(dx, dy)
            if dx == 0 or (dx // g, dy // g) in directions:
                break
            directions.add((dx // g, dy // g))
        else:
            points.append((cx, cy))
    return PointDrawing(tuple(points), gen_coloring(n, k, seed))
