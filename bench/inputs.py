"""Seeded input generators for the torpers benchmark.

Both generators return `.mfc` text; the benchmark writes it to disk during
set-up and the program only ever sees the written files.
"""

import math
import random
import re

# Ring-Rips sizing.  Points sit at evenly spaced angles on the unit circle
# with a small seeded jitter, so the pairs closer than the threshold are the
# same for every seed (each point reaches its RIPS_REACH nearest neighbours
# on either side) and the cell count does not depend on the seed; only the
# entry degrees do.  RIPS_REACH / RIPS_POINTS < 1/3 keeps the Rips complex a
# circle, so H_0 and H_1 are both nonzero.  With 20 points the first-step
# chord gives R * dist / thr >= 1, so no edge enters on the first axis.
RIPS_POINTS = 20
RIPS_REACH = 3
RIPS_LEVELS = 5  # density levels: vertex entry degrees 0 .. RIPS_LEVELS-1
RIPS_R = 5  # distance levels: edge entry degrees 0 .. RIPS_R-1
RIPS_JITTER = 0.02  # radians of angle and units of radius, at most


def _chord(steps, n):
    return 2.0 * math.sin(math.pi * steps / n)


def ring_points(seed, n=RIPS_POINTS, jitter=RIPS_JITTER):
    rng = random.Random(seed)
    pts = []
    for k in range(n):
        a = 2.0 * math.pi * k / n + rng.uniform(-jitter, jitter)
        r = 1.0 + rng.uniform(-jitter, jitter)
        pts.append((r * math.cos(a), r * math.sin(a)))
    return pts


def ring_rips(seed, n=RIPS_POINTS, reach=RIPS_REACH, levels=RIPS_LEVELS, R=RIPS_R):
    """A bifiltered Rips complex on a jittered ring, as `.mfc` text.

    A vertex enters at (density, 0), where density is its rank by the summed
    distance to its two nearest neighbours, cut into `levels` equal bands.
    An edge with dist < thr enters at (max density of its ends,
    floor(R * dist / thr)); a triangle enters at the join of its edges.
    thr sits halfway between the reach-step and the (reach+1)-step chord.
    Returns (text, info) where info holds the vertex entry degrees, the cell
    counts by dimension and the grid bound.
    """
    thr = 0.5 * (_chord(reach, n) + _chord(reach + 1, n))
    pts = ring_points(seed, n)
    dist = [[math.dist(p, q) for q in pts] for p in pts]
    spread = [sum(sorted(row)[1:3]) for row in dist]
    order = sorted(range(n), key=lambda i: (spread[i], i))
    density = [0] * n
    for rank, i in enumerate(order):
        density[i] = rank * levels // n
    vdeg = {i: (density[i], 0) for i in range(n)}
    edeg = {}
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i][j] < thr:
                edeg[(i, j)] = (
                    max(density[i], density[j]),
                    int(R * dist[i][j] / thr),
                )
    tdeg = {}
    for (i, j), d in edeg.items():
        for k in range(j + 1, n):
            if (i, k) in edeg and (j, k) in edeg:
                e2, e3 = edeg[(i, k)], edeg[(j, k)]
                tdeg[(i, j, k)] = tuple(max(t) for t in zip(d, e2, e3))
    lines = [
        "# ring Rips complex, seed %d: %d points, reach %d, %d density levels, R=%d"
        % (seed, n, reach, levels, R),
        "n 2",
    ]
    for i, d in vdeg.items():
        lines.append("simplex v%d @ (%d,%d)" % ((i,) + d))
    for (i, j), d in edeg.items():
        lines.append("simplex e%d_%d v%d v%d @ (%d,%d)" % ((i, j, i, j) + d))
    for (i, j, k), d in tdeg.items():
        lines.append(
            "simplex t%d_%d_%d v%d v%d v%d @ (%d,%d)" % ((i, j, k, i, j, k) + d)
        )
    every = list(vdeg.values()) + list(edeg.values()) + list(tdeg.values())
    info = {
        "vertex_degrees": sorted(vdeg.values()),
        "cells": [len(vdeg), len(edeg), len(tdeg)],
        "bound": [max(d[0] for d in every), max(d[1] for d in every)],
    }
    return "\n".join(lines) + "\n", info


_DEGREE = re.compile(r"\(([^()]*)\)")


def stretch_mfc(text, factor):
    """The same `.mfc` complex with every entry-degree coordinate times factor.

    Only the part of a line after '@' holds entry degrees; comments are
    dropped, names and boundaries are kept as they are.
    """
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        head, at, tail = line.partition("@")
        if at:
            tail = _DEGREE.sub(
                lambda m: "(%s)"
                % ",".join(str(factor * int(c)) for c in m.group(1).split(",")),
                tail,
            )
        if line:
            out.append(head + at + tail)
    return "\n".join(out) + "\n"


def mfc_sizes(text):
    """Cell count and grid bound (coordinatewise max entry degree) of `.mfc`
    text."""
    cells, bound = 0, None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0]
        head, at, tail = line.partition("@")
        if not at:
            continue
        cells += 1
        for m in _DEGREE.finditer(tail):
            deg = [int(c) for c in m.group(1).split(",")]
            bound = deg if bound is None else [max(a, b) for a, b in zip(bound, deg)]
    return {"cells": cells, "grid_bound": bound}
