"""Multifiltered cell complexes and module presentations: formats, validation.

The .mfc text format
--------------------
One directive per line; '#' starts a comment; blank lines are skipped.
The first directive fixes the number of filtration parameters:

    n 2

Every later directive introduces one cell together with the degrees at which
it enters the filtration (its *entry degrees*, always a finite antichain):

    simplex ab a b @ (0,1)
    simplex a @ (0,0)            # a 0-simplex; 'simplex a a @ ...' also works
    cell t 2 [a:1,b:-1] @ (2,1) (1,2)

A simplex lists its vertices (ids of 0-simplices) and gets the usual
alternating-sign boundary on sorted vertices; every facet must itself appear
in the file.  A general cell gives its dimension and an explicit boundary as
[face:coeff,...] over the integers ('[]' for none).  Validation enforces, in
this order: syntax (with line numbers), existence and dimension of faces,
entry-degree antichains, and face monotonicity (every face is present
wherever the cell is).  The boundary-squares-to-zero check depends on the
field and lives in check_boundary(p).

Presentations
-------------
A finitely presented n-graded module is read from JSON (the form the xi and
resolve commands accept):

    {"n": 2,
     "gens": [[0,0], [0,0]],
     "relations": [[[1,1], {"0": 1, "1": -1}]]}

gens lists the generator degrees in lexicographic order; each relation is a
pair [degree, coeffs] whose coeffs map a generator index (into gens) to an
integer coefficient.  A nonzero coefficient is only legal when the
generator's degree is <= the relation's degree.  The module is the cokernel.
"""

from __future__ import annotations

import re

from torpers import ValidationError
from torpers import grading as gr

_CELL_RE = re.compile(r"cell\s+(\S+)\s+(\d+)\s+\[([^\]]*)\]\s*$")
_DEGREE_RE = re.compile(r"\(([^()]*)\)\s*")


def check_field(p):
    """Validate a field characteristic: a prime p with (p-1)² < 2^63."""
    from torpers import exactla

    if isinstance(p, int) and p > 1 and (p - 1) ** 2 >= 2**63:
        raise ValidationError("field characteristic %d is above 3037000493" % p)
    if not isinstance(p, int) or not exactla.is_prime(p):
        raise ValidationError("field characteristic must be a prime, got %r" % (p,))
    return p


class Cell:
    """One cell: id, dimension, integer boundary, entry-degree antichain."""

    __slots__ = ("id", "dim", "boundary", "degrees", "vertices")

    def __init__(self, cid, dim, boundary, degrees, vertices=None):
        self.id = cid
        self.dim = dim
        self.boundary = tuple(boundary)
        self.degrees = tuple(sorted(gr.as_degree(d) for d in degrees))
        self.vertices = tuple(vertices) if vertices is not None else None

    def present_at(self, v):
        return any(gr.leq(u, v) for u in self.degrees)

    def __repr__(self):
        return "Cell(%r, dim=%d, @%s)" % (self.id, self.dim, list(self.degrees))


class MultiFilteredComplex:
    """A finite cell complex whose cells carry antichains of entry degrees."""

    def __init__(self, n, cells):
        self.n = int(n)
        if self.n < 1:
            raise ValidationError("number of parameters must be >= 1, got %d" % self.n)
        self.cells = {}
        for c in cells:
            if c.id in self.cells:
                raise ValidationError("duplicate cell id %r" % c.id)
            self.cells[c.id] = c
        self._check_structure()

    # -- construction-time checks (field independent) --

    def _check_structure(self):
        for c in self.cells.values():
            if not c.degrees:
                raise ValidationError("cell %r has no entry degree" % c.id)
            for d in c.degrees:
                if len(d) != self.n:
                    raise ValidationError(
                        "cell %r: degree %s has %d entries, expected %d"
                        % (c.id, list(d), len(d), self.n)
                    )
            for i, u in enumerate(c.degrees):
                for v in c.degrees[i + 1 :]:
                    if gr.leq(u, v) or gr.leq(v, u):
                        raise ValidationError(
                            "cell %r: entry degrees %s and %s are comparable, "
                            "not an antichain" % (c.id, list(u), list(v))
                        )
            for fid, coeff in c.boundary:
                f = self.cells.get(fid)
                if f is None:
                    raise ValidationError("cell %r: unknown face %r" % (c.id, fid))
                if f.dim != c.dim - 1:
                    raise ValidationError(
                        "cell %r (dim %d): face %r has dim %d, expected %d"
                        % (c.id, c.dim, fid, f.dim, c.dim - 1)
                    )
                if coeff == 0:
                    continue
                for v in c.degrees:
                    if not f.present_at(v):
                        raise ValidationError(
                            "cell %r enters at %s before its face %r (enters at %s)"
                            % (c.id, list(v), fid, [list(d) for d in f.degrees])
                        )

    def check_boundary(self, p):
        """Raise unless the boundary squares to zero mod p."""
        check_field(p)
        for c in self.cells.values():
            if c.dim < 2:
                continue
            acc = {}
            for fid, coeff in c.boundary:
                for gid, c2 in self.cells[fid].boundary:
                    acc[gid] = (acc.get(gid, 0) + coeff * c2) % p
            bad = [gid for gid, val in acc.items() if val]
            if bad:
                raise ValidationError(
                    "boundary of boundary of cell %r is nonzero mod %d (at %s)"
                    % (c.id, p, sorted(bad))
                )

    # -- queries --

    def max_dim(self):
        return max((c.dim for c in self.cells.values()), default=-1)

    def cells_of_dim(self, d):
        """Cells of dimension d in a fixed deterministic order (by id)."""
        return sorted(
            (c for c in self.cells.values() if c.dim == d), key=lambda c: c.id
        )

    def natural_bound(self):
        """Join of all entry degrees; homology is constant past this corner."""
        degs = [d for c in self.cells.values() for d in c.degrees]
        return gr.join(degs, n=self.n)

    def cell_count_at(self, v):
        """Total number of cells present at degree v (all dimensions)."""
        return sum(1 for c in self.cells.values() if c.present_at(v))

    # -- serialization --

    def to_mfc(self):
        lines = ["n %d" % self.n]
        for c in sorted(self.cells.values(), key=lambda c: (c.dim, c.id)):
            degs = " ".join("(%s)" % ",".join(str(x) for x in d) for d in c.degrees)
            if c.vertices is not None:
                verts = " ".join(c.vertices) if c.dim > 0 else ""
                head = ("simplex %s %s" % (c.id, verts)).rstrip()
                lines.append("%s @ %s" % (head, degs))
            else:
                bnd = ",".join("%s:%d" % (fid, coeff) for fid, coeff in c.boundary)
                lines.append("cell %s %d [%s] @ %s" % (c.id, c.dim, bnd, degs))
        return "\n".join(lines) + "\n"

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_mfc())


def _parse_degree_list(text, lineno):
    rest = text.strip()
    if not rest:
        raise ValidationError("line %d: missing entry degrees after '@'" % lineno)
    out = []
    while rest:
        m = _DEGREE_RE.match(rest)
        if not m:
            raise ValidationError(
                "line %d: expected a degree like (0,1), got %r" % (lineno, rest)
            )
        parts = [t.strip() for t in m.group(1).split(",") if t.strip()]
        if not parts:
            raise ValidationError("line %d: empty degree '()'" % lineno)
        try:
            deg = tuple(int(t) for t in parts)
        except ValueError:
            raise ValidationError(
                "line %d: degree entries must be integers: %r" % (lineno, m.group(0))
            )
        if any(x < 0 for x in deg):
            raise ValidationError("line %d: negative degree %s" % (lineno, list(deg)))
        out.append(deg)
        rest = rest[m.end() :]
    return out


def _sort_vertices(verts):
    if all(v.isdigit() for v in verts):
        return sorted(verts, key=int)
    return sorted(verts)


def parse_mfc(text):
    """Parse .mfc text into a validated MultiFilteredComplex."""
    n = None
    simplex_lines = []  # (lineno, id, vertices, degrees)
    cell_lines = []  # (lineno, id, dim, boundary, degrees)
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            toks = line.split()
            if len(toks) != 2 or toks[0] != "n" or not toks[1].isdigit():
                raise ValidationError(
                    "line %d: file must start with 'n <params>', got %r"
                    % (lineno, line)
                )
            n = int(toks[1])
            continue
        head, at, tail = line.partition("@")
        if not at:
            raise ValidationError("line %d: missing '@ <degrees>'" % lineno)
        degrees = _parse_degree_list(tail, lineno)
        toks = head.split()
        if toks and toks[0] == "simplex":
            if len(toks) < 2:
                raise ValidationError("line %d: simplex needs an id" % lineno)
            cid, verts = toks[1], toks[2:]
            if not verts:
                verts = [cid]  # 0-simplex shorthand
            if len(verts) != len(set(verts)):
                raise ValidationError(
                    "line %d: simplex %r repeats a vertex" % (lineno, cid)
                )
            record = (lineno, cid, _sort_vertices(verts), degrees)
            simplex_lines.append(record)
        elif toks and toks[0] == "cell":
            m = _CELL_RE.match(head.strip())
            if not m:
                raise ValidationError(
                    "line %d: expected 'cell <id> <dim> [face:coeff,...]'" % lineno
                )
            cid, dim, bnd_text = m.group(1), int(m.group(2)), m.group(3)
            boundary = []
            for entry in bnd_text.split(","):
                entry = entry.strip()
                if not entry:
                    continue
                fid, colon, coeff = entry.partition(":")
                try:
                    boundary.append((fid.strip(), int(coeff)))
                except ValueError:
                    raise ValidationError(
                        "line %d: bad boundary entry %r" % (lineno, entry)
                    )
            cell_lines.append((lineno, cid, dim, boundary, degrees))
        else:
            raise ValidationError(
                "line %d: unknown directive %r" % (lineno, line.split()[0])
            )
        cid = toks[1]
        if cid in seen:
            raise ValidationError(
                "line %d: cell id %r already defined on line %d"
                % (lineno, cid, seen[cid])
            )
        seen[cid] = lineno
    if n is None:
        raise ValidationError("empty file: no 'n <params>' line")

    # resolve simplex boundaries by vertex set (faces may come later in file)
    by_vertex_set = {}
    for lineno, cid, verts, degrees in simplex_lines:
        key = frozenset(verts)
        if key in by_vertex_set:
            raise ValidationError(
                "line %d: simplex %r has the same vertices as %r"
                % (lineno, cid, by_vertex_set[key])
            )
        by_vertex_set[key] = cid

    cells = []
    for lineno, cid, verts, degrees in simplex_lines:
        dim = len(verts) - 1
        if dim == 0 and verts[0] != cid:
            raise ValidationError(
                "line %d: 0-simplex %r must be its own vertex" % (lineno, cid)
            )
        boundary = []
        for i in range(len(verts)):
            if dim == 0:
                break
            facet = verts[:i] + verts[i + 1 :]
            fid = by_vertex_set.get(frozenset(facet))
            if fid is None:
                raise ValidationError(
                    "line %d: simplex %r is missing its face on vertices %s"
                    % (lineno, cid, facet)
                )
            boundary.append((fid, (-1) ** i))
        cells.append(Cell(cid, dim, boundary, degrees, vertices=verts))
    for lineno, cid, dim, boundary, degrees in cell_lines:
        cells.append(Cell(cid, dim, boundary, degrees))

    return MultiFilteredComplex(n, cells)


def load_mfc(path):
    with open(path) as fh:
        return parse_mfc(fh.read())


# -- presentations ----------------------------------------------------------


class Presentation:
    """Finitely presented n-graded module: generator degrees plus relations.

    gens is the ordered tuple of generator degrees (the xi0 multiset expanded
    in lexicographic order); relations is a tuple of (degree, coeffs) where
    coeffs maps generator index -> integer coefficient.
    """

    __slots__ = ("n", "gens", "relations")

    def __init__(self, n, gens, relations):
        self.n = int(n)
        self.gens = tuple(gr.as_degree(g) for g in gens)
        if list(self.gens) != sorted(self.gens):
            raise ValidationError("generator degrees must be sorted")
        rels = []
        for deg, coeffs in relations:
            deg = gr.as_degree(deg)
            if len(deg) != self.n:
                raise ValidationError(
                    "relation degree %s has wrong length" % (list(deg),)
                )
            clean = {}
            for idx, c in coeffs.items():
                idx = int(idx)
                if not 0 <= idx < len(self.gens):
                    raise ValidationError(
                        "relation coefficient for unknown generator %d" % idx
                    )
                if int(c) == 0:
                    continue
                if not gr.leq(self.gens[idx], deg):
                    raise ValidationError(
                        "relation at %s touches generator %d born later at %s"
                        % (list(deg), idx, list(self.gens[idx]))
                    )
                clean[idx] = int(c)
            rels.append((deg, clean))
        self.relations = tuple(rels)
        for g in self.gens:
            if len(g) != self.n:
                raise ValidationError("generator degree %s has wrong length" % (list(g),))
