"""Valued stable translation quivers on finite windows.

Everything here is radius-bounded: infinite quivers enter as finite
truncations whose rim is marked ``boundary``, and every structural check
asserts only at interior vertices while reporting what it skipped.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InputError

Value = tuple[int, int]


class TranslationQuiver:
    """A valued quiver with a partial translation tau.

    Vertices carry optional text labels and optional rational weights.
    Boundary vertices are those whose neighbourhood may be clipped by the
    window; validators skip them.  Loops are stored as vertex flags rather
    than arrows, matching the convention of removing loops before applying
    tree-class machinery.
    """

    __slots__ = ("labels", "weights", "arrows", "tau", "boundary", "loops")

    def __init__(self) -> None:
        self.labels: dict = {}
        self.weights: dict = {}
        self.arrows: dict = {}
        self.tau: dict = {}
        self.boundary: set = set()
        self.loops: set = set()

    def add_vertex(self, v, label: str | None = None, weight=None,
                   boundary: bool = False) -> None:
        if v in self.labels:
            raise InputError("vertex %r already present" % (v,))
        self.labels[v] = label if label is not None else str(v)
        if weight is not None:
            self.weights[v] = Fraction(weight)
        if boundary:
            self.boundary.add(v)

    def add_arrow(self, src, dst, value: Value = (1, 1)) -> None:
        if src not in self.labels or dst not in self.labels:
            raise InputError("arrow endpoints must be vertices")
        if src == dst:
            self.loops.add(src)
            return
        if (src, dst) in self.arrows:
            raise InputError("multiple arrow %r -> %r" % (src, dst))
        a, b = value
        if a < 1 or b < 1:
            raise InputError("arrow values must be positive")
        self.arrows[(src, dst)] = (int(a), int(b))

    def set_tau(self, v, w) -> None:
        if v not in self.labels or w not in self.labels:
            raise InputError("tau endpoints must be vertices")
        self.tau[v] = w

    def successors(self, v) -> list:
        return [d for (s, d) in self.arrows if s == v]

    def predecessors(self, v) -> list:
        return [s for (s, d) in self.arrows if d == v]

    def is_interior(self, v) -> bool:
        return v not in self.boundary

    def vertex_ids(self) -> list:
        return sorted(self.labels, key=lambda v: (str(type(v)), str(v)))


def validate(q: TranslationQuiver) -> list[str]:
    """Check the stable-translation-quiver axioms; an empty list is a pass.

    Reported violations: "mesh" when x's in-neighbours differ from
    tau(x)'s out-neighbours, and "valuation" when v(x -> y) = (a, b) but
    v(tau y -> x) != (b, a).  No arrow is a loop: add_arrow, the only
    writer of arrows, records a loop as a vertex flag.  Checks involving
    a boundary vertex are skipped, not failed.
    """
    out: list[str] = []
    for x, tx in sorted(q.tau.items(), key=lambda kv: str(kv[0])):
        if not (q.is_interior(x) and q.is_interior(tx)):
            continue
        left = set(q.predecessors(x))
        right = set(q.successors(tx))
        if left != right:
            out.append("mesh at %s: x- is %s but tau(x)+ is %s"
                       % (q.labels[x], sorted(map(str, left)),
                          sorted(map(str, right))))
    for (x, y), (a, b) in sorted(q.arrows.items(),
                                 key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
        ty = q.tau.get(y)
        if ty is None or not (q.is_interior(y) and q.is_interior(x)):
            continue
        back = q.arrows.get((ty, x))
        if back is None:
            if q.is_interior(ty):
                out.append("valuation: missing arrow %s -> %s"
                           % (q.labels[ty], q.labels[x]))
        elif back != (b, a):
            out.append("valuation: v(%s -> %s) = %s, expected %s"
                       % (q.labels[ty], q.labels[x], back, (b, a)))
    return out


def _tau_orbits(q: TranslationQuiver) -> dict:
    """Map each vertex to a representative of its tau-orbit (union-find).

    Every union keeps the str-smaller root, so each representative is the
    str-least member of its orbit.
    """
    parent = {v: v for v in q.labels}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for v in sorted(q.tau, key=str):
        rv, rw = find(v), find(q.tau[v])
        if rv != rw:
            if str(rw) < str(rv):
                rv, rw = rw, rv
            parent[rw] = rv
    return {v: find(v) for v in q.labels}


def orbit_collapse(q: TranslationQuiver) -> TranslationQuiver:
    """Collapse every tau-orbit of a fragment to a single class vertex.

    Weights must agree across each orbit (the functions of interest, like
    the multiplicity average, are translation invariant; disagreement is
    an input error).  Arrows project to class arrows and must carry one
    value each; an arrow inside a class becomes a loop flag.  A class is
    interior only when all of its members are, and the translation fixes
    every class.
    """
    orbit = _tau_orbits(q)
    members: dict = {}
    for v in q.labels:
        members.setdefault(orbit[v], []).append(v)
    name = {root: min(ms, key=str) for root, ms in members.items()}

    out = TranslationQuiver()
    for root in sorted(members, key=str):
        ms = members[root]
        weights = {q.weights[v] for v in ms if v in q.weights}
        if len(weights) > 1:
            raise InputError(
                "weights differ along the orbit of %s" % name[root])
        out.add_vertex(name[root],
                       label=",".join(sorted(q.labels[v] for v in ms)),
                       weight=weights.pop() if weights else None,
                       boundary=any(not q.is_interior(v) for v in ms))
    for (s, d), val in sorted(q.arrows.items(), key=str):
        cs, cd = name[orbit[s]], name[orbit[d]]
        prior = out.arrows.get((cs, cd))
        if prior is None:
            out.add_arrow(cs, cd, val)
        elif prior != val:
            raise InputError("projection tears a valued arrow at %s -> %s"
                             % (cs, cd))
    for root in members:
        if any(v in q.tau for v in members[root]):
            out.set_tau(name[root], name[root])
    out.loops.update(name[orbit[v]] for v in q.loops)
    return out


def tree_class(q: TranslationQuiver, basepoint,
               radius: int) -> TranslationQuiver:
    """Riedtmann tree at a basepoint: no-backtrack paths up to a radius.

    The tree is a TranslationQuiver with no tau.  Its vertices are the
    paths (y0, ..., yk) following arrows of q, subject to
    y_i != tau(y_{i+2}); extension by one arrow is the tree arrow, and
    each tree arrow inherits the value of the quiver arrow it extends by.
    Each path carries the weight of its last vertex, when q has one, and
    a path ending on a boundary vertex is marked boundary in the tree.
    """
    if basepoint not in q.labels:
        raise InputError("basepoint is not a vertex")
    t = TranslationQuiver()
    root = (basepoint,)
    t.add_vertex(root, weight=q.weights.get(basepoint),
                 boundary=not q.is_interior(basepoint))
    layer = [root]
    for _ in range(radius):
        nxt = []
        for path in layer:
            tip = path[-1]
            if not q.is_interior(tip):
                continue
            for step in sorted(q.successors(tip), key=str):
                if len(path) >= 2 and q.tau.get(step) == path[-2]:
                    continue
                ext = path + (step,)
                t.add_vertex(ext, weight=q.weights.get(step),
                             boundary=not q.is_interior(step))
                t.add_arrow(path, ext, q.arrows[(tip, step)])
                nxt.append(ext)
        layer = nxt
    return t


def check_subadditive(q: TranslationQuiver) -> dict:
    """Test the mesh inequality for q's weights f at every interior vertex.

    At an interior x with tau x defined the condition is
    f(x) + f(tau x) >= sum over arrows y -> x of a_yx f(y), with a loop
    at x adding f(x) to the right side.  At an interior x with no tau, as
    at every vertex of a tree class, it is the classical undirected form
    2 f(x) >= sum of the neighbours' values.  Every vertex needs a
    positive weight.  Returns status "additive", "strictly-subadditive"
    or "fails", the vertices checked, the boundary vertices skipped, and
    a witness per failure.

    Walk reports only ever meet the first form.  explore_component marks
    boundary every vertex that was not both pushed and reached as a
    right term, and reaching a vertex as a right term is what sets its
    tau; so each interior vertex of a walk's quiver has a tau.
    orbit_collapse makes a class interior only when all of its members
    are, and gives a class a tau as soon as one member has one; so each
    interior vertex of the orbit quiver has a tau too.
    """
    missing = [v for v in q.labels if v not in q.weights]
    if missing:
        raise InputError("no value for vertex %r" % (missing[0],))
    f = {v: Fraction(q.weights[v]) for v in q.labels}
    if any(w <= 0 for w in f.values()):
        raise InputError("subadditive functions must be positive")
    checked, skipped, fails = [], [], {}
    tight = True
    for x in q.labels:
        if not q.is_interior(x):
            skipped.append(x)
            continue
        tx = q.tau.get(x)
        if tx is None:
            lhs = 2 * f[x]
            rhs = sum(f[y] for y in q.predecessors(x) + q.successors(x))
        else:
            lhs = f[x] + f[tx]
            rhs = sum(a * f[y] for (y, z), (a, _) in q.arrows.items()
                      if z == x)
            if x in q.loops:
                rhs += f[x]
        checked.append(x)
        if lhs < rhs:
            fails[x] = (lhs, rhs)
        elif lhs > rhs:
            tight = False
    if fails:
        status = "fails"
    elif tight:
        status = "additive"
    else:
        status = "strictly-subadditive"
    return {"status": status,
            "checked": sorted(checked, key=str),
            "skipped": sorted(skipped, key=str),
            "failures": {str(k): (str(a), str(b)) for k, (a, b) in fails.items()}}


def classify_fragment(q: TranslationQuiver) -> str:
    """Name the shape of a finite fragment, conservatively.

    Returns "tube(r)" when every interior vertex lies on a tau-cycle of one
    common length r, interior valuations are all (1, 1), and the tau-orbit
    classes form a path rooted at a mouth orbit.  Returns
    "A-infinity-consistent" for the same ray picture without periodicity.
    A window too small to see structure is "inconclusive"; anything else
    is "other".  Consistency is all a window can certify: the two-summand
    certificate from the sequence engine is the actual tube proof route.
    """
    if validate(q):
        return "other"
    interior = [v for v in q.labels if q.is_interior(v)]
    if len(interior) < 2:
        return "inconclusive"
    for (s, d), val in q.arrows.items():
        if q.is_interior(s) and q.is_interior(d) and val != (1, 1):
            return "other"

    def cycle_len(v):
        seen = {v: 0}
        w, k = v, 0
        while w in q.tau:
            w = q.tau[w]
            k += 1
            if w == v:
                return k
            if w in seen:
                return None
            seen[w] = k
        return None

    lengths = {cycle_len(v) for v in interior}
    periodic = None not in lengths
    if periodic and len(lengths) != 1:
        return "other"

    # collapse tau-orbits and ask the class graph to be a ray
    orbit = _tau_orbits(q)
    classes = sorted(set(orbit.values()), key=str)
    adj: dict = {c: set() for c in classes}
    for (s, d) in q.arrows:
        cs, cd = orbit[s], orbit[d]
        if cs != cd:
            adj[cs].add(cd)
            adj[cd].add(cs)
    inner = sorted({orbit[v] for v in interior}, key=str)
    if len(inner) < 2:
        return "inconclusive"
    degs = sorted(len(adj[c]) for c in classes)
    is_path = (degs.count(1) == 2 and all(d in (1, 2) for d in degs)
               and len(classes) >= 2)
    if not is_path:
        return "other"
    # a ray window has one mouth end and one clipped open end; a genuinely
    # finite path (both ends interior) is a different shape entirely
    members: dict = {c: [] for c in classes}
    for v, c in orbit.items():
        members[c].append(v)
    ends = [c for c in classes if len(adj[c]) == 1]
    open_ends = [c for c in ends
                 if all(not q.is_interior(v) for v in members[c])]
    mouths = [c for c in ends if any(q.is_interior(v) for v in members[c])]
    if len(open_ends) != 1 or len(mouths) != 1:
        return "other"
    if periodic:
        return "tube(%d)" % lengths.pop()
    return "A-infinity-consistent"


def to_dot(q: TranslationQuiver) -> str:
    """DOT text: solid valued arrows, dashed grey tau edges."""
    ids = q.vertex_ids()
    name = {v: "v%d" % i for i, v in enumerate(ids)}
    lines = ["digraph fragment {", "  rankdir=LR;"]
    for v in ids:
        style = ["label=\"%s\"" % q.labels[v]]
        if v in q.weights:
            style[0] = "label=\"%s\\n%s\"" % (q.labels[v], q.weights[v])
        if not q.is_interior(v):
            style.append("style=dotted")
        if v in q.loops:
            style.append("peripheries=2")
        lines.append("  %s [%s];" % (name[v], ", ".join(style)))
    for (s, d) in sorted(q.arrows, key=lambda e: (name[e[0]], name[e[1]])):
        a, b = q.arrows[(s, d)]
        lines.append("  %s -> %s [label=\"(%d,%d)\"];" % (name[s], name[d], a, b))
    for v in sorted(q.tau, key=lambda v: name[v]):
        lines.append("  %s -> %s [style=dashed, color=gray, constraint=false];"
                     % (name[v], name[q.tau[v]]))
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(q: TranslationQuiver) -> str:
    """Deterministic JSON adjacency dump of a fragment."""
    ids = q.vertex_ids()
    key = {v: str(v) for v in ids}
    doc = {
        "vertices": [{"id": key[v], "label": q.labels[v],
                      "boundary": not q.is_interior(v),
                      "loop": v in q.loops,
                      "weight": str(q.weights[v]) if v in q.weights else None}
                     for v in ids],
        "arrows": [{"src": key[s], "dst": key[d],
                    "value": list(q.arrows[(s, d)])}
                   for (s, d) in sorted(q.arrows,
                                        key=lambda e: (key[e[0]], key[e[1]]))],
        "tau": {key[v]: key[w] for v, w in sorted(q.tau.items(),
                                                  key=lambda kv: key[kv[0]])},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
