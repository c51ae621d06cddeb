"""Model translation quivers for the tests: windows on Z(tree), and tubes.

Z(tree) has a vertex (n, x) for each index n and tree vertex x.  A tree
arrow x -> y gives (n, x) -> (n, y) and (n, y) -> (n - 1, x), and
tau(n, x) = (n + 1, x).  Every arrow carries the value (1, 1).
"""

from arcurves import TranslationQuiver


def z_window(vertices, edges, ns, rim=()):
    """Z(tree) over consecutive indices ns; its ends and rim are boundary."""
    ns = list(ns)
    q = TranslationQuiver()
    for n in ns:
        for x in vertices:
            q.add_vertex((n, x), label="(%d,%s)" % (n, x),
                         boundary=n in (ns[0], ns[-1]) or x in rim)
    for n in ns:
        for x, y in edges:
            q.add_arrow((n, x), (n, y))
            if n != ns[0]:
                q.add_arrow((n, y), (n - 1, x))
        if n != ns[-1]:
            for x in vertices:
                q.set_tau((n, x), (n + 1, x))
    return q


def _ray(k):
    xs = ["x%d" % i for i in range(1, k + 1)]
    return xs, list(zip(xs, xs[1:]))


def ray_window(k, ns):
    """Z(A_k) on the ray x1 -> ... -> xk, clipped at xk, over ns."""
    return z_window(*_ray(k), ns, rim=("x%d" % k,))


def tube(k, n):
    """Rows x1 (the mouth) to xk (the boundary) of the tube Z(A_k)/tau^n."""
    xs, edges = _ray(k)
    q = TranslationQuiver()
    for x in xs:
        for r in range(n):
            q.add_vertex((r, x), label="[%d,%s]" % (r, x),
                         boundary=x == xs[-1])
    for r in range(n):
        for x, y in edges:
            q.add_arrow((r, x), (r, y))
            q.add_arrow((r, y), ((r - 1) % n, x))
        for x in xs:
            q.set_tau((r, x), ((r + 1) % n, x))
    return q


# (vertices, edges, window, basepoint, radius, degrees of the tree class)
SMALL_TREES = [
    (["x", "y"], [("x", "y")], range(-3, 4), (0, "x"), 2, (1, 1)),
    (["x", "y", "z"], [("x", "y"), ("y", "z")], range(-4, 5), (0, "x"), 3,
     (1, 1, 2)),
    (["c", "a", "b", "d"], [("c", "a"), ("c", "b"), ("c", "d")], range(-3, 4),
     (0, "c"), 2, (1, 1, 1, 3))]


def degrees(q):
    """Sorted undirected vertex degrees; they tell small trees apart."""
    return tuple(sorted(len(q.predecessors(v)) + len(q.successors(v))
                        for v in q.labels))
