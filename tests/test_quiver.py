"""Translation quivers: windows, tubes, tree classes, subadditivity."""

import json

import pytest

from arcurves import (InputError, TranslationQuiver, check_subadditive,
                      classify_fragment, orbit_collapse, to_dot, to_json,
                      tree_class, validate)
from tubes import SMALL_TREES, degrees, ray_window, tube, z_window


def test_ray_window_is_a_translation_quiver():
    win = ray_window(4, range(-3, 4))
    assert validate(win) == []
    assert (0, "x1") in win.labels


def test_tau_quotients_classify_as_tubes():
    for n in (1, 2, 3):
        assert classify_fragment(tube(4, n)) == "tube(%d)" % n


def test_unquotiented_window_reads_as_a_ray():
    win = ray_window(5, range(-3, 4))
    assert classify_fragment(win) == "A-infinity-consistent"


def test_tree_class_recovers_small_trees():
    for vertices, edges, ns, base, radius, degs in SMALL_TREES:
        win = z_window(vertices, edges, ns)
        assert degrees(tree_class(win, base, radius)) == degs


def test_tree_class_rejects_unknown_basepoint():
    win = ray_window(3, range(-2, 3))
    with pytest.raises(InputError):
        tree_class(win, (99, "nope"), 2)


def _weighted_tube(n, weights):
    q = tube(len(weights), n)
    q.weights.update({(r, x): weights[int(x[1:]) - 1] for r, x in q.labels})
    return q


def test_subadditivity_on_a_tube():
    # mouth 1, then 2, 3: the additive function of a rank-one tube
    q = _weighted_tube(2, [1, 2, 3])
    rep = check_subadditive(q)
    assert rep["status"] in ("additive", "strictly-subadditive")
    assert rep["failures"] == {}


def test_subadditivity_failure_is_witnessed():
    q = _weighted_tube(2, [1, 5, 3])
    rep = check_subadditive(q)
    assert rep["status"] == "fails"
    assert rep["failures"]


def test_subadditive_requires_values_for_trees():
    q = TranslationQuiver()
    q.add_vertex("a")
    q.add_vertex("b")
    q.add_arrow("a", "b")
    with pytest.raises(InputError):
        check_subadditive(q)
    q.weights.update(a=1, b=1)
    rep = check_subadditive(q)
    assert rep["status"] in ("additive", "strictly-subadditive")
    q.weights["b"] = 3
    assert check_subadditive(q)["failures"] == {"a": ("2", "3")}


def test_orbit_collapse_merges_tau_orbits():
    q = tube(3, 2)
    orbits = orbit_collapse(q)
    # two tau-orbits survive from the three-row tube window
    assert len(orbits.labels) <= len(q.labels)
    assert validate(orbits) == []


def test_orbit_collapse_rejects_weight_tears():
    q = TranslationQuiver()
    q.add_vertex("a", weight=1)
    q.add_vertex("b", weight=2)
    q.set_tau("a", "b")
    with pytest.raises(InputError):
        orbit_collapse(q)


def _quiver(*vertices, weight=None):
    q = TranslationQuiver()
    for v in vertices:
        q.add_vertex(v, weight=weight)
    return q


def _torn():
    # a, a2 and b, b2 are tau-orbits, and a -> b, a2 -> b2 carry
    # different values
    q = _quiver("a", "a2", "b", "b2")
    q.set_tau("a2", "a")
    q.set_tau("b2", "b")
    q.add_arrow("a", "b", (1, 1))
    q.add_arrow("a2", "b2", (1, 2))
    return q


# Per input check of the quiver builders: the call on the quiver a, b
# and its message.
@pytest.mark.parametrize("call, message", [
    (lambda q: q.add_vertex("a"), "vertex 'a' already present"),
    (lambda q: q.add_arrow("a", "z"), "arrow endpoints must be vertices"),
    (lambda q: (q.add_arrow("a", "b"), q.add_arrow("a", "b")),
     "multiple arrow 'a' -> 'b'"),
    (lambda q: q.add_arrow("a", "b", (0, 1)), "arrow values must be positive"),
    (lambda q: q.set_tau("a", "z"), "tau endpoints must be vertices"),
    (lambda q: orbit_collapse(_torn()),
     "projection tears a valued arrow at a -> b"),
    (lambda q: check_subadditive(_quiver("a", weight=0)),
     "subadditive functions must be positive"),
])
def test_quiver_input_exits(call, message):
    with pytest.raises(InputError) as exc:
        call(_quiver("a", "b"))
    assert (exc.type, str(exc.value)) == (InputError, message)


def test_dot_and_json_are_deterministic():
    win = ray_window(3, range(-2, 3))
    assert to_dot(win) == to_dot(ray_window(3, range(-2, 3)))
    doc = json.loads(to_json(win))
    assert set(doc.keys()) >= {"vertices", "arrows"}
    assert to_dot(win).startswith("digraph")


def test_classify_conservatively():
    q = TranslationQuiver()
    q.add_vertex("lone")
    assert classify_fragment(q) == "inconclusive"
