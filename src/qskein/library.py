"""Named example surfaces and curves used across tests, demos and the CLI."""

from __future__ import annotations

import re

from .curves import NormalCurve
from .puncture import lift
from .surface import annulus, polygon, sphere_three_marked, torus_one_marked


def annulus_core():
    A = annulus()
    return A, NormalCurve.from_sides(A, [("T0.d1", "T0.d2"), ("T1.d2", "T1.d1")])


# curves on the one-marked torus, by slope

_TORUS_CURVES = {
    "1,0": [(1, 2, 0), (0, 2, 1)],
    "0,1": [(0, 0, 2), (1, 0, 1)],
    "1,1": [(0, 0, 1), (1, 2, 1)],
    "1,-1": [(0, 0, 2), (1, 0, 2), (0, 1, 2), (1, 0, 1)],
}


def torus_curve(slope):
    lam = torus_one_marked()
    return lam, NormalCurve(lam, _TORUS_CURVES[slope])


# peripheral curves on the three-marked sphere, around pairs of points

_SPHERE_CURVES = {
    "12": [(0, 1, 2), (1, 1, 2)],
    "23": [(0, 2, 0), (1, 0, 1)],
    "13": [(0, 0, 1), (1, 2, 0)],
}


def sphere_curve(pair):
    lam = sphere_three_marked()
    return lam, NormalCurve(lam, _SPHERE_CURVES[pair])


def surface_by_name(name):
    """Builder lookup: polygonN, annulus, torus1, sphere3, or their lifts."""
    # ASCII digits without a leading zero: polygon03 or a non-ASCII digit
    # would name a polygon that the listed names do not
    if match := re.fullmatch(r"polygon([1-9][0-9]*)", name):
        return polygon(int(match[1]))
    if name == "annulus":
        return annulus()
    if name == "torus1":
        return torus_one_marked()
    if name == "sphere3":
        return sphere_three_marked()
    if name == "torus1-lift":
        return lift(torus_one_marked()).delta
    if name == "sphere3-lift":
        return lift(sphere_three_marked()).delta
    raise KeyError("unknown surface %r" % name)


MARKED_LIBRARY = (
    "polygon3", "polygon4", "polygon5", "polygon6", "polygon7", "polygon8",
    "annulus", "torus1-lift", "sphere3-lift",
)
