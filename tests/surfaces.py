"""A hand-built surface shared by the operator and state-space tests."""

from fractions import Fraction

from rlw import QMODZ, Coloring, RibbonGraph


def reversed_leg_coloring():
    """A 2-face torus whose face 0 has two corners (2 and 7) with a leg
    walked against its own dart (the leg's reverse is a walk dart, the leg
    is not); face 1 is a 2-gon.
    No builder makes this graph, so it has no coloring recipe: it is
    colored by a cocycle whose degrees are all generic."""
    graph = RibbonGraph([(10, 0, 7), (11, 4, 9), (5, 3, 8), (2, 1, 6)])
    values = ("6/11", "50/143", "8/11", "28/143", "1/13", "93/143")
    coloring = Coloring(graph, [QMODZ.element(Fraction(v)) for v in values])
    assert coloring.is_cocycle()
    return coloring
