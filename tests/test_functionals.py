import json
from fractions import Fraction
from functools import lru_cache
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import DOUBLE_SIMPLEX, SEGMENT2, SQUARE, UNIT_SIMPLEX, config_of
from toricweights.functionals import (
    PLFunction,
    boundary_total,
    char_pairing,
    degrees,
    donaldson_f,
    donaldson_total,
    integral_boundary,
    integral_q,
    pairing,
    pl_from_lifting,
    volume_total,
)
from toricweights.triangulation import Lifting, Triangulation, enumerate_regular, lower_hull_subdivision
from toricweights.vectors import boundary_vector, gkz_vector, hurwitz_vector


def pl(cfg, cells, values):
    return PLFunction.on_triangulation(
        Triangulation(cfg, cells), {i: Fraction(v) for i, v in values.items()}
    )


def test_pl_from_lifting_fine():
    cfg = config_of(SEGMENT2)
    g = pl_from_lifting(cfg, Lifting((0, -1, 0)))
    assert g.triangulation.simplices == ((0, 1), (1, 2))
    assert g.values == {0: 0, 1: -1, 2: 0}


def test_pl_from_lifting_keeps_integer_heights():
    # The envelope carries the lifting's ints, so it is integrated in integers.
    g = pl_from_lifting(config_of(SEGMENT2), [0, -1, 0])
    assert [type(v) for v in g.values.values()] == [int, int, int]
    assert volume_total(g) == -2 and type(volume_total(g)) is int


def test_pl_from_lifting_affine_envelope():
    # Heights (-1, 0, -1): the midpoint is lifted above the segment between
    # the endpoints, so the envelope is affine with g(1) = -1 < 0.
    cfg = config_of(SEGMENT2)
    g = pl_from_lifting(cfg, Lifting((-1, 0, -1)))
    assert g.triangulation.simplices == ((0, 2),)
    assert g.values == {0: -1, 2: -1}


def test_pl_from_affine_lifting_is_affine():
    cfg = config_of(SQUARE)
    heights = [p[0] - 1 for p in cfg.points]  # restriction of x - 1
    # The lower hull is the single square cell, which carries no PL function.
    with pytest.raises(ValueError, match="not a triangulation"):
        pl_from_lifting(cfg, Lifting.normalized(heights))


def test_integral_constant():
    cfg = config_of(SEGMENT2)
    g = pl(cfg, [(0, 1), (1, 2)], {0: 1, 1: 1, 2: 1})
    assert integral_q(g) == 2


def test_integral_vee():
    cfg = config_of(SEGMENT2)
    g = pl(cfg, [(0, 1), (1, 2)], {0: 0, 1: -1, 2: 0})
    assert integral_q(g) == -1


def test_integral_coordinate_on_double_simplex():
    cfg = config_of(DOUBLE_SIMPLEX)
    values = {i: cfg.points[i][0] for i in range(len(cfg))}
    cells = [(0, 1, 3), (1, 3, 4), (1, 2, 4), (3, 4, 5)]
    g = pl(cfg, cells, values)
    assert integral_q(g) == Fraction(4, 3)


def test_integral_rejects_non_simplicial():
    cfg = config_of(SQUARE)
    with pytest.raises(ValueError, match="not a triangulation"):
        pl_from_lifting(cfg, Lifting((0, 0, 0, 0)))


def test_boundary_integral_constant_on_square():
    cfg = config_of(SQUARE)
    g = pl(cfg, [(0, 1, 3), (0, 2, 3)], {i: 1 for i in range(4)})
    assert integral_boundary(g) == 4


def test_boundary_integral_coordinate_on_square():
    cfg = config_of(SQUARE)
    g = pl(cfg, [(0, 1, 3), (0, 2, 3)], {i: cfg.points[i][0] for i in range(4)})
    assert integral_boundary(g) == 2


def test_boundary_integral_coordinate_on_double_simplex():
    cfg = config_of(DOUBLE_SIMPLEX)
    values = {i: cfg.points[i][0] for i in range(len(cfg))}
    g = pl(cfg, [(0, 1, 3), (1, 3, 4), (1, 2, 4), (3, 4, 5)], values)
    assert integral_boundary(g) == 4


def test_aubin_examples():
    cfg = config_of(SEGMENT2)
    zero = pl(cfg, [(0, 1), (1, 2)], {0: 0, 1: 0, 2: 0})
    assert integral_q(zero) == 0
    sq = config_of(SQUARE)
    one = pl(sq, [(0, 1, 3), (0, 2, 3)], {i: 1 for i in range(4)})
    assert integral_q(one) == 1


def test_donaldson_constant_vanishes():
    cfg = config_of(DOUBLE_SIMPLEX)
    g = pl(cfg, [(0, 1, 3), (1, 3, 4), (1, 2, 4), (3, 4, 5)], {i: 5 for i in range(6)})
    assert donaldson_f(g) == 0


def test_donaldson_coordinate_on_double_simplex():
    cfg = config_of(DOUBLE_SIMPLEX)
    values = {i: cfg.points[i][0] for i in range(len(cfg))}
    g = pl(cfg, [(0, 1, 3), (1, 3, 4), (1, 2, 4), (3, 4, 5)], values)
    assert donaldson_f(g) == 0


def test_donaldson_hand_trace_on_segment():
    # g = max(0, x-1) on the fine triangulation of [0,2]: F(g) = 1/2 both by
    # direct integration and by the degree-weighted pairing.
    cfg = config_of(SEGMENT2)
    tri = Triangulation(cfg, [(0, 1), (1, 2)])
    g = PLFunction.on_triangulation(tri, {0: Fraction(0), 1: Fraction(0), 2: Fraction(1)})
    assert donaldson_f(g) == Fraction(1, 2)
    deg = degrees(cfg)
    eta = gkz_vector(tri)
    xi = hurwitz_vector(tri)
    n = 1
    mixed = tuple(
        n * deg.hurwitz * e - (n + 1) * deg.chow * x for e, x in zip(eta, xi)
    )
    assert mixed == (2, -4, 2)
    assert Fraction(pairing(mixed, (0, 0, 1)), factorial(n + 1) * cfg.volume) == Fraction(1, 2)


def test_pairing_examples():
    assert pairing((1, 2, 1), (0, -1, 0)) == -2
    assert pairing((0, 2, 0), (0, 0, 1)) == 0
    assert pairing((5, -7, 11), (0, 0, 0)) == 0
    assert type(pairing((1, 2), (3, 4))) is int
    assert pairing((1, 2), (Fraction(1, 2), Fraction(-1, 3))) == Fraction(-1, 6)
    with pytest.raises(ValueError):
        pairing((1, 2), (1, 2, 3))
    with pytest.raises(TypeError):
        pairing((1, 2), (0.5, 1))
    # A bool entry was read as 0 or 1: pairing((1, 2), (True, 0)) was 1.
    for x, g in (((1, 2), (True, 0)), ((False, 2), (1, 0))):
        with pytest.raises(TypeError, match="bool"):
            pairing(x, g)


def test_degrees_examples():
    assert degrees(config_of(SEGMENT2)) == degrees(config_of(SEGMENT2))
    d = degrees(config_of(SEGMENT2))
    assert (d.chow, d.hurwitz) == (2, 2)
    d = degrees(config_of(SQUARE))
    assert (d.chow, d.hurwitz) == (2, 2)
    d = degrees(config_of(DOUBLE_SIMPLEX))
    assert (d.chow, d.hurwitz) == (4, 6)
    d = degrees(config_of(UNIT_SIMPLEX))
    assert (d.chow, d.hurwitz) == (1, 0)


def test_donaldson_affine_is_triangulation_independent(square, double_simplex):
    # F of an affine function does not depend on the carrying triangulation;
    # for these two polytopes its value is 0 by hand.
    for analysis in (square, double_simplex):
        cfg = analysis.config
        n = cfg.dim
        for affine in [[1] * len(cfg)] + [[p[j] for p in cfg.points] for j in range(n)]:
            values = {
                entry.id: donaldson_f(
                    PLFunction.on_triangulation(
                        entry.triangulation,
                        {i: Fraction(affine[i]) for i in entry.triangulation.used_points},
                    )
                )
                for entry in analysis.enumeration
            }
            assert len(set(values.values())) == 1
            assert set(values.values()) == {Fraction(0)}


def test_on_triangulation_keeps_the_triangulation():
    cfg = config_of(SQUARE)
    tri = Triangulation(cfg, [(0, 1, 3), (0, 2, 3)])
    values = {i: Fraction(i, 2) for i in range(4)}
    g = PLFunction.on_triangulation(tri, values)
    assert g.triangulation is tri
    assert g == PLFunction(tri, values)
    # Equality compares the triangulations by value.
    assert g == PLFunction(Triangulation(cfg, tri.simplices), values)


rational_values = st.fractions(
    min_value=-8, max_value=8, max_denominator=5
)


@settings(max_examples=30, deadline=None)
@given(st.lists(rational_values, min_size=4, max_size=4), rational_values)
def test_donaldson_invariant_under_constants(vals, c):
    cfg = config_of(SQUARE)
    g = pl(cfg, [(0, 1, 3), (0, 2, 3)], dict(enumerate(vals)))
    shifted = pl(cfg, [(0, 1, 3), (0, 2, 3)], {i: v + c for i, v in enumerate(vals)})
    assert donaldson_f(shifted) == donaldson_f(g)


@settings(max_examples=30, deadline=None)
@given(st.lists(rational_values, min_size=4, max_size=4))
def test_evaluation_agrees_on_shared_faces(vals):
    cfg = config_of(SQUARE)
    cells = [(0, 1, 3), (0, 2, 3)]
    g = pl(cfg, cells, dict(enumerate(vals)))
    # midpoint of the shared diagonal, evaluated via each simplex directly
    mid = (Fraction(1, 2), Fraction(1, 2))
    from toricweights.exact import affine_combination

    per_cell = []
    for cell in cells:
        coeffs = affine_combination([cfg.points[i] for i in cell], mid)
        per_cell.append(sum(c * g.values[i] for c, i in zip(coeffs, cell)))
    assert per_cell[0] == per_cell[1]


@settings(max_examples=25, deadline=None)
@given(st.lists(rational_values, min_size=6, max_size=6))
def test_pairing_identities_for_random_g(vals):
    cfg = config_of(DOUBLE_SIMPLEX)
    tri = Triangulation(cfg, [(0, 1, 3), (1, 3, 4), (1, 2, 4), (3, 4, 5)])
    g = PLFunction.on_triangulation(tri, dict(enumerate(vals)))
    n = cfg.dim
    assert char_pairing(gkz_vector(tri), g) == factorial(n + 1) * integral_q(g)
    assert char_pairing(boundary_vector(tri), g) == factorial(n) * integral_boundary(g)


def test_on_triangulation_rejects_missing_values():
    cfg = config_of(DOUBLE_SIMPLEX)
    tri = Triangulation(cfg, [(0, 1, 3), (1, 3, 4), (1, 2, 4), (3, 4, 5)])
    with pytest.raises(ValueError, match=r"missing values at used points \[2, 5\]"):
        PLFunction.on_triangulation(tri, {0: 1, 1: 1, 3: 1, 4: 1})


@pytest.mark.parametrize("key", [-1, 4, 99])
def test_on_triangulation_rejects_keys_outside_the_points(key):
    # A key of -1 was read as point 3 by char_pairing (25 instead of 15),
    # and 99 failed later with IndexError.
    cfg = config_of(SQUARE)
    tri = Triangulation(cfg, [(0, 1, 3), (0, 2, 3)])
    with pytest.raises(ValueError, match="outside the point indices"):
        PLFunction.on_triangulation(tri, {0: 1, 1: 2, 2: 3, 3: 4, key: 5})


def test_on_triangulation_rejects_bool_values():
    # True was taken as 1: integral_q gave 5/2.
    cfg = config_of(SQUARE)
    tri = Triangulation(cfg, [(0, 1, 3), (0, 2, 3)])
    with pytest.raises(TypeError, match="bool"):
        PLFunction.on_triangulation(tri, {0: 1, 1: 2, 2: True, 3: 4})


@pytest.mark.parametrize("value", [0.1, "2/3"], ids=["float", "str"])
def test_on_triangulation_rejects_float_and_str_values(value):
    # 0.1 was read as Fraction(3602879701896397, 36028797018963968), so
    # integral_q had denominator 2**55, and "2/3" was parsed as Fraction(2, 3);
    # pairing raises TypeError on both.
    cfg = config_of(SQUARE)
    tri = Triangulation(cfg, [(0, 1, 3), (0, 2, 3)])
    with pytest.raises(TypeError, match=type(value).__name__):
        PLFunction.on_triangulation(tri, {0: 1, 1: 2, 2: value, 3: 4})


def test_on_triangulation_keeps_ints():
    cfg = config_of(DOUBLE_SIMPLEX)
    tri = Triangulation(cfg, [(0, 1, 3), (1, 3, 4), (1, 2, 4), (3, 4, 5)])
    ints = {i: 3 * i - 7 for i in range(6)}
    g = PLFunction.on_triangulation(tri, ints)
    assert all(type(v) is int for v in g.values.values())
    assert type(char_pairing(gkz_vector(tri), g)) is int
    fractions = PLFunction.on_triangulation(tri, {i: Fraction(v) for i, v in ints.items()})
    assert g == fractions
    assert integral_q(g) == integral_q(fractions)
    assert integral_boundary(g) == integral_boundary(fractions)
    # Mixed ints and Fractions are each kept as given.
    mixed = PLFunction.on_triangulation(tri, {**ints, 0: Fraction(1, 2)})
    assert mixed.values[0] == Fraction(1, 2) and type(mixed.values[1]) is int


DATA = Path(__file__).resolve().parent.parent / "data"


@lru_cache(maxsize=None)
def data_triangulations(name):
    """The configuration of data/<name> and its regular triangulations."""
    cfg = config_of(json.loads((DATA / name).read_text())["vertices"])
    return cfg, [entry.triangulation for entry in enumerate_regular(cfg)]


def assert_totals_match_oracles(g):
    # Each new functional equals the Fraction one that looks up every
    # volume, and each total is the matching integral times its factorial.
    cfg = g.triangulation.config
    n = cfg.dim
    volume, boundary = volume_total(g), boundary_total(g)
    donaldson = donaldson_total(cfg, boundary, volume)
    assert volume == factorial(n + 1) * oracles.integral_q(g)
    assert boundary == factorial(n) * oracles.integral_boundary(g)
    assert donaldson == factorial(n + 1) * cfg.volume * oracles.donaldson_f(g)
    assert integral_q(g) == oracles.integral_q(g)
    assert integral_boundary(g) == oracles.integral_boundary(g)
    assert donaldson_f(g) == oracles.donaldson_f(g)
    if all(type(v) is int for v in g.values.values()):
        assert type(volume) is type(boundary) is type(donaldson) is int


@pytest.mark.parametrize("name", sorted(path.name for path in DATA.glob("*.json")))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_totals_match_fraction_oracles(name, data):
    # Int and Fraction values on every regular triangulation of the data
    # file, and the lower envelope of a lifting when it is simplicial.
    cfg, triangulations = data_triangulations(name)
    values = data.draw(st.lists(st.integers(-60, 60) | rational_values, min_size=len(cfg), max_size=len(cfg)))
    for tri in triangulations:
        assert_totals_match_oracles(PLFunction.on_triangulation(tri, {i: values[i] for i in tri.used_points}))
    heights = data.draw(st.lists(st.integers(-30, 0), min_size=len(cfg), max_size=len(cfg)))
    if lower_hull_subdivision(cfg, heights).is_triangulation:
        assert_totals_match_oracles(pl_from_lifting(cfg, heights))
    else:
        with pytest.raises(ValueError):
            pl_from_lifting(cfg, heights)
