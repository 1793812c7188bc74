"""Integer lattices: an exact oracle for the float kernel, with no second float
implementation. Below 2^24 in magnitude the kernel's products and sums of
integer coordinates are exact, so its root products must equal math.sqrt of
the exact integer conorms bit for bit, and exact moves of the basis must leave
its oriented root form and sign bit-identical, or mirror them."""

import math

import pytest

from helpers import exact_lagrange_gauss, int_conorms, make_rng, random_unimodular, reflected_basis
from rootforms import Basis2, LatticeSign, Vec2, oriented_root_form, reduce_to_obtuse, superbase_from_basis
from rootforms.errors import DegenerateBasis

LIMIT = 2 ** 24
MIRROR = {LatticeSign.POSITIVE: LatticeSign.NEGATIVE, LatticeSign.NEGATIVE: LatticeSign.POSITIVE,
          LatticeSign.NEUTRAL: LatticeSign.NEUTRAL}


def _basis(coords):
    x1, y1, x2, y2 = map(float, coords)
    return Basis2(Vec2(x1, y1), Vec2(x2, y2))


def _random_integer_bases(seed, count, bits):
    """count integer bases with coordinates below 2^bits that Basis2 accepts."""
    rng = make_rng(seed)
    out = []
    while len(out) < count:
        coords = tuple(int(v) for v in rng.integers(-(2 ** bits) + 1, 2 ** bits, 4))
        try:
            _basis(coords)
        except DegenerateBasis:
            continue
        out.append(coords)
    return out


def _unimodular_move(rng, coords):
    """coords moved by a seeded unimodular matrix, or None when a coordinate would
    reach 2^24."""
    (a, b), (c, d) = random_unimodular(rng, kmax=3).tolist()
    x1, y1, x2, y2 = coords
    moved = (a * x1 + b * x2, a * y1 + b * y2, c * x1 + d * x2, c * y1 + d * y2)
    return moved if max(map(abs, moved)) < LIMIT else None


def _rotated_90(coords, turns):
    x1, y1, x2, y2 = coords
    for _ in range(turns):
        x1, y1, x2, y2 = -y1, x1, -y2, x2
    return x1, y1, x2, y2


def _mirror(orf, sign):
    lo, b, c = orf
    return ((lo, b, c) if sign is LatticeSign.NEUTRAL else (lo, c, b)), MIRROR[sign]


@pytest.mark.parametrize("bits", [10, 20, 23])
def test_root_products_are_sqrt_of_the_exact_conorms(bits):
    for coords in _random_integer_bases(9600 + bits, 5000, bits):
        orf, _ = oriented_root_form(_basis(coords))
        assert sorted(orf) == sorted(math.sqrt(p) for p in int_conorms(*coords)), coords


def test_integer_reduction_is_reduced():
    for coords in _random_integer_bases(9610, 2000, 23):
        x1, y1, x2, y2 = coords
        u1, u2 = exact_lagrange_gauss((x1, y1), (x2, y2))
        g11, g22 = u1[0] ** 2 + u1[1] ** 2, u2[0] ** 2 + u2[1] ** 2
        assert g11 <= g22 and 2 * abs(u1[0] * u2[0] + u1[1] * u2[1]) <= g11
        assert abs(u1[0] * u2[1] - u1[1] * u2[0]) == abs(x1 * y2 - y1 * x2)  # the same lattice


def test_obtuse_superbase_is_exact():
    # integer vectors of the input lattice, with its |det|, whose conorms, on
    # Python ints, are the exact ones
    for coords in _random_integer_bases(9615, 2000, 24):
        x1, y1, x2, y2 = coords
        s = reduce_to_obtuse(superbase_from_basis(_basis(coords)))
        assert all(c.is_integer() for v in s.vectors() for c in v), coords
        v0, v1, v2 = ((int(v.x), int(v.y)) for v in s.vectors())
        conorms = [-(p[0] * q[0] + p[1] * q[1]) for p, q in ((v1, v2), (v0, v1), (v0, v2))]
        assert min(conorms) >= 0 and sorted(conorms) == sorted(int_conorms(*coords)), coords
        det = x1 * y2 - y1 * x2
        for vx, vy in (v1, v2):  # (v1, v2) = M (b1, b2) with M integer
            assert (vx * y2 - vy * x2) % det == 0 and (x1 * vy - y1 * vx) % det == 0, coords
        assert abs(v1[0] * v2[1] - v1[1] * v2[0]) == abs(det), coords


def test_exact_moves_keep_or_mirror_the_oriented_root_form():
    rng = make_rng(9620)
    checked = mirrored = 0
    for coords in _random_integer_bases(9621, 1500, 20):
        orf, sign = oriented_root_form(_basis(coords))
        moved = _unimodular_move(rng, coords)
        if moved is None:
            continue
        moved = _rotated_90(moved, int(rng.integers(0, 4)))
        reflect = rng.random() < 0.5
        basis = _basis(moved)
        got = oriented_root_form(reflected_basis(basis) if reflect else basis)
        want = _mirror(orf, sign) if reflect else (orf, sign)
        assert (tuple(got[0]), got[1]) == (tuple(want[0]), want[1]), (coords, moved, reflect)
        checked += 1
        mirrored += reflect and sign is not LatticeSign.NEUTRAL
    assert checked >= 1000 and mirrored >= 300


def _tie_bases(rng):
    """Integer bases whose lattices have an exact tie: rectangles (a root product
    0), isosceles cells (2m, 0), (-m, y) with y > m (two equal conorms 2 m^2) and
    rhombi (p, q), (q, p) (equal |v1| and |v2|)."""
    for _ in range(300):
        m, n = (int(v) for v in rng.integers(1, 2 ** 10, 2))
        yield "rectangle", (m, 0, 0, n)
        yield "isosceles", (2 * m, 0, -m, m + n)
        if m != n:
            yield "rhombus", (m, n, n, m)


def test_exact_ties_read_neutral():
    rng = make_rng(9630)
    kinds = set()
    for family, coords in _tie_bases(rng):
        a, b, c = sorted(int_conorms(*coords))
        tie = "a = 0" if a == 0 else "a = b" if a == b else "b = c" if b == c else None
        assert tie is not None, (family, coords)
        kinds.add(tie)
        for moved in (coords, _unimodular_move(rng, coords)):
            if moved is None:
                continue
            moved = _rotated_90(moved, int(rng.integers(0, 4)))
            for basis in (_basis(moved), reflected_basis(_basis(moved))):
                orf, sign = oriented_root_form(basis)
                assert sign is LatticeSign.NEUTRAL, (family, basis)
                assert tuple(orf) == tuple(sorted(math.sqrt(p) for p in (a, b, c))), (family, basis)
    assert kinds == {"a = 0", "a = b", "b = c"}
