"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines stream.
"""

import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import (
    apply_unimodular,
    make_rng,
    perturbed_superbase,
    random_basis,
    random_obtuse_superbase,
    random_oriented_form,
    random_root_form,
    random_unimodular,
    reflected_basis,
    rotated_basis,
)
from rootforms import (
    Basis2,
    LatticeSign,
    RootForm,
    Vec2,
    conorms,
    continuity_bound,
    oriented_root_form,
    reconstruct_superbase,
    reduce_to_obtuse,
    root_form,
    root_metric,
    root_metric_oriented,
    superbase_distance_linf,
    superbase_from_basis,
    to_quotient_triangle,
    verify_partial_sums,
    voronoi_domain,
)

INF = math.inf
SQ3, SQ6, SQ7 = math.sqrt(3), math.sqrt(6), math.sqrt(7)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS  {description}")


def full_pipeline_example_c():
    b1 = Basis2(Vec2(3, 0), Vec2(-1, 3))
    b2 = Basis2(Vec2(3, 0), Vec2(-2, 3))
    s1 = reduce_to_obtuse(superbase_from_basis(b1))
    s2 = reduce_to_obtuse(superbase_from_basis(b2))
    cf1, cf2 = conorms(s1), conorms(s2)
    rf1, rf2 = root_form(s1), root_form(s2)
    dists = [root_metric(rf1, rf2, q) for q in (1.0, 2.0, INF)]
    (orf1, sign1), (orf2, sign2) = oriented_root_form(b1), oriented_root_form(b2)
    dplus = root_metric_oriented(orf1, orf2, INF)
    return cf1, cf2, rf1, rf2, dists, sign1, sign2, dplus


def test_criterion_1_mirror_pair_end_to_end():
    with criterion(1, "mirror pair: coforms, root forms, metrics, signs, < 1 ms"):
        cf1, cf2, rf1, rf2, dists, sign1, sign2, dplus = full_pipeline_example_c()
        assert cf1 == (3, 6, 7)
        assert cf2 == (6, 3, 7)
        assert rf1 == pytest.approx((SQ3, SQ6, SQ7), abs=1e-12)
        assert rf2 == pytest.approx(tuple(rf1), abs=1e-12)
        assert dists == [0.0, 0.0, 0.0]
        assert sign1 is LatticeSign.POSITIVE
        assert sign2 is LatticeSign.NEGATIVE
        assert dplus == pytest.approx(SQ7 - SQ6, abs=1e-12)
        best = min(
            _timed(full_pipeline_example_c) for _ in range(5)
        )
        print(f"              runtime {best * 1e6:.0f} us", end=" ")
        assert best < 1e-3


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_square_vs_centred_rectangular_metric():
    with criterion(2, "square vs centred-rectangular metric values"):
        a = RootForm(0.0, 0.5, 0.5)
        b = RootForm(1 / 6, 1 / 6, 2 / 3)
        for q in (1.0, 2.0, 3.0):
            expected = (2 * (1 / 6) ** q + (1 / 3) ** q) ** (1 / q)
            assert root_metric(a, b, q) == pytest.approx(expected, abs=1e-12)
        assert root_metric(a, b, INF) == pytest.approx(1 / 3, abs=1e-12)


def test_criterion_3_bravais_anchors():
    with criterion(3, "square at QT (0,0), hexagonal at QT (0,1/3)"):
        sq = root_form(reduce_to_obtuse(superbase_from_basis(Basis2(Vec2(1, 0), Vec2(0, 1)))))
        pt = to_quotient_triangle(sq)
        assert abs(pt.x) <= 1e-12 and abs(pt.y) <= 1e-12
        hexa = root_form(
            reduce_to_obtuse(
                superbase_from_basis(
                    Basis2(Vec2(1, 0), Vec2(-0.5, math.sqrt(3) / 2))
                )
            )
        )
        pt = to_quotient_triangle(hexa)
        assert abs(pt.x) <= 1e-12 and abs(pt.y - 1 / 3) <= 1e-12


def test_criterion_4_metric_axioms_bulk():
    with criterion(4, "metric axioms on 10,000 random triples, < 5 s"):
        rng = make_rng(1009)
        t0 = time.perf_counter()
        for metric, gen in (
            (root_metric, random_root_form),
            (root_metric_oriented, random_oriented_form),
        ):
            for _ in range(5000):
                a, b, c = gen(rng), gen(rng), gen(rng)
                for q in (1.0, 2.0, INF):
                    dab = metric(a, b, q)
                    assert dab >= 0.0
                    assert dab == metric(b, a, q)
                    assert metric(a, a, q) == 0.0
                    if dab == 0.0:
                        assert max(
                            abs(x - y) for x, y in zip(sorted(a), sorted(b))
                        ) <= 1e-12
                    assert dab + metric(b, c, q) >= metric(a, c, q) - 1e-12
        elapsed = time.perf_counter() - t0
        print(f"              runtime {elapsed:.2f} s", end=" ")
        assert elapsed < 5.0


def test_criterion_5_invariance_and_reflection():
    with criterion(5, "1,000 lattices x 5 unimodular changes x isometries"):
        rng = make_rng(2003)
        for _ in range(1000):
            b = random_basis(rng)
            rf0 = root_form(reduce_to_obtuse(superbase_from_basis(b)))
            orf0, sign0 = oriented_root_form(b)
            for _ in range(5):
                b2 = apply_unimodular(b, random_unimodular(rng))
                b2 = rotated_basis(b2, rng.uniform(0.0, 2.0 * math.pi))
                reflect = rng.random() < 0.5
                if reflect:
                    b2 = reflected_basis(b2)
                rf2 = root_form(reduce_to_obtuse(superbase_from_basis(b2)))
                assert rf2 == pytest.approx(
                    tuple(rf0), rel=1e-9, abs=1e-9 * rf0.r02
                )
                if sign0 is LatticeSign.NEUTRAL:
                    continue
                orf2, sign2 = oriented_root_form(b2)
                if reflect:
                    assert {sign0, sign2} == {
                        LatticeSign.POSITIVE, LatticeSign.NEGATIVE
                    }
                    assert orf2 == pytest.approx(
                        (orf0.first, orf0.third, orf0.second),
                        rel=1e-9, abs=1e-9 * max(orf0),
                    )
                else:
                    assert sign2 is sign0
                    assert orf2 == pytest.approx(
                        tuple(orf0), rel=1e-9, abs=1e-9 * max(orf0)
                    )


def test_criterion_6_forward_continuity_bound():
    with criterion(6, "root-metric shift within 3^(1/q) sqrt(2 l delta)"):
        rng = make_rng(3001)
        for _ in range(1000):
            s = random_obtuse_superbase(rng, conorm_lo=0.8, conorm_hi=3.0)
            rf = root_form(s)
            for delta in (1e-1, 1e-3, 1e-5):
                s2, actual = perturbed_superbase(rng, s, delta)
                assert min(conorms(s2)) >= 0.0, "perturbation left the obtuse cone"
                rf2 = root_form(reduce_to_obtuse(s2))
                length = max(w.norm() for w in (*s.vectors(), *s2.vectors()))
                for q in (1.0, 2.0, INF):
                    bound = continuity_bound(length, actual, q)
                    assert root_metric(rf, rf2, q) <= bound + 1e-9


def test_criterion_7_oracle_equivalence():
    with criterion(7, "500 random bases: reduction vs Voronoi oracle"):
        rng = make_rng(4001)
        for _ in range(500):
            b = random_basis(rng, max_cond=1e3)
            obt = reduce_to_obtuse(superbase_from_basis(b))
            assert verify_partial_sums(obt)
            assert voronoi_domain(b).area() == pytest.approx(abs(b.det), rel=1e-9)


def test_criterion_8_reconstruction_round_trip():
    with criterion(8, "1,000 root forms: reconstruct round trip + alignment"):
        rng = make_rng(5003)
        for _ in range(1000):
            rf = random_root_form(rng, lo=0.05, hi=4.0)
            s = reconstruct_superbase(rf)
            back = root_form(s)
            assert back == pytest.approx(tuple(rf), rel=1e-10)
            assert superbase_distance_linf(s, reconstruct_superbase(back)) < 1e-6


def test_criterion_9_batch_pipeline_desk_scale(tmp_path):
    with criterion(9, "10,000 ortho3 records: grid shape, conservation, determinism"):
        rng = make_rng(6007)
        sides = rng.uniform(3.0, 25.0, size=(10000, 3))
        src = tmp_path / "ortho.csv"
        src.write_text(
            "".join(
                f"r{i},ortho3,{a:.9f},{b:.9f},{c:.9f}\n"
                for i, (a, b, c) in enumerate(sides)
            )
        )
        outputs = []
        for threads in ("1", "4"):
            csv_path = tmp_path / f"grid{threads}.csv"
            pgm_path = tmp_path / f"grid{threads}.pgm"
            env = dict(os.environ, LATTICE_THREADS=threads)
            proc = subprocess.run(
                [
                    sys.executable, "-m", "rootforms", "grid",
                    "-i", str(src), "-o", str(csv_path), "--pgm", str(pgm_path),
                    "--res", "200",
                ],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((csv_path.read_bytes(), pgm_path.read_bytes()))
        assert outputs[0] == outputs[1]

        lines = outputs[0][0].decode().splitlines()
        assert lines[0] == "0,25,0,25,200"
        rows = [[int(c) for c in ln.split(",")] for ln in lines[1:]]
        assert len(rows) == 200
        total = sum(sum(r) for r in rows)
        assert total == 10000
        # row index rr holds y bin (199 - rr); mass must satisfy r01 <= r02
        for rr, row in enumerate(rows):
            iy = 199 - rr
            for ix, count in enumerate(row):
                if count:
                    assert ix <= iy


def test_criterion_10_inverse_continuity_trend():
    with criterion(10, "alignment distance shrinks with root-form distance"):
        rng = make_rng(7001)
        vals = np.sort(rng.uniform(0.4, 2.0, size=3))
        while vals[1] - vals[0] < 0.15 or vals[2] - vals[1] < 0.15:
            vals = np.sort(rng.uniform(0.4, 2.0, size=3))
        rf0 = RootForm(*vals)
        direction = (0.6, -1.0, 0.8)
        b0 = reconstruct_superbase(rf0)
        dists = []
        delta = 1e-2
        for _ in range(7):
            rf = RootForm(*(r + delta * d for r, d in zip(rf0, direction)))
            assert root_metric(rf0, rf, INF) == pytest.approx(delta, rel=1e-9)
            dists.append(superbase_distance_linf(b0, reconstruct_superbase(rf)))
            delta /= 2.0
        for prev, nxt in zip(dists, dists[1:]):
            assert nxt <= prev * 1.05
        assert dists[-1] < dists[0]
