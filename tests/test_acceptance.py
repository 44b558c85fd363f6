"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Ensembles are seeded and deterministic.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from meancert import cli, scalars as sc
from meancert.certify import (
    catalog,
    compare_constants,
    gen_box_instance,
    gen_instance,
    verify,
)
from meancert.eigen import SymPDMatrix, eig_sym, loewner_geq_zero
from meancert.means import op_harm, op_nabla, op_sharp
from meancert.sandwich import PairContext, SpectralBox

TOL = 1e-9
V_GRID = np.linspace(0.0, 1.0, 11)


def report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}{': ' + detail if detail else ''}")
    assert ok, f"criterion {num} failed: {detail}"


def random_pd(rng, n, lo=0.1, hi=10.0):
    if n == 1:
        return SymPDMatrix([[float(np.exp(rng.uniform(np.log(lo), np.log(hi))))]])
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    evals = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    return SymPDMatrix((q * evals) @ q.T)


def regime_scalars(rng, regime):
    if regime == "below":
        pair = np.exp(rng.uniform(np.log(0.05), np.log(1.0), 2))
    elif regime == "above":
        pair = np.exp(rng.uniform(np.log(1.0), np.log(20.0), 2))
    else:
        return (float(np.exp(rng.uniform(np.log(0.05), np.log(0.95)))),
                float(np.exp(rng.uniform(np.log(1.05), np.log(20.0)))))
    return float(np.min(pair)), float(np.max(pair))


def regime_ensemble(regime, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        s0, t0 = regime_scalars(rng, regime)
        dim = int(rng.integers(2, 7))
        out.append(gen_instance(dim, s0, t0, int(rng.integers(2 ** 63))))
    return out


@pytest.fixture(scope="module")
def warm_solver():
    eig_sym(np.eye(2))  # trigger jit compilation outside any timed section


def test_criterion_1_mean_chain(warm_solver):
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 9))
        a, b = random_pd(rng, n), random_pd(rng, n)
        for v in V_GRID:
            nab = op_nabla(a, b, v)
            shp = op_sharp(PairContext(a, b), v)
            hrm = op_harm(PairContext(a, b), v)
            ok &= loewner_geq_zero(nab - shp, TOL).holds
            ok &= loewner_geq_zero(shp - hrm, TOL).holds
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(1, ok, f"mean chain on 200 pairs, runtime {elapsed:.2f}s")


def test_criterion_2_sharp_multiplicative_bounds(warm_solver):
    ok = True
    for regime, seed in (("below", 1), ("above", 2)):
        for a, b in regime_ensemble(regime, 100, seed):
            sw = PairContext(a, b).sandwich
            for v in V_GRID:
                shp = op_sharp(PairContext(a, b), v)
                nab = op_nabla(a, b, v)
                if regime == "below":
                    lo, hi = sc.f_v(sw.t, v), sc.f_v(sw.s, v)
                else:
                    lo, hi = sc.f_v(sw.s, v), sc.f_v(sw.t, v)
                ok &= loewner_geq_zero(nab - lo * shp, TOL).holds
                ok &= loewner_geq_zero(hi * shp - nab, TOL).holds
    # sharpness: with B an exact scalar multiple the lower bound is attained
    rng = np.random.default_rng(3)
    worst = 0.0
    for t0, below in [(0.3, True), (0.8, True), (1.0, True), (1.7, False), (4.0, False)]:
        a = random_pd(rng, 4)
        b = SymPDMatrix(t0 * a.mat)
        for v in V_GRID:
            shp = op_sharp(PairContext(a, b), v)
            nab = op_nabla(a, b, v)
            residual = nab - sc.f_v(t0, v) * shp
            gap = abs(loewner_geq_zero(residual).min_eig)
            worst = max(worst, gap / np.linalg.norm(nab))
    ok &= worst <= 1e-10
    report(2, ok, f"two-sided multiplicative bounds; sharpness gap {worst:.2e}")


def test_criterion_3_equality_witness(warm_solver):
    ok = True
    worst = 0.0
    for amat, bmat, m, M in [
        (4.0 * np.eye(3), np.eye(3), 1.0, 4.0),   # A = MI, B = mI
        (np.eye(3), 4.0 * np.eye(3), 1.0, 4.0),   # A = mI, B = MI
    ]:
        a, b = SymPDMatrix(amat), SymPDMatrix(bmat)
        for v in (0.25, 0.5, 0.75):
            if amat[0, 0] > bmat[0, 0]:
                const = sc.scalar_nabla(M, m, v) / sc.scalar_sharp(M, m, v)
            else:
                const = sc.scalar_nabla(m, M, v) / sc.scalar_sharp(m, M, v)
            residual = const * op_sharp(PairContext(a, b), v) - op_nabla(a, b, v)
            worst = max(worst, float(np.linalg.norm(residual)))
    ok &= worst <= 1e-12
    report(3, ok, f"scalar-pair equality witnesses, worst Frobenius gap {worst:.2e}")


def test_criterion_4_additive_bounds(warm_solver):
    ok = True
    for regime, seed in (("below", 4), ("above", 5), ("straddle", 6)):
        for a, b in regime_ensemble(regime, 100, seed):
            sw = PairContext(a, b).sandwich
            for v in V_GRID:
                gap = op_nabla(a, b, v) - op_sharp(PairContext(a, b), v)
                hi = max(sc.g_v(sw.s, v), sc.g_v(sw.t, v))
                ok &= loewner_geq_zero(hi * a.mat - gap, TOL).holds
                if regime != "straddle":
                    lo = sc.g_v(sw.t if regime == "below" else sw.s, v)
                    ok &= loewner_geq_zero(gap - lo * a.mat, TOL).holds
    report(4, ok, "additive bounds on below/above/straddle ensembles")


def test_criterion_5_tominaga_improvement():
    hs = np.logspace(np.log10(1 + 1e-3), 2, 200)
    vs = np.arange(0.05, 0.951, 0.05)
    worst = -math.inf
    for h in hs:
        limit = sc.tominaga_additive(h)
        for v in vs:
            worst = max(worst, max(sc.g_v(h, v), sc.g_v(1 / h, v)) - limit)
    ok = worst <= 1e-12
    report(5, ok, f"endpoint gap max stays under the log-Specht reverse "
                  f"(worst excess {worst:.2e})")


def test_criterion_6_constant_hierarchy():
    hs = np.logspace(np.log10(1 + 1e-3), 2, 200)
    vs = np.arange(0.05, 0.951, 0.05)
    hierarchy_ok = True
    for h in hs:
        for v in vs:
            spc, zuo, f = sc.specht_constant(h, v), sc.zuo_constant(h, v), sc.f_v(h, v)
            hierarchy_ok &= spc <= zuo + 1e-12
            hierarchy_ok &= zuo <= f + 1e-12
        hierarchy_ok &= abs(sc.f_v(h, 0.5) - sc.zuo_constant(h, 0.5)) <= 1e-13
    rows = [compare_constants(h, v) for h in hs for v in vs]
    saw_lt = any(r["dragomir_vs_zuo"] == "lt" for r in rows)
    saw_gt = any(r["dragomir_vs_zuo"] == "gt" for r in rows)
    ok = hierarchy_ok and saw_lt and saw_gt
    report(6, ok, f"hierarchy {'ok' if hierarchy_ok else 'violated'}; "
                  f"dragomir<zuo seen: {saw_lt}; dragomir>zuo seen: {saw_gt}")


# both cases of the box hypothesis: A below B, then B below A
LOW, HIGH = (0.4, 1.0), (2.5, 6.0)
EXT_BOXES = (SpectralBox(LOW, HIGH), SpectralBox(HIGH, LOW))


def box_ensemble(box, count, seed):
    rng = np.random.default_rng(seed)
    return [gen_box_instance(int(rng.integers(2, 7)), box, int(rng.integers(2 ** 63)))
            for _ in range(count)]


def test_criterion_7_extended_weights(warm_solver):
    ok = True
    for box, seed in zip(EXT_BOXES, (7, 8)):
        for a, b in box_ensemble(box, 100, seed):
            sw = PairContext(a, b).sandwich
            for v in (-0.5, 1.5, 2.0):
                bounds = catalog(sw, v, spectral_box=box)
                rep = verify(PairContext(a, b), v, bounds, TOL)
                ok &= rep.overall_pass
                # reversed chain holds outright
                diff = op_sharp(PairContext(a, b), v) - op_nabla(a, b, v)
                ok &= loewner_geq_zero(diff, TOL).holds
    # general instances: the endpoint-minimum lower bound
    rng = np.random.default_rng(9)
    for _ in range(50):
        s0, t0 = sorted(np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2)))
        a, b = gen_instance(4, float(s0), float(t0), int(rng.integers(2 ** 63)))
        sw = PairContext(a, b).sandwich
        for v in (-0.5, 1.5, 2.0):
            gap = op_nabla(a, b, v) - op_sharp(PairContext(a, b), v)
            lo = min(sc.g_v(sw.s, v), sc.g_v(sw.t, v))
            ok &= loewner_geq_zero(gap - lo * a.mat, TOL).holds
    report(7, ok, "extended-weight reversed chain, box bounds, endpoint minimum")


def test_criterion_8_harmonic_bounds(warm_solver):
    ok = True
    for box, seed in zip(EXT_BOXES, (10, 11)):
        for a, b in box_ensemble(box, 100, seed):
            sw = PairContext(a, b).sandwich
            for v in (0.1, 0.25, 0.5, 0.75, 0.9):
                rep = verify(PairContext(a, b), v, catalog(sw, v), TOL)
                res = {r.statement.name: r for r in rep.results}
                ok &= res["harm.lower"].verdict.holds
                ok &= res["harm.upper"].verdict.holds
    report(8, ok, "geometric-harmonic bounds on both box ensembles")


def test_criterion_9_scalar_reduction(warm_solver):
    ok = True
    rng = np.random.default_rng(12)
    for _ in range(100):
        av, bv = np.exp(rng.uniform(-2, 2, 2))
        v = rng.uniform(0, 1)
        a, b = SymPDMatrix([[av]]), SymPDMatrix([[bv]])
        pairs = [
            (op_nabla(a, b, v)[0, 0], sc.scalar_nabla(av, bv, v)),
            (op_sharp(PairContext(a, b), v)[0, 0], sc.scalar_sharp(av, bv, v)),
            (op_harm(PairContext(a, b), v)[0, 0], sc.scalar_harm(av, bv, v)),
        ]
        ok &= all(abs(x - y) <= 1e-14 * max(1.0, abs(y)) for x, y in pairs)
        sw = PairContext(a, b).sandwich
        ok &= abs(sw.s - bv / av) <= 1e-12 * (bv / av)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        x = rng.standard_normal((n, n))
        x = x + x.T
        dec = eig_sym(x)
        nx = max(np.linalg.norm(x), 1e-300)
        ok &= np.linalg.norm(dec.apply(dec.eigenvalues) - x) <= 1e-10 * nx
        ok &= np.linalg.norm(dec.basis.T @ dec.basis - np.eye(n)) <= 1e-10
    report(9, ok, "1x1 reduction to scalar arithmetic; eigensolver accuracy")


def test_criterion_10_cli_contract(tmp_path, capsys, monkeypatch):
    def write(name, data):
        arr = np.asarray(data, dtype=float)
        p = tmp_path / name
        p.write_text(json.dumps({"dim": arr.shape[0],
                                 "data": [[float(x) for x in r] for r in arr]}))
        return str(p)

    a = write("a.json", np.diag([2.0, 3.0]))
    b = write("b.json", np.diag([1.0, 6.0]))
    ok = True

    # exit 0 and golden report/CSV shapes
    ok &= cli.main(["check", "--matrix-a", a, "--matrix-b", b, "--v", "0.5"]) == 0
    obj = json.loads(capsys.readouterr().out)
    ok &= list(obj.keys()) == ["instance", "bounds", "comparison", "findings",
                               "overall_pass"]
    ok &= cli.main(["sweep", "--matrix-a", a, "--matrix-b", b,
                    "--v-range", "0", "1", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    ok &= lines[0] == ",".join(cli.csv_header()) and len(lines) == 4

    # exit 1 via a deliberately falsified constant
    real_catalog = cli.catalog

    def tampered(sw, v, **kwargs):
        return [replace(s_, constant=s_.constant * 2)
                if s_.name == "young.classical" else s_
                for s_ in real_catalog(sw, v, **kwargs)]

    monkeypatch.setattr(cli, "catalog", tampered)
    ok &= cli.main(["check", "--matrix-a", a, "--matrix-b", b, "--v", "0.5"]) == 1
    monkeypatch.undo()
    capsys.readouterr()

    # exit 2 on a malformed file
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    ok &= cli.main(["check", "--matrix-a", a, "--matrix-b", str(bad),
                    "--v", "0.5"]) == 2

    # exit 3 on an eigensolver overflow from a pathological input
    big = 8e307
    huge = write("huge.json", [[big, big], [big, -big]])
    ok &= cli.main(["check", "--matrix-a", huge, "--matrix-b", huge,
                    "--v", "0.5"]) == 3
    capsys.readouterr()
    report(10, ok, "exit codes 0/1/2/3 and golden output shapes")
