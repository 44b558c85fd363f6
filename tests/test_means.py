import numpy as np
import pytest

from meancert import eigen, means, sandwich
from meancert import scalars as sc
from meancert.eigen import SymPDMatrix, loewner_geq_zero, mat_fpow
from meancert.errors import DomainError, InputError
from meancert.means import op_harm, op_nabla, op_sharp
from meancert.sandwich import PairContext

from test_eigen import random_pd


@pytest.mark.parametrize("call", [
    lambda a, b: PairContext(a, b).sandwich,
    lambda a, b: op_sharp(PairContext(a, b), 0.5),
    lambda a, b: op_harm(PairContext(a, b), 0.5),
], ids=["sandwich_of", "op_sharp", "op_harm"])
def test_dim_mismatch_is_input_error(call):
    with pytest.raises(InputError, match=r"^dimension mismatch: 2 vs 3$"):
        call(SymPDMatrix(np.eye(2)), SymPDMatrix(np.eye(3)))


@pytest.mark.parametrize("call,wants", [
    (lambda a, b: loewner_geq_zero(a.mat - b.mat), [False]),
    (lambda a, b: PairContext(a, b).sandwich, [False]),
    (lambda a, b: PairContext(a, b).relative, [True]),
    # relative spectrum, then the mean's PD check
    (lambda a, b: op_sharp(PairContext(a, b), 0.5), [True, False]),
    (lambda a, b: op_harm(PairContext(a, b), 0.5), [True, False]),
    (lambda a, b: SymPDMatrix(a.mat), [True]),
], ids=["loewner_geq_zero", "sandwich_of", "relative_spectrum", "op_sharp", "op_harm",
        "SymPDMatrix"])
def test_only_loewner_checks_sandwich_ends_and_mean_pd_checks_skip_eigenvectors(call, wants,
                                                                               monkeypatch):
    rng = np.random.default_rng(9)
    a, b = random_pd(rng, 4), random_pd(rng, 4)
    real, asked = eigen.eig_sym, []

    def spy(x, vectors=True):
        asked.append(vectors)
        return real(x, vectors=vectors)

    for mod in (eigen, means, sandwich):  # every binding of eig_sym
        monkeypatch.setattr(mod, "eig_sym", spy)
    call(a, b)
    assert asked == wants


class TestOpNabla:
    def test_diagonal_midpoint(self):
        a = SymPDMatrix(np.diag([1.0, 4.0]))
        b = SymPDMatrix(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(op_nabla(a, b, 0.5), 2.5 * np.eye(2))

    def test_zero_weight_returns_a(self):
        rng = np.random.default_rng(0)
        a, b = random_pd(rng, 4), random_pd(rng, 4)
        np.testing.assert_array_equal(op_nabla(a, b, 0.0), a.mat)

    def test_scalar_identity_pair(self):
        a = SymPDMatrix(4.0 * np.eye(3))
        b = SymPDMatrix(np.eye(3))
        np.testing.assert_allclose(op_nabla(a, b, 0.5), 2.5 * np.eye(3))

    def test_dim_mismatch(self):
        with pytest.raises(InputError):
            op_nabla(SymPDMatrix(np.eye(2)), SymPDMatrix(np.eye(3)), 0.5)


class TestOpSharp:
    def test_identity_left_collapses_to_power(self):
        rng = np.random.default_rng(1)
        b = random_pd(rng, 4)
        for v in (0.3, 0.5, 2.0):
            np.testing.assert_allclose(
                op_sharp(PairContext(SymPDMatrix(np.eye(4)), b), v),
                mat_fpow(b, v).mat, rtol=1e-10, atol=1e-10)

    def test_commuting_diagonal_oracle(self):
        a = SymPDMatrix(np.diag([1.0, 4.0]))
        b = SymPDMatrix(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(op_sharp(PairContext(a, b), 0.5), 2.0 * np.eye(2),
                                   atol=1e-12)

    def test_commuting_random_diagonal(self):
        rng = np.random.default_rng(2)
        for v in (0.0, 0.25, 0.8, 1.0, 1.5, -0.5):
            da = np.exp(rng.uniform(-1, 1, 5))
            db = np.exp(rng.uniform(-1, 1, 5))
            got = op_sharp(PairContext(SymPDMatrix(np.diag(da)), SymPDMatrix(np.diag(db))), v)
            want = np.diag(da ** (1 - v) * db ** v)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_scalar_identity_pair(self):
        a = SymPDMatrix(4.0 * np.eye(3))
        b = SymPDMatrix(np.eye(3))
        np.testing.assert_allclose(op_sharp(PairContext(a, b), 0.5), 2.0 * np.eye(3),
                                   atol=1e-12)

    def test_weight_endpoints(self):
        rng = np.random.default_rng(3)
        a, b = random_pd(rng, 5), random_pd(rng, 5)
        for v, want in ((0.0, a.mat), (1.0, b.mat)):
            got = op_sharp(PairContext(a, b), v)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


class TestOpHarm:
    def test_equal_matrices(self):
        rng = np.random.default_rng(4)
        a = random_pd(rng, 4)
        got = op_harm(PairContext(a, a), 0.37)
        assert np.linalg.norm(got - a.mat) <= 1e-12 * np.linalg.norm(a.mat)

    def test_diagonal_oracle(self):
        a = SymPDMatrix(np.diag([1.0, 4.0]))
        b = SymPDMatrix(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(op_harm(PairContext(a, b), 0.5), 1.6 * np.eye(2),
                                   rtol=1e-13)

    def test_zero_weight_returns_a(self):
        rng = np.random.default_rng(5)
        a, b = random_pd(rng, 3), random_pd(rng, 3)
        got = op_harm(PairContext(a, b), 0.0)
        assert np.linalg.norm(got - a.mat) <= 1e-11 * np.linalg.norm(a.mat)

    @pytest.mark.parametrize("n", [4, 16], ids=["cyclic", "round_robin"])
    @pytest.mark.parametrize("v", [0.0, 1.0])
    def test_weight_ends_have_the_geometric_means_bytes(self, n, v):
        # l / ((1-v)l + v) is exactly 1 and l there, as l^v is
        rng = np.random.default_rng(n)
        pair = PairContext(random_pd(rng, n), random_pd(rng, n))
        assert op_harm(pair, v).tobytes() == op_sharp(pair, v).tobytes()

    def test_rejects_extended_weight(self):
        a = SymPDMatrix(np.eye(2))
        with pytest.raises(DomainError):
            op_harm(PairContext(a, a), 1.5)


class TestMeanChain:
    def test_operator_chain(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            a, b = random_pd(rng, n), random_pd(rng, n)
            for v in np.linspace(0, 1, 11):
                nab = op_nabla(a, b, v)
                shp = op_sharp(PairContext(a, b), v)
                hrm = op_harm(PairContext(a, b), v)
                assert loewner_geq_zero(nab - shp, 1e-9).holds
                assert loewner_geq_zero(shp - hrm, 1e-9).holds

    def test_reversed_chain_extended_weights(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            a, b = random_pd(rng, n), random_pd(rng, n)
            for v in (-0.5, 1.5, 2.0):
                diff = op_sharp(PairContext(a, b), v) - op_nabla(a, b, v)
                assert loewner_geq_zero(diff, 1e-9).holds

    def test_scalar_reduction_1x1(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            av, bv = np.exp(rng.uniform(-2, 2, 2))
            v = rng.uniform(0, 1)
            a, b = SymPDMatrix([[av]]), SymPDMatrix([[bv]])
            assert op_nabla(a, b, v)[0, 0] == pytest.approx(
                sc.scalar_nabla(av, bv, v), rel=1e-14)
            assert op_sharp(PairContext(a, b), v)[0, 0] == pytest.approx(
                sc.scalar_sharp(av, bv, v), rel=1e-14)
            assert op_harm(PairContext(a, b), v)[0, 0] == pytest.approx(
                sc.scalar_harm(av, bv, v), rel=1e-14)
