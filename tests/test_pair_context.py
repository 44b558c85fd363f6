"""One pair context per sweep: the per-pair spectral work runs once, and
every weight's report keeps the verdicts of a separate one-weight run, and
its bits where both solve their checks on one kernel."""

import importlib.util
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from meancert import certify, cli, eigen, means, sandwich
from meancert.cli import EXIT_NUMERICAL, EXIT_PASS, main
from meancert.eigen import (
    DEFAULT_LOEWNER_TOL,
    ROUND_ROBIN_MIN_DIM,
    ROUND_ROBIN_STACK_MIN,
    STACK_MAX_ENTRIES,
    congruence,
    mat_fpow,
)
from meancert.errors import InputError

from test_cli import write_matrix

_SPEC = importlib.util.spec_from_file_location(
    "verdict_parity", Path(__file__).resolve().parent.parent / "tools" / "verdict_parity.py")
verdict_parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(verdict_parity)

# (s0, t0): the ends of the relative spectrum
PAIRS = {"straddle": (0.5, 3.0), "one-sided": (1.5, 6.0)}
V_RANGE = ("-0.5", "1.5", "9")  # step 0.25: 0 and 1 are grid points exactly


def _pair_files(tmp_path, n, regime, seed=21):
    a, b = certify.gen_instance(n, *PAIRS[regime], seed)
    return write_matrix(tmp_path / "a.json", a.mat), write_matrix(tmp_path / "b.json", b.mat)


def _sweep(a_path, b_path, v_range, out):
    return main(["sweep", "--matrix-a", a_path, "--matrix-b", b_path,
                 "--v-range", *v_range, "--out", str(out)])


def assert_same_verdicts(alone: str, row: str, n: int):
    """Two CSV texts of one weight agree as ``tools/verdict_parity.py`` asks:
    every cell exactly, but each ``resid_*`` within its bound and on the same
    side of its tolerance."""
    diff = verdict_parity.compare(*({"n": n, "code": 0, "stdout": text, "stderr": ""}
                                    for text in (alone, row)))
    assert (diff.verdicts, diff.others, diff.out_of_bound) == ([], [], [])


@pytest.fixture
def eig_calls(monkeypatch):
    """(input bytes, vectors) of every eigensolve, through every binding of eig_sym."""
    calls, real = [], eigen.eig_sym

    def spy(x, vectors=True):
        calls.append((np.asarray(x, dtype=float).tobytes(), vectors))
        return real(x, vectors=vectors)

    for mod in (eigen, means, sandwich):
        monkeypatch.setattr(mod, "eig_sym", spy)
    return calls


@pytest.fixture
def kernel_solves(monkeypatch):
    """(kernel, input bytes, vectors) of every solve, counted inside the Jacobi
    kernels, so each matrix of a stacked solve is one solve."""
    solves = []
    real_cyclic, real_round_robin = eigen._jacobi_kernel, eigen._round_robin_kernel

    def cyclic(x, vectors, *args):
        solves.append(("cyclic", x.tobytes(), vectors))
        return real_cyclic(x, vectors, *args)

    def round_robin(a, vectors, *args):
        solves.extend(("round-robin", x.tobytes(), vectors) for x in a)
        return real_round_robin(a, vectors, *args)

    monkeypatch.setattr(eigen, "_jacobi_kernel", cyclic)
    monkeypatch.setattr(eigen, "_round_robin_kernel", round_robin)
    return solves


@pytest.mark.parametrize("regime", list(PAIRS))
@pytest.mark.parametrize("n,v_range", [(4, ("0.25", "1.5", "2")), (4, V_RANGE), (12, V_RANGE),
                                       (16, V_RANGE)],
                         ids=["cyclic-2-weights", "round-robin-stack-n4", "round-robin-stack-n12",
                              "round-robin"])
def test_sweep_rows_are_the_one_weight_reports(tmp_path, n, v_range, regime, kernel_solves,
                                               monkeypatch):
    a_path, b_path = _pair_files(tmp_path, n, regime)
    stacks, real = [], certify._spectrum_ends

    def spy(xs):
        stacks.append(np.shape(xs))
        return real(xs)

    monkeypatch.setattr(certify, "_spectrum_ends", spy)
    out = tmp_path / "sweep.csv"
    assert _sweep(a_path, b_path, v_range, out) == EXIT_PASS
    header, *rows = out.read_text(encoding="utf-8").splitlines(keepends=True)
    weights = list(np.linspace(float(v_range[0]), float(v_range[1]), int(v_range[2])))
    assert len(rows) == len(weights)
    assert v_range != V_RANGE or (0.0 in weights and 1.0 in weights)
    # the grid's checks, of its means and residuals, ran as one stack, on the
    # kernels eigen picks for its dimension and size: below ROUND_ROBIN_MIN_DIM,
    # fewer than ROUND_ROBIN_STACK_MIN one at a time on the cyclic kernel
    (shape,) = stacks
    assert len(shape) == 3 and (shape[0] < ROUND_ROBIN_STACK_MIN) == (len(weights) == 2)
    kernels = Counter(kernel for kernel, _, _ in kernel_solves)
    assert (n >= ROUND_ROBIN_MIN_DIM) == (n == 16)
    if len(weights) == 2:
        assert kernels["round-robin"] == 0
    else:
        assert kernels["round-robin"] >= ROUND_ROBIN_STACK_MIN
    # a one-weight report checks one matrix at a time below ROUND_ROBIN_MIN_DIM, so
    # a round-robin stack there moves the residuals in their last bits only
    same_bits = n >= ROUND_ROBIN_MIN_DIM or len(weights) == 2
    a, b = cli.load_matrix(a_path), cli.load_matrix(b_path)
    for v, row in zip(weights, rows):
        alone = cli.reports_to_csv([cli.certify_pair(a, b, v, DEFAULT_LOEWNER_TOL)])
        if same_bits:
            assert alone == header + row
        else:
            assert_same_verdicts(alone, header + row, n)


def test_sweep_through_a_failing_weight_exits_as_that_check(tmp_path, capsys):
    # B below A: lambda^v underflows at large weights
    a, b = certify.gen_instance(2, 0.2, 0.7, 102)
    a_path = write_matrix(tmp_path / "a.json", a.mat)
    b_path = write_matrix(tmp_path / "b.json", b.mat)
    first_failure = None
    for v in np.linspace(0.0, 1000.0, 5):
        code = main(["check", "--matrix-a", a_path, "--matrix-b", b_path, "--v", str(v)])
        captured = capsys.readouterr()
        if code == EXIT_NUMERICAL:
            first_failure = captured.err
            break
    assert first_failure is not None
    out = tmp_path / "sweep.csv"
    assert _sweep(a_path, b_path, ("0", "1000", "5"), out) == EXIT_NUMERICAL
    assert capsys.readouterr().err == first_failure
    assert not out.exists()


_NOT_PD_AT_18 = ("numerical failure: geometric mean at weight 18.0: matrix is not positive "
                 "definite: smallest eigenvalue 2.444583e-13\n")


@pytest.mark.parametrize("pair,v_range,err", [
    # every weight of the grid is one chunk: weight 18 is judged before weights
    # 19 and 20, whose means fail too
    ("below", ("12", "20", "9"), _NOT_PD_AT_18),
    # weights 509 and 1000 underflow while their means are built, which ends the
    # chunk; weight 18 is judged first
    ("below", ("18", "1000", "3"), _NOT_PD_AT_18),
    # weight 200's mean overflows its norm and weight 300's has entries that are
    # not finite; both errors stay in their places
    ("overflow", ("0", "300", "4"),
     "numerical failure: geometric mean at weight 200.0: matrix Frobenius norm overflowed\n"),
], ids=["not-pd", "not-pd-then-underflow", "overflow-then-not-finite"])
def test_a_sweep_names_the_first_failing_mean(tmp_path, capsys, pair, v_range, err):
    if pair == "below":  # B below A: lambda^v shrinks as v grows
        a, b = (m.mat for m in certify.gen_instance(2, 0.2, 0.7, 102))
    else:
        a, b = 1e20 * np.eye(2), 1e21 * np.eye(2)
    a_path = write_matrix(tmp_path / "a.json", a)
    b_path = write_matrix(tmp_path / "b.json", b)
    out = tmp_path / "sweep.csv"
    assert _sweep(a_path, b_path, v_range, out) == EXIT_NUMERICAL
    assert capsys.readouterr().err == err
    assert not out.exists()


def test_a_grid_that_fails_after_stacked_weights_exits_as_that_check(tmp_path, capsys,
                                                                     kernel_solves):
    # B below A: the geometric mean's smallest eigenvalue falls under the PD
    # margin near v = 17, after weights whose checks were stacked
    a, b = certify.gen_instance(12, 0.2, 0.7, 21)
    a_path = write_matrix(tmp_path / "a.json", a.mat)
    b_path = write_matrix(tmp_path / "b.json", b.mat)
    weights = ("0", "20", "81")  # step 0.25
    first_failure = None
    for v in np.linspace(0.0, 20.0, 81):
        code = main(["check", "--matrix-a", a_path, "--matrix-b", b_path, "--v", str(v)])
        captured = capsys.readouterr()
        if code == EXIT_NUMERICAL:
            first_failure = captured.err
            break
        assert code == EXIT_PASS
    assert first_failure is not None and v > 1.0
    kernel_solves.clear()
    out = tmp_path / "sweep.csv"
    assert _sweep(a_path, b_path, weights, out) == EXIT_NUMERICAL
    assert not out.exists()
    stacked = sum(kernel == "round-robin" for kernel, _, _ in kernel_solves)
    assert stacked >= ROUND_ROBIN_STACK_MIN
    # the same weight and message; the mean's smallest eigenvalue, solved in a
    # round-robin stack, moves within the verdict-parity bound on its PD check's
    # matrix, plus the 7 printed digits' rounding
    text, printed = capsys.readouterr().err.rsplit(" ", 1)
    want_text, want = first_failure.rsplit(" ", 1)
    assert text == want_text and want_text.endswith("smallest eigenvalue")
    mean = means.op_sharp(sandwich.PairContext(a, b), v, checked=False)
    bound = verdict_parity.BOUND_C * a.dim * verdict_parity.EPS * max(1.0, np.linalg.norm(mean))
    assert abs(float(printed) - float(want)) <= bound + 1e-6 * abs(float(want))


def test_a_long_grid_is_checked_in_chunks_within_the_stack_bound(tmp_path, monkeypatch):
    n = 12
    a_path, b_path = _pair_files(tmp_path, n, "straddle")
    chunks, entries = [], []
    real_checks, real_stack = certify._checks, eigen._round_robin_kernel

    def checks(residuals, means, tol_rel, stacked):
        chunks.append(len(residuals) + len(means))
        return real_checks(residuals, means, tol_rel, stacked)

    def round_robin(a, *args):
        entries.append(a.size)
        return real_stack(a, *args)

    monkeypatch.setattr(certify, "_checks", checks)
    monkeypatch.setattr(eigen, "_round_robin_kernel", round_robin)
    out = tmp_path / "sweep.csv"
    assert _sweep(a_path, b_path, ("0", "1", "160"), out) == EXIT_PASS
    # a chunk closes once its residuals and means hold STACK_MAX_ENTRIES
    # entries, and its stack is solved in parts of at most that many
    assert len(chunks) >= 2 and all(k * n * n >= STACK_MAX_ENTRIES for k in chunks[:-1])
    assert entries and max(entries) <= STACK_MAX_ENTRIES
    header, *rows = out.read_text(encoding="utf-8").splitlines(keepends=True)
    a, b = cli.load_matrix(a_path), cli.load_matrix(b_path)
    for v, row in list(zip(np.linspace(0.0, 1.0, 160), rows))[::9]:
        alone = cli.certify_pair(a, b, v, DEFAULT_LOEWNER_TOL)
        assert_same_verdicts(cli.reports_to_csv([alone]), header + row, n)


@pytest.mark.parametrize("k", [1, 5, 21])
def test_sweep_solves_the_relative_spectrum_twice_in_all(tmp_path, kernel_solves, k):
    a_path, b_path = _pair_files(tmp_path, 4, "straddle")
    a, b = cli.load_matrix(a_path), cli.load_matrix(b_path)
    relative = congruence(b.mat, mat_fpow(a, -0.5).mat).tobytes()
    weights = list(np.linspace(-0.5, 1.5, k))
    # the solves of one separate certify_pair per weight, the loads left out
    per_weight = Counter()
    for v in weights:
        kernel_solves.clear()
        cli.certify_pair(a, b, v, DEFAULT_LOEWNER_TOL)
        assert [vec for _, x, vec in kernel_solves if x == relative] == [False, True]
        per_weight.update((x, vec) for _, x, vec in kernel_solves if x != relative)
    kernel_solves.clear()
    assert _sweep(a_path, b_path, ("-0.5", "1.5", str(k)), tmp_path / "s.csv") == EXIT_PASS
    work = [(x, vec) for _, x, vec in kernel_solves]
    loads, work = work[:2], work[2:]
    assert loads == [(a.mat.tobytes(), True), (b.mat.tobytes(), True)]
    assert [vec for x, vec in work if x == relative] == [False, True]
    # the same solves, whichever kernel ran them and in whatever order
    assert Counter(c for c in work if c[0] != relative) == per_weight


@pytest.mark.parametrize("n", [6, 16])
def test_a_check_from_the_crossover_up_solves_c_once(tmp_path, kernel_solves, monkeypatch, n):
    a_path, b_path = _pair_files(tmp_path, n, "straddle")
    a, b = cli.load_matrix(a_path), cli.load_matrix(b_path)
    relative = congruence(b.mat, mat_fpow(a, -0.5).mat).tobytes()
    calls = []
    for name in ("_jacobi_kernel", "_round_robin_kernel"):
        monkeypatch.setattr(eigen, name, lambda *args, spy=getattr(eigen, name), name=name:
                            calls.append(name) or spy(*args))
    kernel_solves.clear()
    assert main(["check", "--matrix-a", a_path, "--matrix-b", b_path, "--v", "0.5",
                 "--out", str(tmp_path / "report.json")]) == EXIT_PASS
    solves_of_c = [vec for _, x, vec in kernel_solves if x == relative]
    if n < ROUND_ROBIN_MIN_DIM:
        # the sandwich keeps its own eigenvalues-only solve of C
        assert solves_of_c == [False, True] and "_round_robin_kernel" not in calls
        return
    # [A, B], [C with vectors], [the means and residuals]: 3 kernel calls
    assert solves_of_c == [True]
    assert calls == ["_round_robin_kernel"] * 3
    assert kernel_solves[:3] == [("round-robin", a.mat.tobytes(), True),
                                 ("round-robin", b.mat.tobytes(), True),
                                 ("round-robin", relative, True)]
    assert not any(vec for _, _, vec in kernel_solves[3:])


@pytest.fixture
def congruences(monkeypatch):
    """Every congruence the sandwich module forms: C = A^(-1/2) B A^(-1/2) is its only one."""
    calls, real = [], sandwich.congruence

    def spy(x, c):
        calls.append((np.asarray(x, dtype=float).tobytes(), np.asarray(c, dtype=float).tobytes()))
        return real(x, c)

    monkeypatch.setattr(sandwich, "congruence", spy)
    return calls


def test_sandwich_then_relative_spectrum_form_c_once(congruences):
    a, b = certify.gen_instance(4, *PAIRS["straddle"], 21)
    pair = sandwich.PairContext(a, b)
    assert congruences == []
    pair.sandwich
    assert congruences == [(b.mat.tobytes(), mat_fpow(a, -0.5).mat.tobytes())]
    pair.relative
    assert len(congruences) == 1


@pytest.mark.parametrize("k", [1, 5, 21])
def test_sweep_forms_c_once_in_all(tmp_path, congruences, k):
    a_path, b_path = _pair_files(tmp_path, 4, "straddle")
    assert _sweep(a_path, b_path, ("-0.5", "1.5", str(k)), tmp_path / "s.csv") == EXIT_PASS
    assert len(congruences) == 1


def test_making_a_context_solves_nothing(eig_calls):
    a, b = certify.gen_instance(3, 0.5, 3.0, 4)
    eig_calls.clear()
    pair = sandwich.PairContext(a, b)
    assert eig_calls == []
    assert pair.relative is pair.relative
    assert eig_calls == [(congruence(b.mat, mat_fpow(a, -0.5).mat).tobytes(), True)]


@pytest.mark.parametrize("v,tol,message", [
    (float("nan"), DEFAULT_LOEWNER_TOL, "weight v must be finite, got nan"),
    (0.5, -1.0, "tolerance must be finite and >= 0, got -1.0"),
])
def test_argument_checks_run_before_any_eigensolve(eig_calls, v, tol, message):
    # a dimension mismatch would be found by the first solve, so it is not reported
    a, b = certify.gen_instance(2, 0.5, 3.0, 4)[0], certify.gen_instance(3, 0.5, 3.0, 4)[1]
    eig_calls.clear()
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        cli.certify_pair(a, b, v, tol)
    assert eig_calls == []


def test_sweep_builds_each_power_of_a_once(tmp_path, monkeypatch):
    # A^(-1/2) serves both the sandwich's solve and the relative spectrum's
    powers, real = [], sandwich.mat_fpow

    def spy(x, p):
        powers.append(p)
        return real(x, p)

    monkeypatch.setattr(sandwich, "mat_fpow", spy)
    a_path, b_path = _pair_files(tmp_path, 4, "straddle")
    assert _sweep(a_path, b_path, ("-0.5", "1.5", "5"), tmp_path / "s.csv") == EXIT_PASS
    assert powers == [-0.5, 0.5]


def test_mismatched_dimensions_raise_before_any_eigensolve(eig_calls):
    a, b = certify.gen_instance(2, 0.5, 3.0, 4)[0], certify.gen_instance(3, 0.5, 3.0, 4)[1]
    eig_calls.clear()
    for part in ("sandwich", "relative"):
        with pytest.raises(InputError, match="^dimension mismatch: 2 vs 3$"):
            getattr(sandwich.PairContext(a, b), part)
    with pytest.raises(InputError, match="^dimension mismatch: 2 vs 3$"):
        cli.certify_pair(a, b, 0.5, DEFAULT_LOEWNER_TOL)
    assert eig_calls == []
