"""The pair loader of ``check`` and ``sweep``: both matrices from one solve
pass, with the bits and the first error of ``load_matrix`` of A, then of B."""

import argparse
import re

import numpy as np
import pytest

from meancert import certify, cli, eigen
from meancert.cli import EXIT_INPUT, EXIT_NUMERICAL, main
from meancert.errors import InputError, NumericalError

from test_cli import write_matrix


def load_pair(a_path, b_path):
    return cli._load_pair(argparse.Namespace(matrix_a=a_path, matrix_b=b_path))


@pytest.fixture
def round_robin_calls(monkeypatch):
    """The stack size of each round-robin kernel call."""
    calls, real = [], eigen._round_robin_kernel

    def spy(a, *args):
        calls.append(len(a))
        return real(a, *args)

    monkeypatch.setattr(eigen, "_round_robin_kernel", spy)
    return calls


@pytest.mark.parametrize("n", [14, 15, 16, 17, 32])
def test_the_pair_has_the_bits_of_two_loads(tmp_path, n, round_robin_calls):
    a, b = certify.gen_instance(n, 0.5, 3.0, 40 + n)
    a_path = write_matrix(tmp_path / "a.json", a.mat)
    b_path = write_matrix(tmp_path / "b.json", b.mat)
    round_robin_calls.clear()
    pair = load_pair(a_path, b_path)
    # from ROUND_ROBIN_MIN_DIM up both matrices are one round-robin stack
    assert round_robin_calls == ([2] if n >= eigen.ROUND_ROBIN_MIN_DIM else [])
    for got, want in zip(pair, (cli.load_matrix(a_path), cli.load_matrix(b_path))):
        assert isinstance(got, eigen.SymPDMatrix) and got.dim == n
        for name in ("mat", "eigenvalues", "eigenvectors"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def two_loads(args):
    return cli.load_matrix(args.matrix_a), cli.load_matrix(args.matrix_b)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


N = 16
SPD = certify.gen_instance(N, 0.5, 3.0, 61)[0].mat
NOT_PD = np.diag(np.linspace(-1.0, 1.0, N))
ASYMMETRIC = SPD + np.triu(np.ones((N, N)), 1)
OVERFLOWS = np.full((N, N), 1e200)  # finite and symmetric, but its norm overflows
SMALLER = certify.gen_instance(N - 1, 0.5, 3.0, 62)[0].mat


@pytest.mark.parametrize("a,b,code,message", [
    (NOT_PD, None, EXIT_INPUT, "{a}: matrix is not positive definite"),
    (SPD, NOT_PD, EXIT_INPUT, "{b}: matrix is not positive definite"),
    (NOT_PD, NOT_PD, EXIT_INPUT, "{a}: matrix is not positive definite"),
    (ASYMMETRIC, None, EXIT_INPUT, "{a}: matrix is not symmetric"),
    (SPD, ASYMMETRIC, EXIT_INPUT, "{b}: matrix is not symmetric"),
    (OVERFLOWS, None, EXIT_NUMERICAL, "matrix Frobenius norm overflowed"),
    (SPD, OVERFLOWS, EXIT_NUMERICAL, "matrix Frobenius norm overflowed"),
    (SPD, None, EXIT_INPUT, "{b}: No such file or directory"),
    (SPD, SMALLER, EXIT_INPUT, "dimension mismatch: 16 vs 15"),
], ids=["a-not-pd-b-missing", "b-not-pd", "both-not-pd", "a-asymmetric-b-missing",
        "b-asymmetric", "a-overflows-b-missing", "b-overflows", "b-missing", "mismatch"])
@pytest.mark.parametrize("command", ["check", "sweep"])
def test_the_first_error_is_that_of_two_loads(tmp_path, capsys, monkeypatch, command,
                                              a, b, code, message):
    paths = {"a": write_matrix(tmp_path / "a.json", a),
             "b": str(tmp_path / "missing.json") if b is None
             else write_matrix(tmp_path / "b.json", b)}
    argv = [command, "--matrix-a", paths["a"], "--matrix-b", paths["b"],
            *(["--v", "0.5"] if command == "check" else ["--v-range", "0", "1", "3"])]
    got = run(argv, capsys)
    assert got[0] == code and got[1] == ""
    prefix = "error: " if code == EXIT_INPUT else "numerical failure: "
    assert got[2].startswith(prefix + message.format(**paths))
    monkeypatch.setattr(cli, "_load_pair", two_loads)
    assert run(argv, capsys) == got


def test_an_unconverged_a_is_raised_before_a_missing_b(tmp_path, capsys, monkeypatch):
    a_path = write_matrix(tmp_path / "a.json", SPD)
    b_path = str(tmp_path / "missing.json")
    monkeypatch.setattr(eigen, "MAX_SWEEPS", 0)
    with pytest.raises(NumericalError, match="^Jacobi eigensolver did not converge"):
        load_pair(a_path, b_path)
    argv = ["check", "--matrix-a", a_path, "--matrix-b", b_path, "--v", "0.5"]
    assert run(argv, capsys) == (
        EXIT_NUMERICAL, "",
        "numerical failure: Jacobi eigensolver did not converge within 0 sweeps\n")


def test_a_valid_a_and_a_missing_b_raise_the_file_error(tmp_path):
    a_path = write_matrix(tmp_path / "a.json", SPD)
    b_path = str(tmp_path / "missing.json")
    with pytest.raises(InputError, match=f"^{re.escape(b_path)}: No such file or directory$"):
        load_pair(a_path, b_path)
