"""Command line ``--show``: a table asked for more than once prints once."""

import numpy as np
import pytest

from bfreg.cli import main
from conftest import make_two_effect_dataset


@pytest.fixture()
def csv_path(tmp_path):
    data = make_two_effect_dataset()
    path = tmp_path / "toy.csv"
    header = ",".join(data.column_names)
    np.savetxt(path, data.columns, delimiter=",", header=header, comments="")
    return str(path)


def report(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "mode, tables, headers",
    [
        (
            ["test", "--hyp", "x1=x2=0; (x1,x2)>0; x1>x2=0"],
            ("computation", "ci", "bf-matrix"),
            ("Computation table:", "Bayes factors vs. unconstrained", "BF matrix:"),
        ),
        (
            ["exploratory"],
            ("bf-matrix",),
            ("BF matrix for (Intercept):", "BF matrix for x1:", "BF matrix for x2:"),
        ),
    ],
    ids=["test", "exploratory"],
)
def test_repeated_show_prints_each_table_once(capsys, csv_path, mode, tables, headers):
    argv = [*mode, "--data", csv_path, "--formula", "y ~ x1 + x2", "--mcrep", "10000", "--seed", "3"]
    once = report(capsys, [*argv, *(f"--show={t}" for t in tables)])
    twice = report(capsys, [*argv, *(f"--show={t}" for t in tables * 2)])
    assert twice == once
    for header in headers:
        assert twice.count(header) == 1, header
