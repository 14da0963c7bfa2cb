"""Command line behavior: exit codes, text layout, JSON schema, seeds."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bfreg import Dataset
from bfreg.cli import _ci_places, main
from conftest import make_k5_dataset, make_two_effect_dataset
from dump_outputs import _badly_scaled_chain, _underflow_csv

# Exact Bayes factors for the all-analytic pair "x1=x2=0; x1>x2=0" on
# the two-effect dataset; the complement is the unit factor because no
# stated hypothesis is inequality-only.  Frozen independently.
BF_EQ = 0.3825498458570321
BF_MIXED = 10.060613733940691
ANALYTIC_HYP = "x1=x2=0; x1>x2=0"
# Three rows of rank 3 off the posterior's location at df 17, below the
# trivariate rule's cut-over: a lattice estimate.
RANK3_HYP = "(Intercept)>x1>x2>0"
README_HYP = "x1=x2=0; (x1,x2)>0; x1>x2=0"


def write_csv(path, data, delimiter=","):
    names = data.column_names
    lines = [delimiter.join(names)]
    for row in data.columns:
        lines.append(delimiter.join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture()
def csv_path(tmp_path):
    return write_csv(tmp_path / "toy.csv", make_two_effect_dataset())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def base_test_args(csv_path, hyp, *extra):
    return (
        "test",
        "--data",
        csv_path,
        "--formula",
        "y ~ x1 + x2",
        "--hyp",
        hyp,
        "--mcrep",
        "10000",
        "--seed",
        "3",
        *extra,
    )


class TestTextOutput:
    def test_hypotheses_block_and_rounded_probabilities(self, capsys, csv_path):
        code, out, err = run_cli(
            capsys, *base_test_args(csv_path, ANALYTIC_HYP)
        )
        assert code == 0
        assert err == ""
        assert "Hypotheses:" in out
        assert '  H1:   "x1=x2=0"' in out
        assert '  H2:   "x1>x2=0"' in out
        assert '  Hc:   "Not H1-H2"' in out
        assert "Posterior probability of each hypothesis (rounded):" in out
        probs = np.array([BF_EQ, BF_MIXED, 1.0])
        probs = probs / probs.sum()
        for lab, p in zip(("H1", "H2", "Hc"), probs):
            assert f"  {lab}:   {p:.3f}" in out

    def test_monte_carlo_probabilities_close_to_reference(
        self, capsys, csv_path
    ):
        code, out, err = run_cli(
            capsys,
            "test",
            "--data",
            csv_path,
            "--formula",
            "y ~ x1 + x2",
            "--hyp",
            "x1=x2=0; (x1,x2)>0; x1>x2=0",
            "--mcrep",
            "1000000",
            "--seed",
            "42",
        )
        assert code == 0
        got = dict(re.findall(r"(H\w+):\s+(\d\.\d{3})", out))
        reference = {"H1": 0.029, "H2": 0.165, "H3": 0.760, "Hc": 0.046}
        for lab, want in reference.items():
            assert abs(float(got[lab]) - want) < 0.003, (lab, got)

    def test_computation_table_marks_missing_factors_na(
        self, capsys, csv_path
    ):
        code, out, _ = run_cli(
            capsys,
            *base_test_args(csv_path, ANALYTIC_HYP, "--show", "computation"),
        )
        assert code == 0
        assert "Computation table:" in out
        for header in ("c(E)", "c(I|E)", "f(E)", "f(I|E)", "B(t,u)", "PP(t)"):
            assert header in out
        h1_row = next(l for l in out.splitlines() if l.startswith("H1 "))
        # no inequality part: the conditional cells and both products
        # that would include them are NA
        assert h1_row.split().count("NA") == 4

    def test_ci_table_notes_exact_results(self, capsys, csv_path):
        code, out, _ = run_cli(
            capsys, *base_test_args(csv_path, ANALYTIC_HYP, "--show", "ci")
        )
        assert code == 0
        assert "90% credibility interval" in out
        assert "(all Bayes factors are exact; no Monte Carlo error)" in out
        h2_row = next(l for l in out.splitlines() if l.startswith("H2 "))
        assert h2_row.split()[1:] == [f"{BF_MIXED:.3f}", "NA", "NA"]

    def test_ci_table_has_bounds_for_monte_carlo_path(self, capsys, csv_path):
        """Rows of rank 3 take the lattice; two rows would be exact."""
        code, out, _ = run_cli(
            capsys,
            *base_test_args(csv_path, RANK3_HYP, "--show", "ci"),
        )
        assert code == 0
        assert "(all Bayes factors are exact" not in out
        h1_row = next(l for l in out.splitlines() if l.startswith("H1 "))
        cells = h1_row.split()[1:]
        assert "NA" not in cells
        lb, ub = float(cells[1]), float(cells[2])
        assert lb < float(cells[0]) < ub

    @pytest.mark.filterwarnings("ignore::bfreg.errors.ConstraintCenterWarning")
    def test_ci_table_notes_no_exactness_beside_an_inexact_zero(self, capsys, tmp_path):
        """H3's posterior factor is a lattice estimate that reads 0: its
        interval is NA, but it is not exact, so the note must not say all
        factors are.  H1 and H2 are exact and no complement is added (the
        union's inexact prior center still warns as Hc)."""
        path = write_csv(tmp_path / "k5.csv", make_k5_dataset())
        argv = [
            "test", "--data", path, "--formula", "y ~ x1 + x2 + x3 + x4",
            "--hyp", "x1>0; x1<0; x1>x2>x3>30", "--mcrep", "40000", "--seed", "1",
        ]
        code, out, _ = run_cli(capsys, *argv, "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert [c["label"] for c in doc["bf_unconstrained"]] == ["H1", "H2", "H3"]
        h3 = doc["bf_unconstrained"][2]
        assert h3["f_ie"]["value"] == 0.0 and not h3["f_ie"]["exact"]
        assert h3["ci90"] is None
        code, out, _ = run_cli(capsys, *argv, "--show", "ci")
        assert code == 0
        assert "90% credibility interval" in out
        assert "(all Bayes factors are exact" not in out

    def test_bf_matrix_table(self, capsys, csv_path):
        code, out, _ = run_cli(
            capsys,
            *base_test_args(csv_path, ANALYTIC_HYP, "--show", "bf-matrix"),
        )
        assert code == 0
        assert "BF matrix:" in out
        h2_row = next(
            l
            for l in out.splitlines()[out.splitlines().index("BF matrix:") :]
            if l.startswith("H2 ")
        )
        cells = h2_row.split()[1:]
        assert float(cells[0]) == pytest.approx(BF_MIXED / BF_EQ, abs=0.001)
        assert float(cells[1]) == 1.0

    def test_bf_matrix_prints_inf_and_na(self, capsys, tmp_path):
        """Where ``Pr(x1 < 0)`` underflows, H1's Bayes factor is 0: the
        matrix prints ``Inf`` for H2 over H1 and ``NA`` for 0/0."""
        code, out, _ = run_cli(
            capsys,
            "test", "--data", _underflow_csv(tmp_path), "--formula", "y ~ x1",
            "--hyp", "x1<0; x1>0", "--seed", "3", "--show", "computation", "--show", "bf-matrix",
        )
        assert code == 0
        matrix = out.split("BF matrix:", 1)[1].split()
        assert matrix == ["H1", "H2", "H1", "NA", "0.000", "H2", "Inf", "1.000"]

    def test_ci_places_widen_until_the_interval_shows(self):
        assert _ci_places(1.0004, 1.0001, 1.0007) == 4
        assert _ci_places(2.5, 1.0, 4.0) == 3

    def test_exploratory_layout_includes_intercept(self, capsys, csv_path):
        code, out, err = run_cli(
            capsys,
            "exploratory",
            "--data",
            csv_path,
            "--formula",
            "y ~ x1 + x2",
            "--seed",
            "3",
        )
        assert code == 0
        assert '  H2:   "X = 0"' in out
        assert "assuming equal prior probabilities:" in out
        for name in ("(Intercept)", "x1", "x2"):
            assert any(line.startswith(name) for line in out.splitlines())
        x1_row = next(l for l in out.splitlines() if l.startswith("x1 "))
        vals = [float(v) for v in x1_row.split()[1:]]
        assert sum(vals) == pytest.approx(1.0, abs=0.002)


class TestJsonOutput:
    def test_schema_and_structure(self, capsys, csv_path):
        code, out, _ = run_cli(
            capsys, *base_test_args(csv_path, ANALYTIC_HYP, "--output", "json")
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "bfreg/1"
        assert doc["mode"] == "test"
        assert doc["seed"] == 3
        assert [h["label"] for h in doc["hypotheses"]] == ["H1", "H2", "Hc"]
        comp = doc["bf_unconstrained"][1]
        assert comp["bf"] == pytest.approx(BF_MIXED, rel=1e-12)
        assert comp["f_ie"]["exact"] is True
        assert comp["ci90"] is None
        assert len(doc["bf_matrix"]) == 3
        assert doc["posterior_probs"] == pytest.approx(
            [p / (BF_EQ + BF_MIXED + 1.0) for p in (BF_EQ, BF_MIXED, 1.0)]
        )

    def test_byte_identical_reruns(self, capsys, csv_path):
        args = base_test_args(csv_path, RANK3_HYP, "--output", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        doc = json.loads(out1)
        est = doc["bf_unconstrained"][0]["f_ie"]
        assert est["exact"] is False
        assert 0 < est["n_draws"] <= 10000
        assert est["std_error"] > 0

    def test_exploratory_json(self, capsys, csv_path):
        code, out, _ = run_cli(
            capsys,
            "exploratory",
            "--data",
            csv_path,
            "--formula",
            "y ~ x1 + x2",
            "--seed",
            "3",
            "--output",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "exploratory"
        assert doc["coefficients"] == ["(Intercept)", "x1", "x2"]
        assert len(doc["posterior_probs"]) == 3
        assert set(doc["bf_matrices"]) == {"(Intercept)", "x1", "x2"}

    def test_mode_follows_the_result(self, capsys, csv_path):
        """``bfreg test --hyp exploratory`` runs the screen, and says so."""
        code, out, _ = run_cli(
            capsys, *base_test_args(csv_path, "exploratory", "--output", "json")
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "exploratory"
        assert doc["coefficients"] == ["(Intercept)", "x1", "x2"]

    def test_non_finite_numbers_are_strings(self, capsys, tmp_path):
        """Where ``Pr(x1 < 0)`` underflows, H1's ``log_bf`` is -inf: the
        document writes it as ``"-inf"`` and stays strict JSON."""
        rng = np.random.default_rng(2000)
        x = rng.standard_normal(2000)
        y = 60.0 * x + 0.01 * rng.standard_normal(2000)
        path = write_csv(tmp_path / "steep.csv", Dataset(("y", "x1"), np.column_stack([y, x])))
        code, out, _ = run_cli(
            capsys,
            "test", "--data", path, "--formula", "y ~ x1", "--hyp", "x1<0; x1>0",
            "--seed", "3", "--output", "json",
        )
        assert code == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(out, parse_constant=reject)
        assert doc["bf_unconstrained"][0]["log_bf"] == "-inf"
        assert doc["bf_unconstrained"][0]["bf"] == 0.0
        assert "inf" in doc["bf_matrix"][1]


class TestSeeds:
    def test_explicit_seed_is_reported_in_json(self, capsys, csv_path):
        _, out, err = run_cli(
            capsys, *base_test_args(csv_path, "x1>0", "--output", "json")
        )
        assert json.loads(out)["seed"] == 3
        assert "time-derived" not in err

    def test_missing_seed_derives_one_and_says_so(
        self, capsys, csv_path, monkeypatch
    ):
        monkeypatch.delenv("BFREG_SEED", raising=False)
        code, out, err = run_cli(
            capsys,
            "test",
            "--data",
            csv_path,
            "--formula",
            "y ~ x1 + x2",
            "--hyp",
            "x1=0",
            "--mcrep",
            "10000",
            "--output",
            "json",
        )
        assert code == 0
        m = re.search(r"seed: (\d+) \(time-derived\)", err)
        assert m
        assert json.loads(out)["seed"] == int(m.group(1))

    def test_env_var_seed_is_used(self, capsys, csv_path, monkeypatch):
        monkeypatch.setenv("BFREG_SEED", "777")
        code, out, err = run_cli(
            capsys,
            "test",
            "--data",
            csv_path,
            "--formula",
            "y ~ x1 + x2",
            "--hyp",
            "x1=0",
            "--mcrep",
            "10000",
            "--output",
            "json",
        )
        assert code == 0
        assert "time-derived" not in err
        assert json.loads(out)["seed"] == 777


class TestOptions:
    def test_custom_delimiter(self, capsys, tmp_path):
        path = write_csv(
            tmp_path / "semi.csv", make_two_effect_dataset(), delimiter=";"
        )
        code, out, _ = run_cli(
            capsys,
            "test",
            "--data",
            path,
            "--formula",
            "y ~ x1 + x2",
            "--hyp",
            "x1=0",
            "--mcrep",
            "10000",
            "--seed",
            "1",
            "--delimiter",
            ";",
        )
        assert code == 0
        assert "H1" in out

    def test_standardize_changes_the_result(self, capsys, tmp_path):
        data = make_two_effect_dataset()
        scaled = type(data)(
            data.column_names,
            np.column_stack(
                [
                    5.0 * data.column("y"),
                    data.column("x1"),
                    0.1 * data.column("x2"),
                ]
            ),
        )
        path = write_csv(tmp_path / "raw.csv", scaled)

        def args(*extra):
            # comparing coefficients across predictors is exactly the
            # case where units matter
            return (
                "test",
                "--data",
                path,
                "--formula",
                "y ~ x1 + x2",
                "--hyp",
                "x1>x2",
                "--mcrep",
                "10000",
                "--seed",
                "1",
                "--output",
                "json",
                *extra,
            )
        _, raw_out, _ = run_cli(capsys, *args())
        code, std_out, _ = run_cli(capsys, *args("--standardize"))
        assert code == 0
        raw_bf = json.loads(raw_out)["bf_unconstrained"][0]["bf"]
        std_bf = json.loads(std_out)["bf_unconstrained"][0]["bf"]
        assert raw_bf != pytest.approx(std_bf, rel=1e-6)

    def test_printed_df_mode_shifts_mixed_hypothesis(self, capsys, csv_path):
        args = base_test_args(csv_path, "x1>x2=0", "--output", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args, "--lemma-df-as-printed")
        bf1 = json.loads(out1)["bf_unconstrained"][0]["bf"]
        bf2 = json.loads(out2)["bf_unconstrained"][0]["bf"]
        assert bf1 != pytest.approx(bf2, rel=1e-6)

    def test_prior_probs_forwarded(self, capsys, csv_path):
        code, out, _ = run_cli(
            capsys,
            *base_test_args(
                csv_path,
                ANALYTIC_HYP,
                "--prior-probs",
                "1,1,2",
                "--output",
                "json",
            ),
        )
        assert code == 0
        doc = json.loads(out)
        weighted = np.array([BF_EQ, BF_MIXED, 2.0])
        assert doc["posterior_probs"] == pytest.approx(
            list(weighted / weighted.sum())
        )


def _cold_process(code, *argv):
    """Run ``code`` in a fresh interpreter that imports bfreg from this
    checkout; its stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, check=True, capture_output=True, text=True
    )
    return out.stdout


# Runs the CLI on sys.argv[1:] and prints, after its output, the scipy
# modules loaded by then, and numpy.random and numpy.ma if loaded (cold
# imports of about 16 and 9 ms that bfreg itself does not use).
_CLI_THEN_MODULES = (
    "import sys, bfreg.cli\n"
    "code = bfreg.cli.main(sys.argv[1:])\n"
    "print(sorted(m for m in sys.modules\n"
    "             if m.split('.')[0] == 'scipy' or m in ('numpy.random', 'numpy.ma')))\n"
    "sys.exit(code)\n"
)


class TestImport:
    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        """Only rank-deficient systems solve an LP, so a cold process does
        not pay for importing scipy.optimize up front."""
        code = "import bfreg.cli, sys; assert 'scipy.optimize' not in sys.modules"
        _cold_process(code)

    def test_cli_import_loads_no_scipy(self):
        """scipy.special is imported on first use, by the lattice and by
        the t CDF of an array, so importing the package loads no scipy."""
        code = "import bfreg, bfreg.cli, sys; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        assert _cold_process(code).strip() == "[]"

    def test_readme_command_loads_no_scipy_and_ignores_the_seed(self, csv_path):
        """Every estimate of the README command has rank 2 or less, so it is
        exact, the process never loads scipy (nor numpy.random or
        numpy.ma), and its JSON is the same for every seed but for the seed
        itself."""
        docs = []
        for seed in ("1", "2"):
            args = ("test", "--data", csv_path, "--formula", "y ~ x1 + x2", "--hyp", README_HYP)
            out = _cold_process(_CLI_THEN_MODULES, *args, "--output", "json", "--seed", seed)
            text, modules = out.rsplit("\n", 2)[:2]
            assert modules == "[]"
            docs.append(json.loads(text))
        assert [doc.pop("seed") for doc in docs] == [1, 2]
        assert docs[0] == docs[1]
        for comp in docs[0]["bf_unconstrained"]:
            for est in (comp["c_ie"], comp["f_ie"]):
                assert est is None or (est["exact"] and est["n_draws"] == 0)

    def test_quadrature_nodes_are_built_on_first_use(self, csv_path):
        """Importing bfreg builds no Gauss-Legendre nodes, and neither it
        nor the README command loads ``numpy.polynomial``: the command
        builds the angular rule's nodes only, not those of Plackett's
        reduction, which it does not reach."""
        code = (
            "import sys, bfreg, bfreg.cli\n"
            "from bfreg import numkernel as nk\n"
            "def state():\n"
            "    return ('numpy.polynomial' in sys.modules, nk._gauss_legendre.cache_info().currsize,\n"
            "            nk._plackett_rule.cache_info().currsize)\n"
            "before = state()\n"
            "bfreg.cli.main(sys.argv[1:])\n"
            "print(before, state())\n"
        )
        args = ("test", "--data", csv_path, "--formula", "y ~ x1 + x2", "--hyp", README_HYP)
        out = _cold_process(code, *args, "--output", "json", "--seed", "1")
        assert out.rsplit("\n", 2)[-2] == "(False, 0, 0) (False, 1, 0)"

    def test_rank_three_takes_the_lattice(self, csv_path):
        """Rows of rank 3 below the trivariate rule's df cut-over still take
        the lattice, and with it scipy.special."""
        args = ("test", "--data", csv_path, "--formula", "y ~ x1 + x2", "--hyp", RANK3_HYP)
        out = _cold_process(_CLI_THEN_MODULES, *args, "--output", "json", "--seed", "1")
        text, modules = out.rsplit("\n", 2)[:2]
        assert "scipy.special" in modules
        est = json.loads(text)["bf_unconstrained"][0]["f_ie"]
        assert not est["exact"] and est["n_draws"] > 0 and est["std_error"] > 0


class TestFarTailComplement:
    @pytest.mark.parametrize("hyp", ["(x1,x2)>-.5e-1; x3<+3", "(x1,x2)>0; x3<5"])
    def test_prints_and_exits_0(self, capsys, tmp_path, hyp):
        """On the k = 5 data, Hc's f_ie lies near 1e-101 (1e-142 for the
        second text).  On the lattice its standard error was that of one
        hit, about 1e95 times the value, and the 90% interval overflowed
        in a traceback; the term is now exact, and the command prints its
        table and exits 0."""
        path = write_csv(tmp_path / "k5.csv", make_k5_dataset())
        argv = ("test", "--data", path, "--formula", "y ~ x1 + x2 + x3 + x4", "--hyp", hyp, "--seed", "1")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert "Hc" in out
        code, out, err = run_cli(capsys, *argv, "--output", "json")
        hc = json.loads(out)["bf_unconstrained"][-1]
        assert code == 0 and hc["label"] == "Hc" and 0.0 < hc["f_ie"]["value"] < 1e-100


class TestBadlyScaledChain:
    def test_an_interval_beyond_the_float_range_prints_inf(self, capsys, tmp_path):
        """Predictors in units of 1e-3 to 1e3 (``_badly_scaled_chain(60)``,
        ``x1 > x2 > x3 > 64.72``): the posterior factor is a lattice
        estimate near 1e-209 with a standard error near 1e-5, whose
        relative square overflows a float.  The command exits 0 and the
        interval's upper end prints as ``Inf``; before, it ended in an
        OverflowError traceback."""
        columns, text = _badly_scaled_chain(60)
        data = Dataset(("y", "x1", "x2", "x3", "x4"), columns)
        path = write_csv(tmp_path / "scaled.csv", data)
        code, out, err = run_cli(
            capsys, "test", "--data", path, "--formula", "y ~ x1 + x2 + x3 + x4",
            "--hyp", text, "--mcrep", "20000", "--seed", "1", "--show", "ci",
        )
        assert code == 0, err
        assert "Inf" in out


class TestDroppedRows:
    def test_a_note_counts_rows_with_a_missing_cell(self, capsys, tmp_path, csv_path):
        """A row with an ``NA`` cell is dropped: stderr says so, and the
        JSON is byte-identical to that of the file without the row."""
        text = Path(csv_path).read_text()
        header, first, rest = text.split("\n", 2)
        with_na = tmp_path / "with_na.csv"
        with_na.write_text(f"{header}\n{first}\nNA,{first.split(',', 1)[1]}\n{rest}")
        outs = []
        for path in (csv_path, str(with_na)):
            code, out, err = run_cli(capsys, *base_test_args(path, "x1>0", "--output", "json"))
            assert code == 0
            outs.append((out, err))
        assert outs[0] == (outs[1][0], "")
        assert outs[1][1] == "note: dropped 1 rows with a missing cell\n"


class TestFailures:
    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "test",
            "--data",
            str(tmp_path / "absent.csv"),
            "--formula",
            "y ~ x1",
            "--hyp",
            "x1=0",
        )
        assert code == 1
        assert "error:" in err

    def test_three_level_categorical_column(self, capsys, tmp_path):
        path = tmp_path / "cat.csv"
        path.write_text("y,g\n1.0,a\n2.0,b\n3.0,c\n4.0,a\n5.0,b\n6.0,c\n")
        code, _, err = run_cli(
            capsys,
            "test",
            "--data",
            str(path),
            "--formula",
            "y ~ g",
            "--hyp",
            "g=0",
        )
        assert code == 1
        assert "distinct" in err

    @pytest.mark.parametrize(
        "content, delimiter, message",
        [
            ("y,x\u00e9\n", ",", "not UTF-8 text"),
            ("y,x1\n", "\\t", "delimiter '\\\\t' is not one character"),
            ("y,x1\n", "", "delimiter '' is not one character"),
        ],
    )
    def test_unreadable_csv_is_an_error_line(self, capsys, tmp_path, content, delimiter, message):
        """A file that is not UTF-8 and a delimiter that is not one
        character exit 1 with one error line, not a traceback."""
        path = tmp_path / "bad.csv"
        path.write_bytes((content + "1,2\n2,3\n3,5\n4,4\n").encode("latin-1"))
        code, _, err = run_cli(
            capsys,
            "test", "--data", str(path), "--formula", "y ~ x1", "--hyp", "x1>0",
            "--seed", "3", "--delimiter", delimiter,
        )
        assert code == 1
        assert err.startswith("error: ") and message in err and "Traceback" not in err

    def test_byte_order_mark_reads_as_without(self, capsys, tmp_path, csv_path):
        """A file that starts with a UTF-8 byte-order mark gives the same
        document as the file without it."""
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(csv_path).read_bytes())
        plain, bom = (
            run_cli(capsys, *base_test_args(path, "x1>x2>0", "--output", "json"))
            for path in (csv_path, str(marked))
        )
        assert plain[0] == 0 and bom == plain

    def test_bad_hypothesis_names_the_label(self, capsys, csv_path):
        code, _, err = run_cli(
            capsys, *base_test_args(csv_path, "x1>0; nope>0")
        )
        assert code == 1
        assert "H2" in err

    def test_non_ascii_operand_is_a_syntax_error(self, capsys, csv_path):
        code, _, err = run_cli(capsys, *base_test_args(csv_path, "é>0"))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error: H1:") and "Traceback" not in err

    def test_wrong_weight_count_mentions_complement(self, capsys, csv_path):
        code, _, err = run_cli(
            capsys,
            *base_test_args(csv_path, "x1>0", "--prior-probs", "1,2,3"),
        )
        assert code == 1
        assert "automatic complement" in err

    @pytest.mark.parametrize(
        "weights, message",
        [
            ("1,two", "--prior-probs must be 'equal' or comma-separated numbers, got '1,two'"),
            ("1,0", "--prior-probs weights must be positive"),
            ("1,-2", "--prior-probs weights must be positive"),
            ("1,inf", "--prior-probs weights must be positive"),
        ],
    )
    def test_bad_prior_probs(self, capsys, csv_path, weights, message):
        code, _, err = run_cli(
            capsys, *base_test_args(csv_path, "x1=0", "--prior-probs", weights)
        )
        assert code == 1
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("env", ["seven", "1.5"])
    def test_non_integer_env_seed(self, capsys, csv_path, monkeypatch, env):
        monkeypatch.setenv("BFREG_SEED", env)
        code, _, err = run_cli(
            capsys,
            "test", "--data", csv_path, "--formula", "y ~ x1 + x2", "--hyp", "x1=0",
        )
        assert code == 1
        assert err == f"error: BFREG_SEED must be an integer, got {env!r}\n"

    def test_mcrep_floor(self, capsys, csv_path):
        code, _, err = run_cli(
            capsys,
            "test",
            "--data",
            csv_path,
            "--formula",
            "y ~ x1 + x2",
            "--hyp",
            "x1=0",
            "--mcrep",
            "500",
        )
        assert code == 1
        assert "at least 10000" in err

    def test_unknown_flag_exits_one(self, capsys, csv_path):
        code, _, err = run_cli(
            capsys, "test", "--data", csv_path, "--bogus"
        )
        assert code == 1

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_numeric_failure_exits_two(self, capsys, tmp_path):
        """A feasible region whose prior probability underflows to zero is a
        numeric failure, not bad input: with noise of scale 1e120 the prior
        on each slope is a t of scale near 1e120, so the cube 1e-8 >
        (x1,x2,x3) > 0 holds prior mass near 1e-385."""
        rng = np.random.default_rng(96)
        columns = np.column_stack([1e120 * rng.standard_normal(30), rng.standard_normal((30, 3))])
        path = write_csv(tmp_path / "wide.csv", Dataset(("y", "x1", "x2", "x3"), columns))
        code, _, err = run_cli(
            capsys,
            "test",
            "--data",
            path,
            "--formula",
            "y ~ x1 + x2 + x3",
            "--hyp",
            "1e-8>(x1,x2,x3)>0",
            "--mcrep",
            "10000",
        )
        assert code == 2
        assert "prior" in err

    def test_empty_interior_is_rejected_as_input_error(self, capsys, csv_path):
        code, _, err = run_cli(
            capsys, *base_test_args(csv_path, "0.000000001>x1>0")
        )
        assert code == 1
        assert "interior" in err
