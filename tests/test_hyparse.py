"""Hypothesis DSL parsing, matrix construction, and validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from bfreg import (
    ConstraintSystem,
    HypothesisSyntaxError,
    InconsistentEqualityError,
    InfeasibleHypothesisError,
    InvalidInputError,
    parse_hypotheses,
)
from bfreg.hyparse import is_exploratory, validate

COEFS4 = ("(Intercept)", "x1", "x2", "x3")


def parse_one(text, coefs=COEFS4):
    systems = parse_hypotheses(text, coefs)
    assert len(systems) == 1
    return systems[0]


class TestChainMatrices:
    def test_pure_order_chain(self):
        """A descending chain emits one difference row per adjacent pair."""
        cs = parse_one("x1 > x2 > x3 > 0")
        assert cs.q_E == 0
        assert np.array_equal(
            cs.R_I,
            np.array(
                [
                    [0.0, 1.0, -1.0, 0.0],
                    [0.0, 0.0, 1.0, -1.0],
                    [0.0, 0.0, 0.0, 1.0],
                ]
            ),
        )
        assert np.array_equal(cs.r_I, np.zeros(3))

    def test_equality_chain_with_tail_inequality(self):
        cs = parse_one("x1 = x2 = x3 > 0")
        assert np.array_equal(
            cs.R_E,
            np.array([[0.0, 1.0, -1.0, 0.0], [0.0, 0.0, 1.0, -1.0]]),
        )
        assert np.array_equal(cs.r_E, np.zeros(2))
        assert np.array_equal(cs.R_I, np.array([[0.0, 0.0, 0.0, 1.0]]))
        assert np.array_equal(cs.r_I, np.zeros(1))

    def test_numeric_operand_moves_to_rhs(self):
        cs = parse_one("x1 > 0.5")
        assert np.array_equal(cs.R_I, np.array([[0.0, 1.0, 0.0, 0.0]]))
        assert np.array_equal(cs.r_I, np.array([0.5]))

    def test_number_on_left(self):
        """A left numeric bound flips into the normalized > direction."""
        cs = parse_one("-1 < x2")
        assert np.array_equal(cs.R_I, np.array([[0.0, 0.0, 1.0, 0.0]]))
        assert np.array_equal(cs.r_I, np.array([-1.0]))

    def test_name_to_name_equality_shift(self):
        cs = parse_one("x1 = 2")
        assert np.array_equal(cs.R_E, np.array([[0.0, 1.0, 0.0, 0.0]]))
        assert np.array_equal(cs.r_E, np.array([2.0]))

    def test_range_chain(self):
        cs = parse_one("0 < x1 < 1")
        assert np.array_equal(
            cs.R_I, np.array([[0.0, 1.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]])
        )
        assert np.array_equal(cs.r_I, np.array([0.0, -1.0]))

    def test_mixed_directions_accepted(self):
        cs = parse_one("x1 < x2 > x3")
        assert cs.q_I == 2
        assert np.array_equal(
            cs.R_I, np.array([[0.0, -1.0, 1.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        )

    def test_intercept_literal(self):
        cs = parse_one("(Intercept) > 0")
        assert np.array_equal(cs.R_I, np.array([[1.0, 0.0, 0.0, 0.0]]))

    def test_whitespace_insignificant(self):
        tight = parse_one("x1>x2>x3>0")
        spaced = parse_one("  x1  >  x2>x3   >0 ")
        assert np.array_equal(tight.R_I, spaced.R_I)
        assert np.array_equal(tight.r_I, spaced.r_I)


class TestGroups:
    def test_group_versus_zero(self):
        cs = parse_one("(x1, x2) > 0")
        assert np.array_equal(
            cs.R_I, np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        )

    def test_group_equality_one_row_per_member(self):
        cs = parse_one("(x1, x2) = 0")
        assert cs.q_E == 2
        assert np.array_equal(
            cs.R_E, np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        )

    def test_cartesian_expansion_across_both_sides(self):
        cs = parse_one("(x1, x2) > (x3)")
        assert np.array_equal(
            cs.R_I, np.array([[0.0, 1.0, 0.0, -1.0], [0.0, 0.0, 1.0, -1.0]])
        )

    def test_row_order_left_to_right_group_member_order(self):
        """Chain order outranks group order; members expand in place."""
        cs = parse_one("x1 > (x2, x3) > 0")
        assert np.array_equal(
            cs.R_I,
            np.array(
                [
                    [0.0, 1.0, -1.0, 0.0],
                    [0.0, 1.0, 0.0, -1.0],
                    [0.0, 0.0, 1.0, 0.0],
                    [0.0, 0.0, 0.0, 1.0],
                ]
            ),
        )

    def test_worked_substitution_example(self):
        """Equalities inside a chain leave the stated inequality intact.

        For coefficient names including beliefW, stigma, feminist the
        string "beliefW > (stigma, feminist) = 0" sets both group
        members to zero and keeps two raw difference rows; after
        substituting the equalities they reduce to beliefW > 0.
        """
        coefs = ("(Intercept)", "beliefW", "stigma", "feminist")
        cs = parse_one("beliefW > (stigma, feminist) = 0", coefs)
        assert cs.q_E == 2
        assert np.array_equal(
            cs.R_E,
            np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
        )
        assert np.array_equal(
            cs.R_I,
            np.array([[0.0, 1.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]]),
        )
        report = validate(cs)
        assert report.rank_inequalities_reduced == 1


class TestNormalizationAndLabels:
    def test_less_than_equals_flipped_greater(self):
        a = parse_one("x1 < x2")
        b = parse_one("x2 > x1")
        assert np.array_equal(a.R_I, b.R_I)
        assert np.array_equal(a.r_I, b.r_I)

    def test_segment_labels_in_order(self):
        systems = parse_hypotheses("x1 > 0; x2 > 0; x3 = 0", COEFS4)
        assert [cs.label for cs in systems] == ["H1", "H2", "H3"]

    def test_duplicate_equality_rows_collapse(self):
        cs = parse_one("x1 = 0 = x1")
        assert cs.q_E == 1

    def test_exploratory_flag(self):
        assert is_exploratory("exploratory")
        assert is_exploratory("  Exploratory ")
        assert not is_exploratory("x1 > 0")
        assert parse_hypotheses("exploratory", COEFS4) == []


class TestParseErrors:
    def test_unknown_name(self):
        with pytest.raises(HypothesisSyntaxError, match="zzz"):
            parse_one("zzz > 0")

    def test_single_operand(self):
        with pytest.raises(HypothesisSyntaxError):
            parse_one("x1")

    def test_empty_segment(self):
        with pytest.raises(HypothesisSyntaxError):
            parse_hypotheses("x1 > 0;; x2 > 0", COEFS4)

    def test_unclosed_group(self):
        with pytest.raises(HypothesisSyntaxError):
            parse_one("x1 = (x2")

    def test_empty_text(self):
        with pytest.raises(HypothesisSyntaxError):
            parse_hypotheses("   ", COEFS4)

    def test_numeric_only_comparison(self):
        with pytest.raises(HypothesisSyntaxError):
            parse_one("1 > 0")

    def test_self_comparison_is_contentless(self):
        with pytest.raises(HypothesisSyntaxError):
            parse_one("x1 > x1")

    def test_contradictory_equalities_dependent_rows(self):
        """x1 = 0 and x1 = x2 force x2 = 0, clashing with x2 = 1."""
        with pytest.raises(InconsistentEqualityError):
            parse_one("0 = x1 = x2 = 1")

    def test_contradictory_equalities_via_chain(self):
        with pytest.raises(InconsistentEqualityError):
            parse_one("0 = x1 = 1")


class TestValidate:
    def test_single_equality_rank(self):
        cs = parse_one("x1 = 0")
        report = validate(cs)
        assert report.q_E == 1
        assert cs.reduction.D.shape == (3, 4)

    def test_empty_interior_rejected(self):
        with pytest.raises(InfeasibleHypothesisError):
            validate(parse_one("0 > x1 > 0"))

    def test_equality_inequality_contradiction_on_same_pair(self):
        """Using = and > on the same pair leaves no interior."""
        with pytest.raises(InfeasibleHypothesisError):
            validate(parse_one("x1 = x2 > x1"))

    def test_inequality_reducing_to_impossible_constant(self):
        with pytest.raises(InfeasibleHypothesisError, match="0 >"):
            validate(parse_one("x2 > x1 = x2"))

    def test_group_over_equality_ranks(self):
        report = validate(parse_one("(x1, x2) > x3 = 0"))
        assert report.q_E == 1
        assert report.q_I == 2
        assert report.rank_inequalities_reduced == 2

    def test_trivially_true_reduced_row_counted(self):
        report = validate(parse_one("0 < x1 = 1"))
        assert report.n_trivial_rows == 1

    def test_feasible_band_passes(self):
        report = validate(parse_one("0 < x1 < 1"))
        assert report.q_I == 2

    def test_only_rank_deficient_rows_solve_the_lp(self, monkeypatch):
        """Full row rank is strictly feasible without a linear program."""

        def no_lp(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr("bfreg.hyparse.linprog", no_lp)
        assert validate(parse_one("(x1,x2)>0")).rank_inequalities_reduced == 2
        assert validate(parse_one("x1>x2>x3>0")).rank_inequalities_reduced == 3

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr("bfreg.hyparse.linprog", counting)
        with pytest.raises(InfeasibleHypothesisError):
            validate(parse_one("0 > x1 > 0"))
        assert validate(parse_one("0 < x1 < 1")).rank_inequalities_reduced == 1
        assert len(calls) == 2


class TestRoundTrip:
    names = st.sampled_from(["x1", "x2", "x3"])
    cmps = st.sampled_from(["=", "<", ">"])

    @given(
        st.lists(
            st.tuples(names, cmps, names).filter(lambda t: t[0] != t[2]),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_render_then_reparse_is_identity(self, pairs):
        """Reparsing a parsed system's source gives equal matrices."""
        text = "; ".join(f"{a} {c} {b}" for a, c, b in pairs)
        try:
            systems = parse_hypotheses(text, COEFS4)
        except (InconsistentEqualityError, HypothesisSyntaxError):
            return
        again = parse_hypotheses("; ".join(cs.source for cs in systems), COEFS4)
        for cs, cs2 in zip(systems, again):
            assert np.array_equal(cs.R_E, cs2.R_E)
            assert np.array_equal(cs.r_E, cs2.r_E)
            assert np.array_equal(cs.R_I, cs2.R_I)
            assert np.array_equal(cs.r_I, cs2.r_I)

    def test_render_preserves_source_without_spaces(self):
        cs = parse_one("x1  >   x2 = 0")
        assert cs.source == "x1>x2=0"


class TestConstraintSystemType:
    def test_needs_at_least_one_constraint(self):
        empty = np.zeros((0, 3))
        with pytest.raises(InvalidInputError):
            ConstraintSystem("H1", "", empty, np.zeros(0), empty, np.zeros(0))

    def test_rejects_zero_rows(self):
        with pytest.raises(InvalidInputError):
            ConstraintSystem(
                "H1",
                "bad",
                np.zeros((1, 3)),
                np.zeros(1),
                np.zeros((0, 3)),
                np.zeros(0),
            )

    def test_rejects_nonfinite_rows(self):
        empty = np.zeros((0, 3))
        with pytest.raises(InvalidInputError, match="finite"):
            ConstraintSystem("H1", "bad", [[0, np.nan, 1]], [0.0], empty, [])
        with pytest.raises(InvalidInputError, match="finite"):
            ConstraintSystem("H1", "bad", empty, [], [[0, -np.inf, 1]], [0.0])

    def test_width_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            ConstraintSystem(
                "H1",
                "bad",
                np.ones((1, 3)),
                np.zeros(1),
                np.ones((1, 4)),
                np.zeros(1),
            )
