"""Hypothesis DSL parsing, matrix construction, and validation."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
LABEL_RE = re.compile(r"H\d+: ")


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

    @pytest.mark.parametrize(
        "text",
        ["é>0", "x1>2x2", "x1>-x2", "x1>1.5.3", "x1>(x2,)", "x1>((x2))", "x1>(1)",
         "x1>", ">0", "x1>()", "(x1,x2)(x3)>0", "x1>(Intercept", "x1>((Intercept)",
         "x1>1e999", "x1<-1E400"],
    )
    def test_malformed_operand_names_label_and_operand(self, text):
        with pytest.raises(HypothesisSyntaxError) as info:
            parse_one(text)
        assert LABEL_RE.match(str(info.value))
        operand = next(part for part in re.split(r"[<>=]", text) if part != "x1")
        assert repr(operand) in str(info.value)

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

    def test_implied_rows_dropped_and_counted(self):
        """(x1,x1) > x2 states x1 - x2 > 0 twice and x1 > 1 implies x1 > 0:
        the reduction keeps one row of each, centres the prior on it and
        the report counts the other as trivial."""
        cs = parse_one("(x1,x1)>x2")
        assert cs.q_I == 2
        assert np.array_equal(cs.reduction.Rtilde_I, cs.R_I[:1])
        assert validate(cs).n_trivial_rows == 1
        cs = parse_one("0<x1>1")
        assert np.array_equal(cs.reduction.Rtilde_I, cs.R_I[1:])
        assert cs.reduction.center_exact and cs.reduction.center[1] == 1.0
        assert validate(cs).n_trivial_rows == 1

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


_SPACE = st.text(alphabet=" \t\n", max_size=2)
# Enough names that adjacent operands seldom share one.
_COEFS = ("(Intercept)",) + tuple(f"x{j}" for j in range(1, 12))


@st.composite
def _number(draw):
    """A number in one of the forms of the grammar, as text and value."""
    digits = st.text(alphabet="0123456789", min_size=1, max_size=2)
    sign = draw(st.sampled_from(["", "+", "-"]))
    whole, frac = draw(digits), draw(digits)
    mantissa = draw(st.sampled_from([whole, whole + ".", f"{whole}.{frac}", "." + frac]))
    exponent = draw(st.sampled_from(["", "e", "E"]))
    if exponent:
        exponent += draw(st.sampled_from(["", "+", "-"])) + draw(digits)
    text = sign + mantissa + exponent
    return text, float(text)


@st.composite
def _written_operand(draw):
    """An operand as text, and the names or the number it stands for."""
    kind = draw(st.sampled_from(["name", "group", "number"]))
    if kind == "number":
        return draw(_number())
    if kind == "name":
        name = draw(st.sampled_from(_COEFS))
        return name, [name]
    names = draw(st.lists(st.sampled_from(_COEFS), min_size=1, max_size=3))
    members = [draw(_SPACE) + n + draw(_SPACE) for n in names]
    return "(" + ",".join(members) + ")", names


@st.composite
def _chain(draw):
    """A hypothesis chain as text, and its rows as ``(op, row, rhs)``
    in order: each comparison, left member outermost, ``<`` turned round."""
    operands = draw(st.lists(_written_operand(), min_size=2, max_size=4))
    ops = draw(st.lists(st.sampled_from("<>>="), min_size=len(operands) - 1,
                        max_size=len(operands) - 1))
    text = draw(_SPACE) + operands[0][0]
    for op, (operand, _) in zip(ops, operands[1:]):
        text += draw(_SPACE) + op + draw(_SPACE) + operand + draw(_SPACE)
    rows = []
    for (_, left), op, (_, right) in zip(operands, ops, operands[1:]):
        if op == "<":
            left, op, right = right, ">", left
        for a in left if isinstance(left, list) else [left]:
            for b in right if isinstance(right, list) else [right]:
                row, rhs = np.zeros(len(_COEFS)), 0.0
                if isinstance(a, str):
                    row[_COEFS.index(a)] += 1.0
                else:
                    rhs -= a
                if isinstance(b, str):
                    row[_COEFS.index(b)] -= 1.0
                else:
                    rhs += b
                rows.append((op, row, rhs))
    return text, rows


class TestParserProperties:
    @given(st.lists(_chain(), min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_chains_give_their_rows_in_order(self, chains):
        """Random chains of names, groups and numbers in every form give
        their rows, in order, or a labelled syntax error when a
        comparison has no coefficient content.  Chains whose equalities
        are dependent (deduplicated or contradictory) are left out."""
        eq = [np.array([row for op, row, _ in rows if op == "="]) for _, rows in chains]
        assume(all(len(e) == 0 or np.linalg.matrix_rank(e) == len(e) for e in eq))
        text = ";".join(t for t, _ in chains)
        if any(not row.any() for _, rows in chains for _, row, _ in rows):
            with pytest.raises(HypothesisSyntaxError, match=LABEL_RE):
                parse_hypotheses(text, _COEFS)
            return
        systems = parse_hypotheses(text, _COEFS)
        assert [cs.label for cs in systems] == [f"H{i + 1}" for i in range(len(chains))]
        for cs, (chain, rows) in zip(systems, chains):
            assert cs.source == "".join(chain.split())
            for op, R, r in (("=", cs.R_E, cs.r_E), (">", cs.R_I, cs.r_I)):
                mine = [(row, rhs) for o, row, rhs in rows if o == op]
                assert len(R) == len(mine)
                for got_row, got_rhs, (row, rhs) in zip(R, r, mine):
                    assert np.array_equal(got_row, row)
                    assert got_rhs == rhs and np.signbit(got_rhs) == np.signbit(rhs)

    _TOKENS = st.sampled_from(
        ["x1", "x2", "(Intercept)", "(", ")", ",", ";", "<", ">", "=", "1",
         ".5", "-", "+", "e", "E3", " ", "é", "٣", "²", "_", "."]
    )

    @given(st.one_of(st.text(), st.lists(_TOKENS, max_size=12).map("".join)))
    @settings(max_examples=500, deadline=None)
    def test_any_text_parses_or_raises_invalid_input(self, text):
        """Any text parses, or raises an input error that names its
        hypothesis."""
        try:
            parse_hypotheses(text, COEFS4)
        except InvalidInputError as exc:
            assert LABEL_RE.match(str(exc))


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
        with pytest.raises(InvalidInputError, match="finite"):
            ConstraintSystem("H1", "bad", empty, [], [[0, 1, 0]], [-np.inf])

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
