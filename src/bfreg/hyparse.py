"""Hypothesis text -> constraint matrices.

Grammar (whitespace is insignificant everywhere):

    hypotheses := hypothesis (";" hypothesis)*
    hypothesis := operand (cmp operand)+
    cmp        := "=" | "<" | ">"
    operand    := name | number | "(" name ("," name)* ")"

A chain compares adjacent operands pairwise: ``x1 > x2 > 0`` states
``x1 > x2`` and ``x2 > 0``.  A parenthesized group distributes over the
other side of its comparison, cartesian style: ``(a,b) > c`` gives the
rows ``a > c`` and ``b > c``, and ``(a,b) > (c,d)`` gives all four pairs.
``<`` is normalized away, so every inequality row is stored in the
``R_I beta > r_I`` direction.  Row order follows the text left to right,
group members expanding left operand outermost.

The intercept is addressed by the literal name ``(Intercept)``.  The
special text ``exploratory`` is not a hypothesis; callers check
:func:`is_exploratory` before parsing.

A hypothesis is split on its comparisons, and one rule classifies each
operand between them (:func:`_operand`): parentheses make a group of
names, else it is a number or a name.  Text that does not follow the
grammar raises :class:`~bfreg.errors.HypothesisSyntaxError`, naming the
hypothesis and the operand.

What the rows alone decide is worked out here too, for the parser and
the kernel alike: the prior center (:func:`prior_center`) and which
parallel rows conflict or imply one another (:func:`_parallel_pairs`,
:func:`_unimplied`).  Of bfreg this module imports only its errors.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    HypothesisSyntaxError,
    InconsistentEqualityError,
    InfeasibleHypothesisError,
    NumericError,
)

EXPLORATORY = "exploratory"

_INTERCEPT = "(Intercept)"
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
_NUM_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")

# Rows R_b = -c R_a (c > 0) with c r_a + r_b >= 0 cannot both hold, and
# with c < 0 and c r_a + r_b <= 0 row a implies row b: the closed-form
# tests of :func:`_parallel_pairs`, to this relative tolerance.
_PARALLEL_TOL = 1e-12


def is_exploratory(text: str) -> bool:
    """True when the hypothesis text requests the exploratory mode."""
    return text.strip().lower() == EXPLORATORY


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call.

    Only rank-deficient systems solve an LP, and importing scipy.optimize
    costs a cold process about a quarter of its start-up time.
    """
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def prior_center(R, r):
    """The minimum-norm least-squares solution of ``R x = r``, the prior
    center for ``R x > r``, and whether it solves the system exactly."""
    center = np.linalg.lstsq(R, r, rcond=None)[0]
    exact = bool(np.linalg.norm(R @ center - r) <= 1e-8 * (1.0 + np.linalg.norm(r)))
    return center, exact


def _parallel_pairs(A, a):
    """For every pair ``(i, j)`` of rows of ``A x > a`` with ``A_j = -c A_i``,
    in closed form: whether they share no point (``c > 0`` and ``c a_i +
    a_j >= 0``), and whether row ``i`` implies row ``j`` (``c < 0`` and
    ``c a_i + a_j <= 0``: the same direction, a bound no tighter)."""
    c = -(A @ A.T) / np.einsum("ij,ij->i", A, A)[:, None]
    resid = np.linalg.norm(A[None, :, :] + c[:, :, None] * A[:, None, :], axis=2)
    parallel = resid <= _PARALLEL_TOL * np.linalg.norm(A, axis=1)
    gap = c * a[:, None] + a[None, :]
    slack = _PARALLEL_TOL * (np.abs(c * a[:, None]) + np.abs(a[None, :]))
    return parallel & (c > 0.0) & (gap >= -slack), parallel & (c < 0.0) & (gap <= slack)


def _unimplied(ix, implied):
    """Rows ``ix`` less those another of them implies; of rows that imply
    each other, the first stays."""
    among = implied[np.ix_(ix, ix)]
    drop = (among & (~among.T | ~np.tri(len(ix), dtype=bool))).any(axis=0)
    return ix[~drop]


def _frozen(a) -> np.ndarray:
    """A read-only float copy of ``a``."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


class EqualityReduction(NamedTuple):
    """The inequalities restated over the free directions ``xi_I = D beta``.

    ``D`` is an orthonormal basis of the null space of ``R_E`` (one row
    per direction), so ``T = [R_E; D]`` has ``T^{-1} = [R_E^+  D']`` by
    blocks, and ``Rtilde_I xi_I > rtilde_I`` is the inequality part with
    the equalities substituted: ``Rtilde_I = R_I D'`` and ``rtilde_I =
    r_I - R_I R_E^+ r_E``, keeping only the live rows, those with
    coefficient content left.  Without equalities ``D`` is the identity.
    ``center`` and ``center_exact`` are :func:`prior_center` of the live
    rows.
    """

    D: np.ndarray
    Rtilde_I: np.ndarray
    rtilde_I: np.ndarray
    center: np.ndarray
    center_exact: bool


@dataclass(frozen=True)
class ConstraintSystem:
    """One hypothesis as matrices: ``R_E beta = r_E`` and ``R_I beta > r_I``.

    ``source`` is the canonical text (whitespace stripped) the system was
    parsed from; reparsing it reproduces the matrices.  The matrices are
    read-only copies, as is everything in :attr:`reduction`: the engine
    shares one validated system between calls (and threads).
    """

    label: str
    source: str
    R_E: np.ndarray
    r_E: np.ndarray
    R_I: np.ndarray
    r_I: np.ndarray

    def __post_init__(self):
        RE, RI = _frozen(self.R_E), _frozen(self.R_I)
        rE, rI = _frozen(np.atleast_1d(self.r_E)), _frozen(np.atleast_1d(self.r_I))
        if RE.ndim != 2 or RI.ndim != 2 or RE.shape[1] != RI.shape[1]:
            raise HypothesisSyntaxError("constraint matrices must share a width")
        if RE.shape[0] != rE.shape[0] or RI.shape[0] != rI.shape[0]:
            raise HypothesisSyntaxError("constraint bounds have the wrong length")
        if RE.shape[0] + RI.shape[0] < 1:
            raise HypothesisSyntaxError("a hypothesis needs at least one constraint")
        if not all(np.isfinite(a).all() for a in (RE, RI, rE, rI)):
            raise HypothesisSyntaxError("constraint matrices and bounds must be finite")
        for row in list(RE) + list(RI):
            if not np.any(row):
                raise HypothesisSyntaxError("all constraint rows must be nonzero")
        object.__setattr__(self, "R_E", RE)
        object.__setattr__(self, "r_E", rE)
        object.__setattr__(self, "R_I", RI)
        object.__setattr__(self, "r_I", rI)

    @property
    def q_E(self) -> int:
        return self.R_E.shape[0]

    @property
    def q_I(self) -> int:
        return self.R_I.shape[0]

    @property
    def k(self) -> int:
        return self.R_E.shape[1]

    @cached_property
    def reduction(self) -> EqualityReduction:
        """The equality reduction and prior center, computed once and read
        by :func:`validate`, :func:`bfreg.constraints.build_transform` and
        :func:`bfreg.engine.bf_unconstrained`.

        A reduced row with no coefficient content left (a norm at most
        1e-9 of the largest row norm, or of 1) decides itself: ``0 > c``
        raises :class:`InfeasibleHypothesisError` for ``c >= 0`` and is
        dropped as vacuously true otherwise.  A live row that another
        implies (a positive multiple with a bound no tighter, by
        :func:`_parallel_pairs`) is dropped too, before the prior center
        is taken; of equal rows the first stays.

        One SVD ``R_E = U diag(s) V'`` gives the rest: the equality rows
        are independent when every singular value exceeds ``max(q_E, k)
        eps s_0``, else :class:`InconsistentEqualityError` is raised; ``D``
        is the last ``k - q_E`` rows of ``V'`` and ``R_E^+ = V_E diag(1/s)
        U'``.  A ``R_E R_E^+`` that is not the identity raises
        :class:`NumericError`.
        """
        q_E, k = self.q_E, self.k
        D, Rt, rt = np.eye(k), self.R_I, self.r_I
        if q_E:
            U, s, Vt = np.linalg.svd(self.R_E)
            if q_E > k or s[-1] <= max(q_E, k) * np.finfo(float).eps * s[0]:
                raise InconsistentEqualityError(
                    f"{self.label}: equality rows are linearly dependent"
                )
            D = Vt[q_E:]
            T_inv_E = (Vt[:q_E].T * (1.0 / s)) @ U.T
            if not np.allclose(self.R_E @ T_inv_E, np.eye(q_E), atol=1e-9):
                raise NumericError(f"{self.label}: transform is numerically singular")
            Rt = self.R_I @ D.T
            rt = self.r_I - self.R_I @ T_inv_E @ self.r_E
        norms = np.linalg.norm(Rt, axis=1)
        live = norms > 1e-9 * max(1.0, float(norms.max(initial=0.0)))
        tol = 1e-9 * (1.0 + float(np.abs(rt).max(initial=0.0)))
        for c in rt[~live]:
            if c >= -tol:
                raise InfeasibleHypothesisError(
                    f"{self.label}: after substituting the equalities, an "
                    f"inequality reduces to 0 > {c:g}"
                )
        Rt, rt = Rt[live], rt[live]
        keep = _unimplied(np.arange(len(rt)), _parallel_pairs(Rt, rt)[1])
        Rt, rt = Rt[keep], rt[keep]
        center, exact = prior_center(Rt, rt)
        return EqualityReduction(*map(_frozen, (D, Rt, rt, center)), exact)


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostics from :func:`validate`: the rank of the live reduced
    inequalities and, in ``n_trivial_rows``, the number of inequality
    rows the reduction dropped, those the equalities made vacuous and
    those another row implies."""

    label: str
    rank_inequalities_reduced: int
    n_trivial_rows: int
    q_E: int
    q_I: int


# --- parsing ----------------------------------------------------------

def _operand(text: str, coef_names, label: str):
    """One operand of a chain: a list of coefficient names, or a float.

    An operand wrapped in parentheses, other than ``(Intercept)`` itself,
    is a group of comma-separated names; any other operand is a number
    when ``_NUM_RE`` matches all of it and its value is finite, else a
    single name.  Every name is ``(Intercept)`` or matches ``_NAME_RE``,
    and is in the model.
    """
    group = text[:1] == "(" and text[-1:] == ")" and text != _INTERCEPT
    if not group and _NUM_RE.fullmatch(text) and math.isfinite(float(text)):
        return float(text)
    names = text[1:-1].split(",") if group else [text]
    for name in names:
        if name != _INTERCEPT and not _NAME_RE.fullmatch(name):
            raise HypothesisSyntaxError(
                f"{label}: {text!r} is not a coefficient name, a finite number "
                "or a group of names"
            )
        if name not in coef_names:
            known = ", ".join(coef_names)
            raise HypothesisSyntaxError(
                f"{label}: unknown coefficient name {name!r}; model has: {known}"
            )
    return names


def _parse_segment(segment: str, coef_names, label: str) -> ConstraintSystem:
    text = "".join(segment.split())
    if not text:
        raise HypothesisSyntaxError(f"{label}: empty hypothesis segment")
    parts = re.split(r"([<>=])", text)
    if len(parts) < 3:
        raise HypothesisSyntaxError(
            f"{label}: a hypothesis must contain at least one comparison"
        )
    operands = [_operand(part, coef_names, label) for part in parts[::2]]

    k = len(coef_names)
    index = {name: j for j, name in enumerate(coef_names)}
    rows = {">": ([], []), "=": ([], [])}
    for left, op, right in zip(operands, parts[1::2], operands[1:]):
        if op == "<":
            left, op, right = right, ">", left
        for li in left if isinstance(left, list) else [left]:
            for ri in right if isinstance(right, list) else [right]:
                row = np.zeros(k)
                rhs = 0.0
                if isinstance(li, str):
                    row[index[li]] += 1.0
                else:
                    rhs -= li
                if isinstance(ri, str):
                    row[index[ri]] -= 1.0
                else:
                    rhs += ri
                if not np.any(row):
                    raise HypothesisSyntaxError(
                        f"{label}: comparison has no coefficient content"
                    )
                rows[op][0].append(row)
                rows[op][1].append(rhs)
    (eq_rows, eq_rhs), (ineq_rows, ineq_rhs) = rows["="], rows[">"]

    # A dependent equality row must agree with the rows it depends on and
    # is then dropped, keeping the first independent rows in text order.
    if eq_rows and np.linalg.matrix_rank(np.array(eq_rows)) < len(eq_rows):
        A = np.array(eq_rows)
        b = np.array(eq_rhs)
        sol, *_ = np.linalg.lstsq(A, b, rcond=None)
        if not np.allclose(A @ sol, b, atol=1e-9, rtol=1e-9):
            raise InconsistentEqualityError(
                f"{label}: contradictory equality constraints"
            )
        ind_rows, ind_rhs = [], []
        for row, rhs in zip(eq_rows, eq_rhs):
            if np.linalg.matrix_rank(np.array(ind_rows + [row])) > len(ind_rows):
                ind_rows.append(row)
                ind_rhs.append(rhs)
        eq_rows, eq_rhs = ind_rows, ind_rhs

    return ConstraintSystem(
        label,
        text,
        np.array(eq_rows).reshape(-1, k),
        np.array(eq_rhs, dtype=float),
        np.array(ineq_rows).reshape(-1, k),
        np.array(ineq_rhs, dtype=float),
    )


def parse_hypotheses(text: str, coef_names) -> list:
    """Parse semicolon-separated hypothesis text into constraint systems.

    Labels run H1, H2, ... in textual order.  The special text
    ``exploratory`` contains no constraint systems and yields an empty
    list; use :func:`is_exploratory` to detect it up front.
    """
    coef_names = tuple(coef_names)
    if is_exploratory(text):
        return []
    segments = text.split(";")
    systems = []
    for i, segment in enumerate(segments, start=1):
        systems.append(_parse_segment(segment, coef_names, f"H{i}"))
    return systems


# --- validation -------------------------------------------------------

def validate(cs: ConstraintSystem) -> ValidationReport:
    """Check a constraint system for feasibility and report its structure.

    :attr:`ConstraintSystem.reduction` substitutes the equalities into the
    inequalities; it raises :class:`InconsistentEqualityError` for
    dependent equality rows and :class:`InfeasibleHypothesisError` for a
    row that reduces to ``0 > c`` with ``c >= 0``, and drops the rows that
    reduce to a vacuously true statement or that another row implies,
    counted here in ``n_trivial_rows``.  A live inequality system with an
    empty interior raises :class:`InfeasibleHypothesisError`: the largest
    slack ``t <= 1`` with ``Rt xi >= rt + t`` must exceed ``1e-9 (1 + max
    |rt|)``.  It is the cap 1 for full row rank; only rank-deficient rows
    solve the LP.
    """
    Rt, rt = cs.reduction.Rtilde_I, cs.reduction.rtilde_I
    q, d = Rt.shape
    rank = 0
    if q:
        rank = int(np.linalg.matrix_rank(Rt))
        slack = 1.0
        if rank < q:
            res = linprog(
                c=np.append(np.zeros(d), -1.0),
                A_ub=np.hstack([-Rt, np.ones((q, 1))]),
                b_ub=-rt,
                bounds=[(None, None)] * d + [(None, 1.0)],
                method="highs",
            )
            slack = -res.fun if res.status == 0 else -np.inf
        if slack <= 1e-9 * (1.0 + float(np.abs(rt).max(initial=0.0))):
            raise InfeasibleHypothesisError(
                f"{cs.label}: the inequality system has an empty interior"
            )
    return ValidationReport(cs.label, rank, cs.q_I - q, cs.q_E, cs.q_I)
