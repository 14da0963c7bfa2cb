"""CSV ingestion and ordinary least squares fitting.

The regression summary kept around is deliberately minimal: coefficient
names, the estimate vector, the *raw* residual sum of squares ``s2``
(never divided by the residual degrees of freedom), ``(X'X)^{-1}``, and
the dimensions ``n`` and ``k``.  Everything downstream is a function of
these five pieces.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormulaError

_MISSING_TOKENS = {"", "na", "nan", "n/a", "null"}


@dataclass(frozen=True)
class Dataset:
    """Rectangular numeric data with named columns."""

    column_names: tuple
    columns: np.ndarray
    n_dropped: int = 0

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        names = tuple(self.column_names)
        if cols.ndim != 2:
            raise DataError("columns must form a 2-d array")
        if cols.shape[1] != len(names):
            raise DataError("column count does not match the number of names")
        if len(set(names)) != len(names):
            raise DataError("duplicate column names")
        if cols.size and not np.all(np.isfinite(cols)):
            raise DataError("data contain non-finite values")
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "column_names", names)

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.column_names.index(name)
        except ValueError:
            raise DataError(f"unknown column {name!r}") from None
        return self.columns[:, j]


@dataclass(frozen=True)
class RegressionFit:
    """OLS summary: everything later stages need, nothing more.

    ``s2`` is the raw residual sum of squares ``||y - X beta_hat||^2``.
    """

    coef_names: tuple
    beta_hat: np.ndarray
    s2: float
    xtx_inv: np.ndarray
    n: int
    k: int

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta_hat, dtype=float))
        xtx = np.asarray(self.xtx_inv, dtype=float)
        names = tuple(self.coef_names)
        k = int(self.k)
        if beta.shape != (k,) or xtx.shape != (k, k) or len(names) != k:
            raise DataError("inconsistent fit dimensions")
        if not (self.s2 > 0 and np.isfinite(self.s2)):
            raise DataError("s2 must be positive and finite")
        if int(self.n) <= k + 1:
            raise DataError("fit requires n >= k + 2")
        object.__setattr__(self, "coef_names", names)
        object.__setattr__(self, "beta_hat", beta)
        object.__setattr__(self, "s2", float(self.s2))
        object.__setattr__(self, "xtx_inv", xtx)
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "k", k)


def _is_missing(cell: str) -> bool:
    return cell.strip().lower() in _MISSING_TOKENS


def load_csv(path, delimiter=",") -> Dataset:
    """Read a delimited text file with a header row into a :class:`Dataset`.

    The file is read as UTF-8; a leading byte-order mark, as spreadsheet
    programs write, is dropped.  Numeric columns are parsed as floats.
    Non-numeric columns with exactly two distinct values are coded 0/1 in
    order of first appearance; any other non-numeric column is rejected.
    Rows containing a missing cell (empty, NA, NaN, null) are dropped and
    counted in ``n_dropped``.  :class:`~bfreg.errors.DataError` is raised
    for a ``delimiter`` that is not one character and for a file that is
    not UTF-8.
    """
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise DataError(f"delimiter {delimiter!r} is not one character")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh, delimiter=delimiter)]
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    rows = [row for row in rows if row and any(c.strip() != "" for c in row)]
    if not rows:
        raise DataError(f"{path}: no data")
    header = [h.strip() for h in rows[0]]
    if any(h == "" for h in header):
        raise DataError(f"{path}: blank column name in header")
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    body = rows[1:]
    for i, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise DataError(
                f"{path}: line {i} has {len(row)} fields, expected {len(header)}"
            )
    kept = [row for row in body if not any(_is_missing(c) for c in row)]
    n_dropped = len(body) - len(kept)
    if not kept:
        raise DataError(f"{path}: no complete rows after dropping missing data")

    columns = []
    for j, name in enumerate(header):
        raw = [row[j].strip() for row in kept]
        try:
            vals = np.array([float(c) for c in raw])
        except ValueError:
            levels = []
            for c in raw:
                if c not in levels:
                    levels.append(c)
            if len(levels) != 2:
                raise DataError(
                    f"{path}: column {name!r} is non-numeric with "
                    f"{len(levels)} distinct values; only two-level columns "
                    "are coded 0/1"
                ) from None
            vals = np.array([0.0 if c == levels[0] else 1.0 for c in raw])
        if not np.all(np.isfinite(vals)):
            raise DataError(f"{path}: column {name!r} contains non-finite values")
        columns.append(vals)
    return Dataset(tuple(header), np.column_stack(columns), n_dropped)


def standardize(data: Dataset, which=None) -> Dataset:
    """Return a copy with the selected columns scaled to mean 0, sd 1.

    ``which`` is an iterable of column names; ``None`` standardizes every
    column.  The sample standard deviation (n-1 divisor) is used.
    """
    if data.n < 2:
        raise DataError("standardize needs at least two rows")
    names = data.column_names if which is None else tuple(which)
    cols = data.columns.copy()
    for name in names:
        if name not in data.column_names:
            raise DataError(f"unknown column {name!r}")
        j = data.column_names.index(name)
        v = cols[:, j]
        mu = float(v.mean())
        sd = float(v.std(ddof=1))
        if sd <= 1e-12 * max(1.0, abs(mu)):
            raise DataError(f"column {name!r} has zero sample variance")
        cols[:, j] = (v - mu) / sd
    return Dataset(data.column_names, cols, data.n_dropped)


def _formula_terms(rhs: str):
    """Split the right-hand side on +/- keeping the sign of each term: the
    operator just before it, ``+`` before the first.  Empty terms are
    dropped."""
    parts = re.split(r"([+-])", rhs)
    terms = [
        (1 if op == "+" else -1, term.strip())
        for op, term in zip(["+", *parts[1::2]], parts[::2])
        if term.strip()
    ]
    if not terms:
        raise FormulaError("formula has an empty right-hand side")
    return terms


def parse_formula(formula: str):
    """Parse ``"y ~ x1 + x2"`` into (response, terms, intercept).

    ``- 1`` or ``+ 0`` on the right-hand side removes the intercept; an
    explicit ``1`` keeps it.  Term removal beyond the intercept is not
    supported.
    """
    if formula.count("~") != 1:
        raise FormulaError(f"formula {formula!r} must contain exactly one '~'")
    lhs, rhs = formula.split("~")
    response = lhs.strip()
    if not response:
        raise FormulaError("formula is missing a response variable")
    intercept = True
    terms = []
    for sign, tok in _formula_terms(rhs):
        if tok in ("0", "1"):
            if (tok == "1" and sign < 0) or (tok == "0" and sign > 0):
                intercept = False
            elif tok == "1":
                intercept = True
            else:
                raise FormulaError("'- 0' is not a valid formula term")
        elif sign < 0:
            raise FormulaError(f"cannot remove term {tok!r}; only '- 1' is supported")
        else:
            terms.append(tok)
    if not terms and not intercept:
        raise FormulaError("formula describes an empty model")
    if len(set(terms)) != len(terms):
        raise FormulaError("duplicate terms in formula")
    return response, terms, intercept


def fit_ols(data: Dataset, formula: str) -> RegressionFit:
    """Fit ``formula`` on ``data`` by QR-based least squares.

    Raises :class:`FormulaError` when a formula name is not a data
    column, and :class:`DataError` for a rank-deficient design, too few
    rows (``n < k + 2``), or a degenerate fit whose residual sum of
    squares is zero at working precision (an exact linear relationship
    leaves nothing for the error variance).
    """
    response, terms, intercept = parse_formula(formula)
    try:
        y = data.column(response)
    except DataError:
        raise FormulaError(f"response {response!r} is not a data column") from None
    pieces = []
    names = []
    if intercept:
        pieces.append(np.ones(data.n))
        names.append("(Intercept)")
    for t in terms:
        if t == response:
            raise FormulaError(f"response {t!r} cannot appear as a predictor")
        try:
            pieces.append(data.column(t))
        except DataError:
            raise FormulaError(f"term {t!r} is not a data column") from None
        names.append(t)
    X = np.column_stack(pieces)
    n, k = X.shape
    if n < k + 2:
        raise DataError(f"need at least k + 2 = {k + 2} rows, have {n}")

    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    if diag.min() <= max(n, k) * np.finfo(float).eps * diag.max():
        raise DataError("design matrix is rank deficient")
    beta = np.linalg.solve(R, Q.T @ y)
    resid = y - X @ beta
    s2 = float(resid @ resid)
    tss = float(np.sum((y - y.mean()) ** 2))
    if s2 <= max(n, k) * np.finfo(float).eps * tss or tss == 0.0:
        raise DataError(
            "degenerate fit: residual sum of squares is zero at working "
            "precision (the response is an exact linear function of the design)"
        )
    r_inv = np.linalg.inv(R)
    xtx_inv = r_inv @ r_inv.T
    return RegressionFit(tuple(names), beta, s2, xtx_inv, n, k)
