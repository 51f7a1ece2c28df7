"""Matrix ingestion, covariance/kernel construction, and benchmark data.

File formats: MatrixMarket (coordinate and array, general and symmetric)
and dense CSV with an optional header row (a first line with no number).
The writers serialize floats with ``repr``, so a save/load round trip is
bit exact.

Synthetic data follows a spiked model: a Hadamard basis on both sides, one
dominant singular value (100) ahead of an exponentially decaying tail, the
right basis twisted by a fixed schedule of disjoint plane rotations, plus
i.i.d. Gaussian noise. Noise is drawn as ziggurat normal variates from a
counter-based Philox generator, so datasets reproduce bit-for-bit across
platforms for a given seed.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import hadamard

from . import matrix as _matrix
from .errors import (
    DimensionNotDivisibleBy4,
    InvalidKernelParams,
    NonConvergenceWarning,
    NonFiniteEntries,
    NotPowerOfTwo,
    NotPSD,
    NotPsdWarning,
    ParseError,
    ZeroVarianceColumn,
)
from .matrix import SymmetricMatrix, ensure_psd, symmetrize


@dataclass(frozen=True)
class DataMatrix:
    """A samples-by-features matrix with cached column means."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"expected a nonempty 2-d array, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("data matrix contains NaN or infinite entries")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def m(self):
        return int(self.entries.shape[0])

    @property
    def n(self):
        return int(self.entries.shape[1])

    @property
    def column_means(self):
        return self.entries.mean(axis=0)


# ---------------------------------------------------------------------------
# File I/O


def _parse_float(token, lineno, column):
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"expected a number, got {token!r}", lineno, column) from None


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def _parse_int(token, lineno, column):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", lineno, column) from None


# The line breaks of str.splitlines, once read_text has turned "\r" and "\r\n"
# into "\n". Every line number a ParseError reports counts these breaks.
_LINE_BREAK = re.compile("[\n\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")

# A comment line in text whose lines are joined by "\n": optional blanks, then "%".
_COMMENT_LINE = re.compile(r"^[^\S\n]*%.*$", re.MULTILINE)


def _is_content(line):
    return line.strip() and not line.lstrip().startswith("%")


def _content_lines(text, lineno):
    """(line number, line) for each non-blank, non-comment line; ``text`` starts at ``lineno``."""
    for lineno, line in enumerate(text.splitlines(), start=lineno):
        if _is_content(line):
            yield lineno, line


def _line_at(text, start):
    """The line of ``text`` that begins at offset ``start``, and the offset after its break."""
    brk = _LINE_BREAK.search(text, start)
    end = brk.start() if brk else len(text)
    return text[start:end], end + 1


def _read_preamble(text):
    """(layout, symmetry, size line number, size tokens, text after the size line).

    Only the lines up to the size line are scanned, one at a time, so the
    body is never split into lines here.
    """
    if not text:
        raise ParseError("empty file", 1)
    header_line, start = _line_at(text, 0)
    header = header_line.split()
    if len(header) != 5 or header[0] != "%%MatrixMarket" or header[1] != "matrix":
        raise ParseError("missing '%%MatrixMarket matrix' header", 1)
    layout, dtype, shape = header[2].lower(), header[3].lower(), header[4].lower()
    if layout not in ("coordinate", "array"):
        raise ParseError(f"unsupported layout {layout!r}", 1, 3)
    if dtype not in ("real", "integer"):
        raise ParseError(f"unsupported field type {dtype!r}", 1, 4)
    if shape not in ("general", "symmetric"):
        raise ParseError(f"unsupported symmetry {shape!r}", 1, 5)

    lineno = 1
    while start < len(text):
        size_line, start = _line_at(text, start)
        lineno += 1
        if _is_content(size_line):
            return layout, shape, lineno, size_line.split(), text[start:]
    raise ParseError("missing size line", lineno)


def _read_matrix_market(path):
    """Dense array from a MatrixMarket file (symmetric storage expanded to full).

    A square ``general`` array whose mirrored tokens are equal strings has only
    its lower triangle converted (see :func:`_mirrored_lower`). Equal strings
    give equal doubles, so the array is bit for bit the one the full conversion
    gives.
    """
    # the whole text is dropped once the preamble returns; only the body is kept
    layout, shape, size_lineno, size_tokens, body = _read_preamble(Path(path).read_text())

    if layout == "coordinate":
        if len(size_tokens) != 3:
            raise ParseError("coordinate size line needs 'rows cols nnz'", size_lineno)
        rows = _parse_int(size_tokens[0], size_lineno, 1)
        cols = _parse_int(size_tokens[1], size_lineno, 2)
        nnz = _parse_int(size_tokens[2], size_lineno, 3)
        entries = list(_content_lines(body, size_lineno + 1))
        if len(entries) != nnz:
            raise ParseError(f"expected {nnz} entries, found {len(entries)}", size_lineno)
        arr = np.zeros((rows, cols))
        for lineno, line in entries:
            tokens = line.split()
            if len(tokens) != 3:
                raise ParseError("coordinate entry needs 'i j value'", lineno)
            i = _parse_int(tokens[0], lineno, 1) - 1
            j = _parse_int(tokens[1], lineno, 2) - 1
            if not (0 <= i < rows and 0 <= j < cols):
                raise ParseError(f"index ({i + 1}, {j + 1}) out of range", lineno)
            value = _parse_float(tokens[2], lineno, 3)
            arr[i, j] = value
            if shape == "symmetric":
                arr[j, i] = value
        return arr

    if len(size_tokens) != 2:
        raise ParseError("array size line needs 'rows cols'", size_lineno)
    rows = _parse_int(size_tokens[0], size_lineno, 1)
    cols = _parse_int(size_tokens[1], size_lineno, 2)
    # One str.split() over the text after the size line, and one float() per
    # token straight into the array. str.split() breaks at every line break
    # str.splitlines knows, so the body is cut into lines only when a "%"
    # occurs: rejoined by "\n", the one break _COMMENT_LINE knows, its comment
    # lines are blanked, which keeps the line numbers for the error pass below.
    if "%" in body:
        body = _COMMENT_LINE.sub("", "\n".join(body.splitlines()))
    tokens = body.split()
    if shape == "general" and rows == cols and len(tokens) == rows * cols:
        lower = _mirrored_lower(tokens, rows)
        if lower is not None:
            try:
                return _lower_to_full(rows, _floats(lower))
            except ValueError:
                pass  # the full conversion below fails too, and names the position
    try:
        values = _floats(tokens)
    except ValueError:
        # the same float() token by token, to report the failing position
        for lineno, line in _content_lines(body, size_lineno + 1):
            for column, token in enumerate(line.split(), start=1):
                _parse_float(token, lineno, column)
        raise
    if shape == "symmetric":
        if rows != cols:
            raise ParseError("symmetric array must be square", size_lineno)
        expected = rows * (rows + 1) // 2
        if len(values) != expected:
            raise ParseError(f"expected {expected} lower-triangle values, found {len(values)}",
                             size_lineno)
        return _lower_to_full(rows, values)
    if len(values) != rows * cols:
        raise ParseError(f"expected {rows * cols} values, found {len(values)}", size_lineno)
    return values.reshape((cols, rows)).T  # column-major


def _floats(tokens):
    """One float() per token of the list ``tokens``, straight into an array."""
    return np.fromiter(map(float, tokens), dtype=float, count=len(tokens))


def _mirrored_lower(tokens, n):
    """The column-major lower-triangle tokens of the column-major n x n ``tokens``,
    or None when a token below the diagonal differs from its mirror image."""
    lower = []
    for j in range(n):
        column = tokens[j * n + j : (j + 1) * n]
        if column[1:] != tokens[(j + 1) * n + j :: n]:
            return None
        lower += column
    return lower


def _lower_to_full(n, values):
    """The n x n symmetric array whose column-major lower triangle is ``values``."""
    arr = np.zeros((n, n))
    j, i = np.triu_indices(n)  # column-major lower triangle: (i, j) with i >= j
    arr[i, j] = values
    arr[j, i] = values
    return arr


def _read_csv(path):
    lines = Path(path).read_text().splitlines()
    rows, linenos = [], []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        tokens = [t.strip() for t in line.split(",")]
        if lineno == 1 and not any(map(_is_number, tokens)):
            continue  # a header row: a first line holding a number is data
        rows.append([_parse_float(t, lineno, c + 1) for c, t in enumerate(tokens)])
        linenos.append(lineno)
    if not rows:
        raise ParseError("no data rows", max(len(lines), 1))
    width = len(rows[0])
    for lineno, row in zip(linenos, rows):
        if len(row) != width:
            raise ParseError(f"row has {len(row)} columns, expected {width}", lineno)
    return np.array(rows)


def _sniff_format(path, fmt):
    if fmt is not None:
        return fmt
    suffix = Path(path).suffix.lower()
    if suffix in (".mtx", ".mm"):
        return "matrix_market"
    if suffix == ".csv":
        return "dense_csv"
    raise ValueError(f"cannot infer format from {path!r}; pass format explicitly")


def load_matrix(path, format=None, kind="symmetric"):
    """Load a matrix file as a :class:`SymmetricMatrix` or :class:`DataMatrix`.

    ``kind="symmetric"`` routes through :func:`symmetrize` (MatrixMarket
    symmetric storage is expanded to full first); ``kind="data"`` returns
    the raw rectangle. Either kind converts only the lower triangle of a
    square dense general array whose mirrored tokens are equal strings, with
    the same result.
    """
    fmt = _sniff_format(path, format)
    if fmt == "matrix_market":
        arr = _read_matrix_market(path)
    elif fmt == "dense_csv":
        arr = _read_csv(path)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if kind == "symmetric":
        return symmetrize(arr)
    if kind == "data":
        return DataMatrix(arr)
    raise ValueError(f"unknown kind {kind!r}")


def save_matrix(path, matrix, format=None, metadata=None):
    """Write a matrix to disk, bit-exactly recoverable by :func:`load_matrix`.

    ``matrix`` may be a SymmetricMatrix, DataMatrix, or plain 2-d array.
    When ``metadata`` is given, a JSON sidecar is written next to the file.
    """
    if isinstance(matrix, (SymmetricMatrix, DataMatrix)):
        arr = matrix.entries
    else:
        arr = np.asarray(matrix, dtype=float)
    fmt = _sniff_format(path, format)
    path = Path(path)
    if fmt == "matrix_market":
        rows, cols = arr.shape
        out = ["%%MatrixMarket matrix array real general", f"{rows} {cols}"]
        out.extend(map(repr, arr.T.ravel().tolist()))  # column-major per the array layout
        path.write_text("\n".join(out) + "\n")
    elif fmt == "dense_csv":
        path.write_text("\n".join(",".join(map(repr, row)) for row in arr.tolist()) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if metadata is not None:
        sidecar = path.with_name(path.name + ".meta.json")
        sidecar.write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Covariance / correlation / kernels


def unit_row_normalize(A: SymmetricMatrix, max_iters=64, tol=1e-8) -> SymmetricMatrix:
    """Symmetric iterative scaling toward unit Euclidean row norms.

    Repeats ``A <- D^{-1/2} A D^{-1/2}`` with D the diagonal of row norms;
    the congruence keeps the matrix PSD. Each sweep roughly halves the
    deviation on low-rank sample covariances, which then need more than 25
    sweeps. Warns with :class:`NonConvergenceWarning` if the deviation is
    still above ``tol`` after ``max_iters`` sweeps.
    """
    entries = A.entries.copy()
    deviation = np.inf
    for _ in range(max_iters):
        norms = np.linalg.norm(entries, axis=1)
        deviation = float(np.abs(norms - 1.0).max())
        if deviation <= tol:
            break
        if np.any(norms <= 0):
            raise ZeroVarianceColumn("cannot normalize a matrix with a zero row")
        _scale_rows_and_columns(entries, 1.0 / np.sqrt(norms))
    else:
        norms = np.linalg.norm(entries, axis=1)
        deviation = float(np.abs(norms - 1.0).max())
        if deviation > tol:
            warnings.warn(
                f"row normalization stopped at deviation {deviation:.3e} after "
                f"{max_iters} iterations",
                NonConvergenceWarning,
            )
    return symmetrize(entries)


# Smallest nonzero |X_c| entry for which covariance_from_data's rounding bound
# holds: its squares, and the products of F's entries, stay normal.
_UNDERFLOW_FREE = 2.0**-400
_SQRT_FLOAT_MAX = math.sqrt(_matrix._FLOAT_MAX)


def covariance_from_data(X: DataMatrix, center=True, to_correlation=False) -> SymmetricMatrix:
    """Sample covariance ``A = F.T F`` of the scaled data factor F.

    F is formed once, in place: ``X_c`` (X less its column means, or X itself
    without ``center``) divided by ``sqrt(d)``, ``d = max(m - 1, 1)``, and
    under ``to_correlation`` by the column standard deviations, with the
    diagonal of A set to 1.0. There a column of zero variance raises
    :class:`~spcakit.errors.ZeroVarianceColumn`, and one whose sum of squares
    overflows :class:`~spcakit.errors.NonFiniteEntries`.

    A is certified PSD here, so :func:`spcakit.matrix.ensure_psd` passes it at
    once, when ``m (m + 8) eps <= PSD_SLACK / 2`` (every m <= 4741) and no
    nonzero entry of ``X_c`` lies below ``2**-400`` in magnitude. For the
    stored F, ``P = F.T F`` and ``Q = |F|.T |F|`` are exactly PSD with one
    diagonal, and P has rank at most m. With ``gamma_k = k u / (1 - k u)``,
    ``u = eps / 2`` (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 3.1 and 3.5), each entry of A is an m-term dot product within
    ``gamma_m Q_ij`` of ``P_ij``; under ``to_correlation`` the diagonal 1.0 is
    within ``gamma_(m+11) P_ii`` (the sum of squares, its quotient by d, and,
    squared, the square root, the reciprocal, ``sqrt(d)`` and the two
    operations on each entry of F). As ``||Q||_2 <= tr P <= m lambda_max(P)``,
    and by Weyl's inequality, ``||A - P||_2 <= c lambda_max(P) <= c (||A||_2 +
    ||A - P||_2)`` with ``c = m gamma_m``, plus ``gamma_(m+11)`` under
    ``to_correlation`` (``gamma_1 + gamma_7`` at m = 1, where d = 1 makes five
    roundings exact). So ``lambda_min(A) >= -c ||A||_2 / (1 - c)``, and for m
    <= 4741 ``c / (1 - c) <= (m**2 + m + 11) u (1 + 1e-8)``, below ``m (m + 8)
    u <= PSD_SLACK / 4`` from m = 2 on (9 u bounds it at m = 1); the factor 4
    absorbs any error of the computed norm. The bounds assume no underflow:
    the squares of ``X_c`` stay normal, and so do the products of F's entries,
    at least ``2**-407`` as ``sqrt(d) < 2**7``. Under ``to_correlation`` those
    are at least ``2**-919``, and a product that underflows errs by at most
    ``2**-1075``, far below the slack of a unit diagonal. Other covariances
    are checked like any matrix.

    When ``2 m < n`` and no entry underflows as above, A also carries F. When
    A is also certified, and the sum of squares of ``X_c`` is at most half
    the largest float (so no entry nor the trace can overflow), it holds F
    alone: ``trace`` is ``||F||_F^2`` (exactly n under ``to_correlation``),
    and the entries are built on their first read. Every other covariance is
    built dense, and raises :class:`NonFiniteEntries` when its entries or
    trace overflow.
    """
    X_c = X.entries
    if center:
        if X.m < 2:
            raise ValueError("centering requires at least two samples")
        X_c = X_c - X.column_means
    denom = max(X.m - 1, 1)
    exact_products = _UNDERFLOW_FREE <= np.min(np.abs(X_c), where=X_c != 0.0, initial=np.inf)
    squares = np.einsum("ij,ij->j", X_c, X_c)  # diagonal of X_c.T X_c
    # in place when X_c is the centered copy; X's own entries are read-only
    F = np.divide(X_c, math.sqrt(denom), out=X_c if center else None)
    if to_correlation:
        variances = squares / denom
        if np.any(variances <= 0):
            raise ZeroVarianceColumn(f"column {int(np.argmin(variances))} has zero variance")
        if not np.isfinite(variances).all():
            raise NonFiniteEntries(f"column {int(np.argmax(variances))}'s sum of squares overflows")
        F *= 1.0 / np.sqrt(variances)
    F.flags.writeable = False
    # PSD_SLACK is read at call time, so a caller that lowers it is obeyed.
    rounding = X.m * (X.m + 8) * float(np.finfo(float).eps)
    certified = bool(exact_products) and rounding <= _matrix.PSD_SLACK / 2.0
    wide = 2 * X.m < X.n and exact_products
    with np.errstate(over="ignore"):
        total = float(squares.sum())
    if wide and certified and total <= _matrix._FLOAT_MAX / 2.0:
        trace = float(X.n) if to_correlation else total / denom
        out = SymmetricMatrix._from_factor(F, trace, lambda: _covariance_entries(F, to_correlation))
    else:
        out = symmetrize(_covariance_entries(F, to_correlation))
        out._factor = F if wide else None
    out._psd = certified
    return out


def _covariance_entries(F, unit_diagonal):
    """``F.T @ F``, its diagonal set to 1.0 under ``unit_diagonal``. Bitwise
    symmetric: NumPy computes it as a symmetric rank-k update (syrk)."""
    entries = F.T @ F
    if unit_diagonal:
        np.fill_diagonal(entries, 1.0)
    return entries


def _scale_rows_and_columns(arr, scale):
    """Multiply row and column i of the square ``arr`` by ``scale[i]``, in place.

    By ``outer(scale, scale)``: ``s_i s_j == s_j s_i`` bit for bit, so a
    bitwise symmetric ``arr`` stays so, and :func:`symmetrize` copies it
    without an averaging pass. A scale above ``sqrt`` of the largest float,
    from a subnormal row norm, could overflow that product; such input is
    scaled as ``(a_ij s_i) s_j`` instead, which stays finite.
    """
    if scale.max() <= _SQRT_FLOAT_MAX:
        arr *= np.outer(scale, scale)
    else:
        arr *= scale[:, None]
        arr *= scale[None, :]


def kernel_matrix(
    X: DataMatrix,
    kernel="linear",
    degree=2,
    c=1.0,
    gamma=None,
    center_in_feature_space=False,
) -> SymmetricMatrix:
    """Gram matrix over the rows of X for a named kernel.

    All m^2 entries are evaluated explicitly. ``rbf`` uses
    ``exp(-gamma ||x_i - x_j||^2)``; ``polynomial`` uses
    ``(<x_i, x_j> + c) ** degree``. Optional double centering maps the
    implicit features to zero mean.
    """
    G = X.entries @ X.entries.T
    if kernel == "linear":
        K = G
    elif kernel == "polynomial":
        if degree < 1 or int(degree) != degree:
            raise InvalidKernelParams(f"degree must be a positive integer, got {degree}")
        K = (G + c) ** int(degree)
    elif kernel == "rbf":
        if gamma is None or gamma <= 0:
            raise InvalidKernelParams(f"rbf requires gamma > 0, got {gamma}")
        sq = np.diag(G)
        dist2 = sq[:, None] + sq[None, :] - 2.0 * G
        K = np.exp(-gamma * np.maximum(dist2, 0.0))
    else:
        raise InvalidKernelParams(f"unknown kernel {kernel!r}")
    if center_in_feature_space:
        # J K J for J = I - 11^T / m, from the means of the symmetric K; the
        # sum of the mean vectors keeps it bitwise symmetric.
        mu = K.mean(axis=0)
        K = K - (mu[:, None] + mu[None, :]) + mu.mean()
    out = symmetrize(K)
    # user-supplied parameters can produce an invalid (indefinite) kernel;
    # flag it rather than fail, since downstream solvers validate again
    try:
        ensure_psd(out)
    except NotPSD as exc:
        warnings.warn(f"kernel matrix is not PSD: {exc}", NotPsdWarning)
    return out


# ---------------------------------------------------------------------------
# Synthetic spiked model


def hadamard_basis(p: int) -> np.ndarray:
    """Sylvester Hadamard matrix scaled by p^(-1/2): orthonormal columns."""
    if p < 1 or p & (p - 1) != 0:
        raise NotPowerOfTwo(f"p={p} is not a power of two")
    return hadamard(p).astype(float) / math.sqrt(p)


def givens_composition_apply(vtilde: np.ndarray, theta: float) -> np.ndarray:
    """Apply the fixed schedule of disjoint plane rotations to the rows of an n x c array.

    The 1-indexed plane pairs are (n/2 + 2t - 1, n/2 + 2t) for
    t = 1 .. n/4, which tile the bottom half of the rows; because the pairs
    are disjoint, the composition order is immaterial. Each column is rotated
    on its own, so rotating some columns of a basis gives exactly those
    columns of the rotated basis. theta = 0 returns the input unchanged.
    """
    vtilde = np.asarray(vtilde, dtype=float)
    if vtilde.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {vtilde.shape}")
    n = vtilde.shape[0]
    if n % 4 != 0:
        raise DimensionNotDivisibleBy4(f"n={n} is not divisible by 4")
    out = vtilde.copy()
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    # Plane t holds 0-indexed rows n/2 + 2t - 2 and n/2 + 2t - 1.
    top, bottom = vtilde[n // 2 :: 2], vtilde[n // 2 + 1 :: 2]
    out[n // 2 :: 2] = cos_t * top - sin_t * bottom
    out[n // 2 + 1 :: 2] = sin_t * top + cos_t * bottom
    return out


@dataclass(frozen=True)
class SyntheticConfig:
    """Spiked-model parameters: sizes, rotation angle, noise scale, seed."""

    m: int
    n: int
    theta: float = 0.27 * math.pi
    sigma: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        for label, p in (("m", self.m), ("n", self.n)):
            if p < 1 or p & (p - 1) != 0:
                raise NotPowerOfTwo(f"{label}={p} is not a power of two")
        if self.n < 4:
            raise ValueError("n must be at least 4 for the rotation schedule")
        if self.m > self.n:
            raise ValueError("the singular-value block requires m <= n")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


def synthetic_spiked(cfg: SyntheticConfig) -> DataMatrix:
    """Sample the spiked model X = U S V.T + noise.

    U is the m-dimensional Hadamard basis; the diagonal of S is
    (100, e^-2, e^-3, ..., e^-m) padded with zero columns; V is the
    n-dimensional Hadamard basis twisted by the rotation schedule. With
    sigma = 0 the singular values of X are exactly the diagonal of S.

    Only the first m columns of V meet a nonzero singular value. Sylvester's
    construction gives H_n = kron(H_(n/m), H_m), and the first column of
    H_(n/m) is all ones, so those columns are H_m stacked n/m times: the same
    values as in the full basis, without building the other n - m columns.
    """
    left = hadamard_basis(cfg.m)
    columns = np.tile(hadamard(cfg.m), (cfg.n // cfg.m, 1)).astype(float) / math.sqrt(cfg.n)
    right = givens_composition_apply(columns, cfg.theta)  # V[:, :m]
    spectrum = np.exp(-np.arange(1, cfg.m + 1, dtype=float))
    spectrum[0] = 100.0
    core = (left * spectrum) @ right.T  # U @ diag(s) @ V[:, :m].T
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    noise = cfg.sigma * rng.standard_normal((cfg.m, cfg.n)) if cfg.sigma > 0 else 0.0
    return DataMatrix(core + noise)


# ---------------------------------------------------------------------------
# Pit props benchmark

PIT_PROPS_VARIABLES = (
    "topdiam", "length", "moist", "testsg", "ovensg", "ringtop", "ringbut",
    "bowmax", "bowdist", "whorls", "clear", "knots", "diaknot",
)

# Correlation matrix of the 13 pit props variables (Jeffers, 1967; 180
# observations), lower triangle by row in the variable order above.
_PIT_PROPS_LOWER = (
    (1.0,),
    (0.954, 1.0),
    (0.364, 0.297, 1.0),
    (0.342, 0.284, 0.882, 1.0),
    (-0.129, -0.118, -0.148, 0.220, 1.0),
    (0.313, 0.291, 0.153, 0.381, 0.364, 1.0),
    (0.496, 0.503, -0.029, 0.174, 0.296, 0.813, 1.0),
    (0.424, 0.419, -0.054, -0.059, 0.004, 0.090, 0.372, 1.0),
    (0.592, 0.648, 0.125, 0.137, -0.039, 0.211, 0.465, 0.482, 1.0),
    (0.545, 0.569, -0.081, -0.014, 0.037, 0.274, 0.679, 0.557, 0.526, 1.0),
    (0.084, 0.076, 0.162, 0.097, 0.091, -0.036, -0.113, 0.061, 0.085, -0.319, 1.0),
    (-0.019, -0.036, 0.220, 0.169, -0.145, 0.024, -0.232, -0.357, -0.127, -0.368, 0.029, 1.0),
    (0.134, 0.144, 0.126, 0.015, -0.208, -0.329, -0.424, -0.202, -0.076, -0.291, 0.007, 0.184, 1.0),
)


def pit_props() -> SymmetricMatrix:
    """The 13x13 pit props correlation matrix (unit diagonal, trace 13)."""
    n = len(PIT_PROPS_VARIABLES)
    arr = np.zeros((n, n))
    i, j = np.tril_indices(n)  # row-major lower triangle, the order of _PIT_PROPS_LOWER
    values = np.concatenate(_PIT_PROPS_LOWER)
    arr[i, j] = values
    arr[j, i] = values
    return symmetrize(arr)
