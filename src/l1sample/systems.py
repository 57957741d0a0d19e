"""Bounded orthonormal systems, index sets, sampling plans, and quadrature.

Four families are supported:

* ``fourier``: complex exponentials exp(2*pi*i*<k, x>) on the torus [0, 1)^d,
  orthonormal for the uniform measure, uniform bound 1.
* ``chebyshev``: 1 and sqrt(2)*cos(n*arccos x) on [-1, 1], orthonormal for
  the arcsine measure (1/pi)*(1-x^2)^(-1/2) dx, uniform bound sqrt(2).
* ``legendre_preconditioned``: w(x)*L_n(x) with weight
  w(x) = sqrt(pi)*(1-x^2)^(1/4) and L_n = sqrt(n+1/2)*P_n the normalized
  Legendre polynomial; orthonormal for the arcsine measure, uniform
  bound 4*sqrt(pi).
* ``legendre_raw``: the normalized Legendre polynomials L_n themselves.
  Orthonormal for the Lebesgue measure on [-1, 1] but with no uniform bound,
  hence excluded from measurement-matrix construction; points are sampled
  uniformly on [-1, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from numpy.polynomial.chebyshev import chebgauss
from numpy.polynomial.legendre import leggauss, legvander

FOURIER = "fourier"
CHEBYSHEV = "chebyshev"
LEGENDRE_PRECONDITIONED = "legendre_preconditioned"
LEGENDRE_RAW = "legendre_raw"

_ALL_KINDS = (FOURIER, CHEBYSHEV, LEGENDRE_PRECONDITIONED, LEGENDRE_RAW)

BOX = "box"
DEGREES = "degrees"


@dataclass(frozen=True)
class System:
    """Descriptor of an orthonormal system: family tag plus torus dimension.

    ``dim`` is only meaningful for the Fourier family; polynomial families
    are univariate.
    """

    kind: str
    dim: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _ALL_KINDS:
            raise ValueError(f"unknown system kind: {self.kind!r}")
        if self.dim < 1:
            raise ValueError("system dimension must be >= 1")
        if self.kind != FOURIER and self.dim != 1:
            raise ValueError("polynomial systems are univariate")

    def key(self, index) -> Union[int, tuple]:
        """The canonical key of one index: a ``dim``-tuple of ints on the
        torus, a nonnegative int degree otherwise.  It is the one-row read of
        ``_index_array``, so a key and an index array read alike: a d = 1
        Fourier key may be an int, a degree a 1-tuple, and a component any
        integral number int64 holds (2.0 reads as 2); anything else raises,
        naming the index."""
        try:
            row = _index_array(self, [index])[0].tolist()
        except ValueError as err:
            raise ValueError(f"index {index!r}: {err}") from None
        return tuple(row) if self.kind == FOURIER else row

    def to_json(self) -> dict:
        return {"kind": self.kind, "dim": self.dim}


def fourier_system(dim: int = 1) -> System:
    return System(FOURIER, dim)


def chebyshev_system() -> System:
    return System(CHEBYSHEV)


def legendre_preconditioned_system() -> System:
    return System(LEGENDRE_PRECONDITIONED)


def legendre_raw_system() -> System:
    return System(LEGENDRE_RAW)


# ---------------------------------------------------------------------------
# index sets


def _integral(arr: np.ndarray) -> bool:
    """Whether every entry is an integer int64 holds: 2.0 is; 2.5, inf, nan and 2**63 are not."""
    if arr.dtype.kind == "u":
        return bool(np.all(arr < 2**63))
    return arr.dtype.kind == "i" or arr.dtype.kind == "f" and bool(
        np.all((np.abs(arr) < 2.0**63) & (np.trunc(arr) == arr)))


@dataclass(frozen=True)
class IndexSet:
    """One of the two search sets: a ``box`` (the max-norm ball of radius M
    in Z^d) or the ``degrees`` 0..M.  Its indices are read by position
    (``at``, ``indices``); other index lists are plain sequences."""

    kind: str
    d: int = 1
    M: int = 0

    @property
    def half_width(self) -> int:
        """Max-norm radius of a box."""
        if self.kind == BOX:
            return self.M
        raise ValueError(f"half_width is undefined for kind {self.kind!r}")

    def __len__(self) -> int:
        if self.kind == BOX:
            return (2 * self.half_width + 1) ** self.d
        return self.M + 1

    def indices(self) -> np.ndarray:
        """All indices as an array: shape (N, d) for boxes, (N,) for degrees."""
        return self.at(np.arange(len(self)))

    def at(self, positions) -> np.ndarray:
        """The indices at ``positions`` of ``indices()``, without building
        the others: a box's flat positions unravelled in row-major order."""
        positions = np.asarray(positions, dtype=np.int64)
        if self.kind == BOX:
            R = self.half_width
            return np.stack(np.unravel_index(positions, (2 * R + 1,) * self.d), axis=-1) - R
        return positions


def make_index_set(kind: str, d: int = 1, M: int = 1) -> IndexSet:
    """Build one of the standard index families.

    ``box``: {k in Z^d : |k|_inf <= M}, cardinality (2M+1)^d.
    ``degrees``: {0, ..., M}, univariate like the polynomial systems.
    """
    if kind not in (BOX, DEGREES):
        raise ValueError(f"unknown index-set kind: {kind!r}")
    if d < 1 or M < 1:
        raise ValueError("index sets need d >= 1 and M >= 1")
    if kind == DEGREES and d != 1:
        raise ValueError("degree ranges are univariate: d must be 1")
    return IndexSet(kind, d, M)


# ---------------------------------------------------------------------------
# evaluation


def _torus_rows(arr: np.ndarray, d: int, what: str) -> np.ndarray:
    """Torus points or frequency vectors as an (n, d) array: a scalar or a
    1-d array is one coordinate per row in d = 1 and one row in d > 1."""
    if arr.ndim <= 1:
        arr = arr.reshape(-1, 1) if d == 1 else arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != d:
        raise ValueError(f"{what} dimension does not match the system")
    return arr


def _point_array(system: System, points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    # min and max propagate NaN and need no points-sized temporary
    if not (np.isfinite(pts.min(initial=0.0)) and np.isfinite(pts.max(initial=0.0))):
        raise ValueError("sample points must be finite")
    if system.kind == FOURIER:
        pts = _torus_rows(pts, system.dim, "point")
        # the bits of np.mod(pts, 1.0), which rounds the same exact a - floor(a)
        # once, at a tenth of its cost, in one points-sized array
        canonical = np.floor(pts)
        return np.subtract(pts, canonical, out=canonical)
    pts = np.atleast_1d(pts)
    if pts.ndim != 1:
        raise ValueError("polynomial systems take scalar points in [-1, 1]")
    if np.any(np.abs(pts) > 1.0 + 1e-12):
        raise ValueError("point outside the domain [-1, 1]")
    return np.clip(pts, -1.0, 1.0)


def _index_array(system: System, indices) -> np.ndarray:
    """Indices as int64: (n, d) frequency vectors on the torus, (n,) degrees
    otherwise, which may also come as an (n, 1) array of 1-tuples.  The one
    reading rule: ``System.key`` reads a single index as a one-row array
    here.  An entry that is not an integer int64 holds raises."""
    arr = indices.indices() if isinstance(indices, IndexSet) else np.asarray(indices)
    if not _integral(arr):
        raise ValueError("indices must be integers")
    arr = arr.astype(np.int64)
    if system.kind == FOURIER:
        return _torus_rows(arr, system.dim, "index")
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    arr = np.atleast_1d(arr)
    if arr.ndim != 1:
        raise ValueError("polynomial systems use scalar degree indices")
    if arr.min(initial=0) < 0:
        raise ValueError("polynomial degrees must be nonnegative")
    return arr


def _clamp_unit_modulus(A: np.ndarray) -> np.ndarray:
    # the exact basis values lie on the unit circle; rounding can push the
    # computed pair one ulp outside, which would break the bound |b| <= 1
    for _ in range(4):
        a = np.abs(A)
        if not np.any(a > 1.0):
            break
        np.divide(A, np.maximum(a, 1.0), out=A)
    return A


def _chebyshev_scale(degrees: np.ndarray) -> np.ndarray:
    """The normalization c_k of sqrt(2) cos(k arccos x): 1 at degree 0, else sqrt(2)."""
    return np.where(degrees == 0, 1.0, np.sqrt(2.0))


def _legendre_weight(points: np.ndarray) -> np.ndarray:
    """The preconditioning weight sqrt(pi) (1 - x^2)^(1/4) of the Legendre regime."""
    return np.sqrt(np.pi) * (1.0 - points**2) ** 0.25


def basis_matrix(system: System, indices, points) -> np.ndarray:
    """Evaluate basis functions on points: entry (l, j) = b_{j}(t_l).

    Fourier matrices are complex; polynomial matrices are real float64.
    """
    pts = _point_array(system, points)
    idx = _index_array(system, indices)
    if system.kind == FOURIER:
        A = np.exp(2j * np.pi * (pts @ idx.T))
        return _clamp_unit_modulus(A)
    if system.kind == CHEBYSHEV:
        theta = np.arccos(pts)
        # cos in place: assembly holds one m x N array, not two
        A = np.multiply.outer(theta, idx)
        np.cos(A, out=A)
        A *= _chebyshev_scale(idx)
        return A
    max_degree = int(idx.max()) if idx.size else 0
    # take, not V[:, idx]: a fancy index on the columns returns Fortran order
    A = legvander(pts, max_degree).take(idx, axis=1)
    A *= np.sqrt(idx + 0.5)
    if system.kind == LEGENDRE_PRECONDITIONED:
        A *= _legendre_weight(pts)[:, None]
    return A


def _power_table(u: np.ndarray, n: int) -> np.ndarray:
    """Rows u^0 .. u^(n-1) by successive products."""
    table = np.empty((n, u.shape[0]), dtype=np.complex128)
    table[0] = 1.0
    for i in range(1, n):
        np.multiply(table[i - 1], u, out=table[i])
    return table


def _digit_tables(u: np.ndarray, top: int, B: int):
    """The power tables of the base-B digits of 0..top, lowest digit first,
    one at a time: table i holds the rows (u^(B^i))^j for the digits j,
    0 <= j < B, the last one stopping at top's leading digit.  The factor of
    k = sum_i j_i B^i is the product of row j_i of each table i."""
    while True:
        top, lead = divmod(top, B)
        table = _power_table(u, B if top else lead + 1)
        yield table
        if not top:
            return
        u = table[B - 1] * u


# Largest base of _fourier_synthesis's digits.  Up to |k_a| = 1023 the digits
# are the two of k = b B + j; past it a digit is added instead, so the tables
# grow with log |k_a| rather than sqrt |k_a|.  Two terms with |k| <= 10^6 at
# 5,000 points peaked at 160 MB (66 ms) with two digits of base 1001, at
# 5.5 MB (4.8 ms) with four of base 32, and at 0.5 MB with the direct
# exponentials.
_RADIX = 32


def _fourier_synthesis(indices: np.ndarray, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """sum_k c_k exp(2 pi i <k, x>) at each row x of ``points`` (canonical,
    (P, d)) from per-axis power tables: d exponentials per point instead of
    one per point and term.  With no terms ((0, d) indices) it gives zeros.

    On axis a, with u = exp(2 pi i x_a) and B = ceil(sqrt(max |k_a| + 1)),
    ``_digit_tables`` builds the tables u^j (0 <= j < B) and u^(b B) by
    successive products, one at a time, and the factor of |k_a| = b B + j
    is u^(b B) u^j, conjugated in place when k_a < 0.  (Past max |k_a| =
    1023, B is ``_RADIX`` and |k_a| has as many base-B digits as it needs,
    one table each.)  The factors multiply over the axes, and the terms sum
    against the coefficients.

    Accuracy, with eps = 2^-53: u is within about 16 eps of the exact
    exp(2 pi i x_a) (the rounded phase 2 pi x_a, then the exponential), and
    the |k_a|-th power carries that error |k_a| times, together with one
    complex product's error (at most sqrt(5) eps) for each of the at most
    |k_a| + L products behind it, L being its number of digits.  So each
    term is within 24 (|k|_1 + d) eps of its exact value, and the sum
    within (24 (max |k|_1 + d) + 2 K) eps sum_k |c_k| for K terms.  The
    direct exponential (``basis_matrix``) rounds the phase 2 pi <k, x> at
    its own size, so its error also grows like |k|_1 eps.  Against a long-double evaluation of 30 terms with
    |k_a| <= 1000 at 4,000 points, the tables' RMS error was 292 / 312 / 494
    eps sum_k |c_k| in d = 1 / 2 / 3, the direct formula's 358 / 395 / 679,
    and the tables' largest error 1,677 / 1,498 / 2,173 against bounds of
    23,028 / 46,620 / 70,764.  At |k_a| <= 10^6 all of these grow about a
    thousandfold.
    """
    terms = None
    for k, x in zip(indices.T, points.T):
        rest, negative = np.abs(k), (k < 0)[:, None]
        top = int(rest.max(initial=0))
        B = min(math.isqrt(top) + 1, _RADIX)
        for table in _digit_tables(np.exp(2j * np.pi * x), top, B):
            rest, digit = np.divmod(rest, B)
            factor = table[digit]
            np.conjugate(factor, out=factor, where=negative)
            if terms is None:
                terms = factor
            else:
                terms *= factor
    return values @ terms


# Kernel of the fast Chebyshev products: psi(z) = exp(beta (sqrt(1 - z^2) - 1))
# on |z| < 1, the "exponential of semicircle" of Barnett, Magland and
# af Klinteberg (SISC 2019), spread over _KERNEL_WIDTH points of a grid at
# least twice as fine as the degrees.  Against a long-double evaluation of
# the cosines both products read at most 2.7e-14 relative error in norm for
# N <= 300, 3.1e-13 at 331 x 3073 and 1.7e-12 at 1616 x 17377 (criterion 7's
# largest matrix; three draws each, with points at both ends), where the
# dense products read 1.7e-14, 1.7e-13 and 9e-13.  A point's rounded grid
# position puts a phase error of k times its rounding on degree k < N.
_KERNEL_WIDTH = 16
_KERNEL_BETA = 2.30 * _KERNEL_WIDTH
_KERNEL_NODES = 32  # Gauss-Legendre nodes for the kernel's Fourier transform


def _smooth_length(n: int) -> int:
    """The smallest integer >= n with no prime factor above 5."""
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _kernel(z: np.ndarray) -> np.ndarray:
    return np.exp(_KERNEL_BETA * (np.sqrt(np.maximum(1.0 - z * z, 0.0)) - 1.0))


class ChebyshevTransform:
    """Products with the Chebyshev matrix over degrees 0..N-1 without the matrix.

    ``A = basis_matrix(chebyshev_system(), range(N), points)`` has entries
    c_k cos(k theta_i) at theta_i = arccos x_i, so ``A^T w`` is a nonuniform
    cosine transform of type 1 and ``A v`` one of type 2 (Greengard and Lee,
    SIAM Rev. 2004, for the Fourier case).  The kernel spreads each point
    onto M half-integer grid points pi (j + 1/2) / M of [0, pi], M >= 2N
    even; its cells past theta = 0 and theta = pi fold back onto the grid,
    which is the even extension of the data to the circle.  The cosine sums
    at the grid are then a DCT-II of length M, which is one real FFT of
    length M with the grid stored in Makhoul's order (even cells first, odd
    cells reversed after them; Makhoul, IEEE Trans. ASSP 1980) and a phase
    exp(-i pi k / (2M)) on its output.  No degree needs centring: the
    folded grid has twice the points of the degrees on [0, pi].  Both
    products cost O(m w + M log M) for a kernel of width w, against O(m N)
    for the dense products.  The products take (T, N) and (T, m) stacks,
    real or complex, row by row, one ``rfft`` or ``irfft`` per row; a
    complex stack runs as its real and imaginary parts, extra real rows of
    one FFT call.  Built by ``FourierTables.chebyshev``, as its ``fast``,
    from the angles theta.
    """

    def __init__(self, theta: np.ndarray, N: int) -> None:
        self.shape = (theta.shape[0], N)
        w = _KERNEL_WIDTH
        M = 2 * _smooth_length(max(N, w // 2))
        grid = theta * (M / np.pi) - 0.5  # theta in units of the grid spacing
        start = np.ceil(grid - w / 2)
        self._table = _kernel((start[:, None] + np.arange(w) - grid[:, None]) / (w / 2))
        cells = start.astype(np.int64)[:, None] + np.arange(w)
        cells = np.where(cells < 0, -1 - cells, np.where(cells >= M, 2 * M - 1 - cells, cells))
        self._cells = np.where(cells % 2 == 0, cells // 2, M - 1 - cells // 2)
        # c_k (2 / w) / psi_hat(k pi w / (2M)), the circle having 2M grid
        # points; psi_hat by quadrature on [0, 1] (psi is even), one node at
        # a time so no nodes x N temporary is built
        x, weights = leggauss(_KERNEL_NODES)
        z = (x + 1.0) / 2.0
        freq = np.arange(N) * (np.pi * w / (2 * M))
        psi_hat = np.zeros(N)
        for zj, cj in zip(z, weights * _kernel(z)):
            psi_hat += cj * np.cos(freq * zj)
        scale = np.divide(2.0 / w, psi_hat, out=psi_hat)
        scale *= _chebyshev_scale(np.arange(N))
        self._twiddle = scale * np.exp(1j * np.pi / (2 * M) * np.arange(N))
        self._grid_size = M

    # DCT-II(g)[k] = Re(exp(-i pi k / (2M)) rfft(v)[k]), v being g in
    # Makhoul's order; the twiddle is the deconvolution times the conjugate
    # phase.  The forward product is the exact transpose: the twiddle, the
    # terms k >= 1 halved for irfft's Hermitian pairs (k < N <= M/2 never
    # reaches the Nyquist term), and no 1/M.  With the matrix resident,
    # every temporary shows in the process's peak memory.

    def adjoint(self, W: np.ndarray) -> np.ndarray:
        """Row t of A^T w_t (equal to A^H w_t, A being real) for a (T, m)
        stack: spread, one real FFT per row, deconvolve."""
        C = _parts(W)
        cells, M = self._cells.ravel(), self._grid_size
        grid = np.empty(C.shape[:-1] + (M,))
        for row, c in zip(grid.reshape(-1, M), C.reshape(-1, C.shape[-1])):
            row[:] = np.bincount(cells, (c[:, None] * self._table).ravel(), M)
        V = np.fft.rfft(grid)[..., :self.shape[1]]
        out = V.real * self._twiddle.real
        out += V.imag * self._twiddle.imag
        return _joined(out)

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Row t of A x_t for a (T, N) stack: deconvolve, one real inverse
        FFT per row, gather."""
        N, M = self.shape[1], self._grid_size
        U = _parts(X)
        H = np.zeros(U.shape[:-1] + (M // 2 + 1,), dtype=np.complex128)
        np.multiply(U, self._twiddle, out=H[..., :N])
        H[..., 1:N] *= 0.5
        grid = np.fft.irfft(H, M, norm="forward")
        out = np.empty(grid.shape[:-1] + (self.shape[0],))
        # one row at a time: its sums round as they do for that row alone
        for row, o in zip(grid.reshape(-1, M), out.reshape(-1, out.shape[-1])):
            np.einsum("ij,ij->i", row[self._cells], self._table, out=o)
        return _joined(out)


def _parts(v: np.ndarray) -> np.ndarray:
    """Real input as one part, complex input as its real and imaginary
    parts, along a new first axis."""
    return np.stack((v.real, v.imag)) if np.iscomplexobj(v) else v[None]


def _joined(parts: np.ndarray) -> np.ndarray:
    """The inverse of ``_parts``."""
    return parts[0] if parts.shape[0] == 1 else parts[0] + 1j * parts[1]


class LatticeFourier:
    """Fourier matrices on lattice points with exact FFT products, for a stack of trials.

    Trial t's matrix is ``basis_matrix(fourier_system(d), box, points_t)``
    over the box |k|_inf <= D at points of the lattice (1/q) {0..q-1}^d,
    q = 2D + 1.  The box's side is the lattice's, so each row is a row of
    the q^d-point DFT and the matrix is a set of DFT rows, repeats allowed.
    Writing k = j - D, entry exp(2 pi i k.g / q) at the point g / q is
    exp(-2 pi i D sum(g) / q) exp(2 pi i j.g / q): the box's centring is a
    phase per point, and the products are exact up to rounding,

        A x = conj(phase) * ifftn(x on the grid)[g]      (a gather),
        A^H w = fftn(scatter of phase * w onto the grid)  (np.bincount).

    Since A A^H = q^d [g_l = g_l'], the norm is exactly
    sqrt(q^d * the largest point multiplicity); ``norms()`` gives it per
    trial.  The products map a (T, N) stack to (T, m) and back, row t
    through trial t, and ``stack`` and ``take`` join and select trials: the
    batch interface of ``bpdn.solve_bpdn_batch``.  ``columns(t, support)``
    evaluates trial t's columns by direct exponentials (``basis_matrix``),
    independently of the FFT; ``A @ z`` (one trial) multiplies the columns
    on the support of z.
    """

    dtype = np.dtype(np.complex128)

    def __init__(self, points, half_width: int) -> None:
        pts = _torus_points(points, half_width)
        q = 2 * half_width + 1
        scaled = pts * q
        g = np.rint(scaled)
        # a few ulps of q: g / q times q, rounded; any more would move the
        # matrix entries by more than rounding
        if not np.abs(scaled - g).max(initial=0.0) <= 8 * np.finfo(float).eps * q:
            raise ValueError(f"points must lie on the lattice (1/{q}) Z^d")
        g = g.astype(np.int64) % q
        d = g.shape[1]
        cells = np.ravel_multi_index(tuple(g.T), (q,) * d)
        # exp(2 pi i D sum(g) / q), its exponent reduced modulo q
        phase = np.exp(2j * np.pi * ((half_width * g.sum(axis=1)) % q) / q)
        norm = np.sqrt(float(q**d) * np.bincount(cells).max(initial=0))
        self._set(pts[None], cells[None], phase[None], np.array([norm]), half_width)

    def _set(self, points, cells, phase, norms, half_width):
        T, m, d = points.shape
        q = 2 * half_width + 1
        self._points, self._cells, self._phase, self._norms = points, cells, phase, norms
        self._phase_conj = phase.conj()
        self._half_width, self._grid = half_width, (q,) * d
        self.shape = (m, q**d)
        # cells of the stacked grids, one grid of q^d points per trial, and
        # the cells' real and imaginary parts in the grids viewed as floats
        self._flat = cells + q**d * np.arange(T)[:, None]
        self._parts = (2 * self._flat[:, :, None] + np.arange(2)).reshape(-1)
        return self

    @classmethod
    def stack(cls, operators) -> "LatticeFourier":
        """One operator for the trials of all of ``operators``, in order."""
        first = operators[0]
        for op in operators:
            if not isinstance(op, cls):
                raise ValueError("only LatticeFourier operators stack")
            if op._points.shape[1:] != first._points.shape[1:] or op._half_width != first._half_width:
                raise ValueError("stacked operators must share m, d and the box")
        parts = [np.concatenate([getattr(op, key) for op in operators])
                 for key in ("_points", "_cells", "_phase", "_norms")]
        return cls.__new__(cls)._set(*parts, first._half_width)

    def take(self, keep: np.ndarray) -> "LatticeFourier":
        """The operator of the trials ``keep`` (indices or a mask), in that order."""
        parts = [a[keep] for a in (self._points, self._cells, self._phase, self._norms)]
        return LatticeFourier.__new__(LatticeFourier)._set(*parts, self._half_width)

    def norms(self) -> np.ndarray:
        """The exact spectral norm of each trial's matrix."""
        return self._norms

    # The transforms run axis by axis through np.fft.fft and ifft: np.fft.fftn
    # costs about 6 us more per call, which a row pays twice an iteration.

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Row t of A_t x_t for a (T, N) stack: one inverse FFT per trial, a gather."""
        grid = X.reshape((X.shape[0],) + self._grid)
        for axis in range(1, grid.ndim):
            grid = np.fft.ifft(grid, axis=axis, norm="forward")
        out = grid.reshape(-1).take(self._flat)
        return np.multiply(out, self._phase_conj, out=out)

    def adjoint(self, W: np.ndarray) -> np.ndarray:
        """Row t of A_t^H w_t for a (T, m) stack: a scatter, one FFT per trial."""
        T = W.shape[0]
        c = np.multiply(W, self._phase, dtype=np.complex128).view(np.float64)
        grid = np.bincount(self._parts, c.reshape(-1), 2 * T * self.shape[1])
        grid = grid.view(np.complex128).reshape((T,) + self._grid)
        for axis in range(1, grid.ndim):
            np.fft.fft(grid, axis=axis, out=grid)
        return grid.reshape(T, -1)

    def columns(self, t: int, support: np.ndarray) -> np.ndarray:
        """Trial t's columns ``support``, an (m, |support|) array of direct
        exponentials (``basis_matrix``)."""
        d = self._points.shape[2]
        return basis_matrix(fourier_system(d), IndexSet(BOX, d, self._half_width).at(support),
                            self._points[t])

    def __matmul__(self, z: np.ndarray) -> np.ndarray:
        """A z for one trial, from the exponentials of the support's columns."""
        if self._cells.shape[0] != 1:
            raise ValueError("A @ z takes the operator of one trial")
        support = np.asarray(z).nonzero()[0]
        return self.columns(0, support) @ np.asarray(z)[support]


def _torus_points(points, half_width: int) -> np.ndarray:
    """The canonical (m, d) points of a box operator, checked."""
    if half_width < 0:
        raise ValueError("half_width must be >= 0")
    pts = np.asarray(points, dtype=float)
    if pts.ndim not in (1, 2) or pts.ndim == 2 and pts.shape[1] < 1:
        raise ValueError("points must be an (m, d) array")
    pts = _point_array(fourier_system(pts.shape[1] if pts.ndim == 2 else 1), pts)
    if not pts.shape[0]:
        raise ValueError("need at least one sample point")
    return pts


def _row_kronecker(tables) -> np.ndarray:
    """The Khatri-Rao product of (n_a, m) tables: row (i_1, .., i_k), in
    row-major order, is the product of row i_a of each table."""
    out = tables[0]
    for table in tables[1:]:
        out = (out[:, None, :] * table[None, :, :]).reshape(-1, out.shape[1])
    return out


# Degrees per block of the Chebyshev tables.  At 1616 x 17377 on two cores
# the exact adjoint took 3.3 / 2.8 / 2.2 / 2.7 ms with blocks of 64 / 128 /
# 256 / 512, and the tables held 8.4 / 6.6 / 8.1 / 13.6 MB.  Below degree
# 256 the columns are the dense matrix's own cosines, bit for bit: a
# certified residual 2,700 times smaller than the data (150 x 901) lies 8e-14
# relative from its dense recompute, where a split at ceil(sqrt(N)) = 31
# left 3e-12 (power tables) or 5e-12 (direct cosines), and the dense
# recompute itself lies 1.4e-12 from a long-double one.
_BLOCK = 256
# Columns per step of the real form's gather, which takes every support.
# At 1616 x 17377 and 300 nonzeros a step of 32 took 2.2 ms, one of 256
# 16 ms (the gathered rows leave the cache); one gather of 128 columns took
# 6.2 ms against 2.0 ms for the GEMM, and gathers of up to 131 columns raised
# a rate sweep's peak memory by 4 MB.
_FORWARD_COLUMNS = 32


def _exp_rows(degrees: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Rows exp(i k theta) for k in ``degrees`` as float64 [Re, Im] pairs,
    from the cosines and sines of the rounded angles k theta, as
    ``basis_matrix`` takes them."""
    rows = np.empty((degrees.shape[0], theta.shape[0], 2))
    np.multiply.outer(degrees, theta, out=rows[..., 0])
    np.sin(rows[..., 0], out=rows[..., 1])
    np.cos(rows[..., 0], out=rows[..., 0])
    return rows.reshape(degrees.shape[0], -1)


def _gathered(left: np.ndarray, right: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Row p of ``left`` times row j of ``right`` for each column p Q + j of
    ``support``, Q being the rows of ``right``."""
    p, j = np.divmod(support, right.shape[0])
    columns = left[p]
    columns *= right[j]
    return columns


class FourierTables:
    """The Fourier matrix over the box |k|_inf <= D, or the Chebyshev matrix
    over degrees 0..N-1, at any points, with exact products from two small
    tables, not stored.

    ``A = basis_matrix(fourier_system(d), box, points)``, its columns in the
    box's order, at points of the torus, on a lattice or not.  Write a
    column's flat index as p Q + q.  In d = 1, k + D = b B + j with B =
    ceil(sqrt(2D + 1)), p = b and q = j; in d >= 2 the axes split at h = d //
    2, p running over the first h axes' offsets k_a + D and q over the
    others'.  Either way

        A[l, p Q + q] = L[l, p] R[l, q],

    L and R being the Khatri-Rao (row-wise Kronecker) products of the two
    halves of the power tables of u_a = exp(2 pi i x_a) that
    ``_digit_tables`` builds for the digits of k_a + D, 0 <= k_a + D <= 2D:
    two digits of base B in d = 1, so L[l, p] = u^(p B - D) and R[l, q] =
    u^q, and one digit of base 2D + 1 per axis in d >= 2.  The centring
    phase prod_a u_a^(-D) is folded into L.  Each table is stored once, as
    rows of length m: (P + Q) m numbers instead of m N, where P Q >= N
    (equal for d >= 2).

    The adjoint is one GEMM per trial, A^H w = conj(L^T diag(conj w) R), a
    (P, Q) array, as ``bpdn``'s dense adjoint takes it: no conjugate
    tables.  The forward product gathers the support's rows of both tables
    while the support has at most sqrt(P Q) columns (P in d = 2); past
    that it is one GEMM X R^T of x as a (P, Q) array X, then the row-wise
    product with L^T summed over p.  Each trial has its own products, so a
    row rounds as it would alone.

    ``FourierTables.chebyshev(points, N)`` is the real form: ``A =
    basis_matrix(chebyshev_system(), range(N), points)``, entries c_k
    Re(u^k) at u = exp(i theta), theta = arccos x.  It splits k = p B + j
    with B = min(N, ``_BLOCK``) and no centring, and keeps one half of each
    table, L[p] = u^(p B) and conj(R[j]) = u^(-j), from the cosines and
    sines of the rounded angles as ``basis_matrix`` takes them, as float64
    views: rows of [Re, Im] pairs.  Re(L[p] R[j]) is the sum of each pair
    of L_view[p] * conjR_view[j].  So the adjoint is
    one real GEMM per trial, (L w)_view conjR_view^T, and the forward product
    gathers the support's rows of both views at any support,
    ``_FORWARD_COLUMNS`` at a time, its pairs summed; a complex stack runs
    as its real and imaginary parts.  Its ``fast`` is the
    ``ChebyshevTransform`` of the same points, accurate to about 2e-12
    relative at 1616 x 17377.

    ``columns(0, support)`` evaluates columns by direct exponentials or
    cosines (``basis_matrix``), independently of the tables; ``A @ z`` (one
    trial) multiplies the columns on the support of z.
    """

    dtype = np.dtype(np.complex128)

    def __init__(self, points, half_width: int) -> None:
        self._points = _torus_points(points, half_width)
        (m, d), D = self._points.shape, half_width
        q = 2 * D + 1
        # the tables of the digits of k_a + D, the highest axis and digit
        # first, as in the columns' flat index; one table in d = 1 if D = 0
        B = math.isqrt(q - 1) + 1 if d == 1 else q  # ceil(sqrt(q)) in d = 1
        tables = [t for ua in np.exp(2j * np.pi * self._points.T)
                  for t in reversed(list(_digit_tables(ua, q - 1, B)))]
        phase = np.exp(-2j * np.pi * D * self._points.sum(axis=1))
        h = len(tables) // 2
        self._left = _row_kronecker(tables[:h] + [phase[None]])
        self._right = _row_kronecker(tables[h:])
        self._columns, self._system = IndexSet(BOX, d, D), fourier_system(d)
        self.shape = (m, q**d)
        # the forward product's switch from the gather to the GEMM; single
        # products on two cores crossed over at 33-66 nonzeros in d = 1
        # (1200 x 1087), 61-122 in d = 2 (250 x 3721, P = 61) and 120-240 in
        # d = 3 (200 x 3375, P = 15, Q = 225)
        self._gather_limit = math.isqrt(self._left.shape[0] * self._right.shape[0])

    @classmethod
    def chebyshev(cls, points, N: int) -> "FourierTables":
        """The real form: the Chebyshev matrix over degrees 0..N-1."""
        if N < 1:
            raise ValueError("the matrix needs at least one degree")
        op = cls.__new__(cls)
        op._points = _point_array(chebyshev_system(), points)
        if not op._points.size:
            raise ValueError("need at least one sample point")
        theta = np.arccos(op._points)
        B = min(_BLOCK, N)
        op._left, op._right = _exp_rows(np.arange(0, N, B), theta), _exp_rows(np.arange(B), theta)
        op._right[:, 1::2] *= -1.0
        op._system, op._columns = chebyshev_system(), IndexSet(DEGREES, 1, N - 1)
        op._scale = _chebyshev_scale(np.arange(N))
        op.dtype, op.shape = np.dtype(np.float64), (theta.shape[0], N)
        op.fast = ChebyshevTransform(theta, N)
        return op

    @property
    def nbytes(self) -> int:
        owners = (self, self.fast) if hasattr(self, "fast") else (self,)  # the transform's too
        return sum(a.nbytes for o in owners for a in vars(o).values() if isinstance(a, np.ndarray))

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Row t of A x_t for a (T, N) stack: the support's rows of the
        tables, in the complex form one GEMM past sqrt(P Q) nonzeros."""
        m, N = self.shape
        out = np.empty((X.shape[0], m), dtype=X.dtype if X.dtype.kind == "c" else self.dtype)
        if self.dtype.kind == "f":
            # rows of L and conj(R) as [Re, Im] pairs, _FORWARD_COLUMNS at a
            # time at any support, then the pairs summed
            for x, o in zip(X, out):
                support, y = x.nonzero()[0], np.zeros((1 + np.iscomplexobj(x), 2 * m))
                for k in range(0, support.size, _FORWARD_COLUMNS):
                    s = support[k:k + _FORWARD_COLUMNS]
                    y += _parts(x[s] * self._scale[s]) @ _gathered(self._left, self._right, s)
                o[...] = _joined(y[:, ::2] + y[:, 1::2])
            return out
        P, Q = self._left.shape[0], self._right.shape[0]
        for x, o in zip(X, out):
            support = x.nonzero()[0]
            if support.size <= self._gather_limit:
                np.matmul(x[support], _gathered(self._left, self._right, support), out=o)
            else:
                # in d = 1 the last block of Q columns runs past N
                if N < P * Q:
                    x = np.concatenate((x, np.zeros(P * Q - N, dtype=x.dtype)))
                Y = x.reshape(P, Q) @ self._right
                Y *= self._left
                Y.sum(axis=0, out=o)
        return out

    def adjoint(self, W: np.ndarray) -> np.ndarray:
        """Row t of A^H w_t for a (T, m) stack: one GEMM per trial."""
        m, N = self.shape
        if self.dtype.kind == "f":
            # (L w)_view conjR_view^T, each part of w repeated over the pairs
            out = np.empty((W.shape[0], N), dtype=W.dtype if W.dtype.kind == "c" else self.dtype)
            for w, o in zip(W, out):
                parts = _parts(w)
                left = self._left * np.repeat(parts, 2, axis=-1)[:, None, :]
                y = (left.reshape(-1, 2 * m) @ self._right.T).reshape(parts.shape[0], -1)[:, :N]
                y *= self._scale
                o[...] = _joined(y)
            return out
        P, Q = self._left.shape[0], self._right.shape[0]
        out = np.empty((W.shape[0], P * Q), dtype=np.complex128)
        for w, o in zip(W, out):
            np.matmul(self._left * w.conj(), self._right.T, out=o.reshape(P, Q))
        return np.conjugate(out[:, :N], out=out[:, :N])

    def columns(self, t: int, support: np.ndarray) -> np.ndarray:
        """The columns ``support`` of the one trial (t = 0), an (m,
        |support|) array of basis functions (``basis_matrix``), not the tables."""
        return basis_matrix(self._system, self._columns.at(support), self._points)

    def __matmul__(self, z: np.ndarray) -> np.ndarray:
        """A z from the basis functions of the support's columns, not the tables."""
        support = np.asarray(z).nonzero()[0]
        return self.columns(0, support) @ np.asarray(z)[support]


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class SamplePlan:
    """How to draw sample points: i.i.d. from the system's measure, or
    i.i.d. uniform from the torus grid (1/(2D+1))*{0,...,2D}^d."""

    seed: int
    mode: str = "continuous"
    grid_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in ("continuous", "grid"):
            raise ValueError(f"unknown sampling mode: {self.mode!r}")
        if self.mode == "grid" and (self.grid_size is None or self.grid_size < 1):
            raise ValueError("grid sampling needs grid_size >= 1")


def draw_points(system: System, m: int, plan: SamplePlan) -> np.ndarray:
    """Draw m sample points; deterministic given the plan's seed.

    Returns shape (m, d) for Fourier systems and (m,) for polynomial ones.
    """
    if m < 1:
        raise ValueError("need at least one sample point")
    rng = np.random.default_rng(plan.seed)
    if plan.mode == "grid":
        if system.kind != FOURIER:
            raise ValueError("grid sampling is only defined on the torus")
        q = 2 * plan.grid_size + 1
        return rng.integers(0, q, size=(m, system.dim)) / q
    if system.kind == FOURIER:
        return rng.random((m, system.dim))
    if system.kind == LEGENDRE_RAW:
        return 2.0 * rng.random(m) - 1.0
    # arcsine measure via the inverse transform x = cos(pi * u)
    return np.cos(np.pi * rng.random(m))


# ---------------------------------------------------------------------------
# quadrature


def _fourier_gram(dim: int, idx: np.ndarray) -> np.ndarray:
    max_freq = int(np.abs(idx).max()) if idx.size else 0
    nodes = 4 * max_freq + 1
    t = np.arange(nodes) / nodes
    G = None
    for ax in range(dim):
        ka = idx[:, ax]
        uniq, inv = np.unique(ka, return_inverse=True)
        E = np.exp(2j * np.pi * np.outer(uniq, t))
        Gu = (E @ E.conj().T) / nodes
        # exact values are 0 or 1; the imaginary residue is rounding noise
        Ga = Gu.real[np.ix_(inv, inv)]
        if G is None:
            G = Ga
        else:
            G *= Ga
            del Ga
    return G.astype(np.complex128)


def _poly_gram(system: System, idx: np.ndarray) -> np.ndarray:
    max_degree = int(idx.max()) if idx.size else 0
    nodes = 2 * max_degree + 8
    if system.kind == CHEBYSHEV:
        x, w = chebgauss(nodes)
        B = basis_matrix(system, idx, x)
        G = (B.T * (w / np.pi)) @ B
    else:
        # both Legendre variants reduce to Lebesgue integrals of L_i * L_j:
        # for the preconditioned system the weight w(x)^2 cancels the
        # arcsine density exactly
        x, w = leggauss(nodes)
        B = basis_matrix(legendre_raw_system(), idx, x)
        G = (B.T * w) @ B
    return G.astype(np.complex128)


def gram_matrix(system: System, indices) -> np.ndarray:
    """Gram matrix <b_i, b_j> in L2 of the system's orthogonality measure,
    computed by quadrature exact on the index set: 4K + 1 equispaced nodes
    per axis for Fourier frequencies up to K in max-norm, 2n + 8 Gauss
    nodes for polynomial degrees up to n."""
    idx = _index_array(system, indices)
    if system.kind == FOURIER:
        return _fourier_gram(system.dim, idx)
    return _poly_gram(system, idx)
