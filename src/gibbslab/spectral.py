"""One-body Schroedinger operator h = -Laplacian + V on a hard-wall grid.

Second-order central finite differences with Dirichlet walls at +-L.
Eigenvectors are stored with the quadrature weight dx^(d/2) folded in, so
a plain dot product of stored vectors is the L2 inner product and stored
vectors are orthonormal as bare numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigurationError

# Dense diagonalization below this many grid points, Lanczos above.
_DENSE_LIMIT = 1500
# Refuse grids that would not fit a desk machine.
MAX_GRID_POINTS = 300_000


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on (-L, L)^d with hard Dirichlet walls at +-L."""

    dimension: int
    half_width: float
    points: int  # interior points per axis

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ConfigurationError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.half_width <= 0:
            raise ConfigurationError("half_width must be positive")
        if self.points < 8:
            raise ConfigurationError("need at least 8 points per axis")
        if self.points**self.dimension > MAX_GRID_POINTS:
            raise ConfigurationError(
                f"{self.points}^{self.dimension} grid points exceeds cap {MAX_GRID_POINTS}"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.points + 1)

    @property
    def total_points(self) -> int:
        return self.points**self.dimension

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dimension

    def axis(self) -> np.ndarray:
        """Interior grid coordinates along one axis."""
        h = self.spacing
        return -self.half_width + h * np.arange(1, self.points + 1)

    def coordinates(self) -> np.ndarray:
        """(total_points, d) array of grid coordinates, row-major."""
        x = self.axis()
        if self.dimension == 1:
            return x[:, None]
        X, Y = np.meshgrid(x, x, indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])


def minus_laplacian(grid: GridSpec) -> np.ndarray:
    """Dense -Laplacian with Dirichlet walls: the three-point stencil in 1D,
    its Kronecker sum in 2D."""
    n, h = grid.points, grid.spacing
    L = np.diag(np.full(n, 2.0 / h**2))
    L.flat[1::n + 1] = L.flat[n::n + 1] = -1.0 / h**2
    if grid.dimension == 1:
        return L
    H = np.kron(L, np.eye(n))
    H += np.kron(np.eye(n), L)
    return H


def potential_values(grid: GridSpec, kind: str, s: float | None = None,
                     values: np.ndarray | None = None) -> np.ndarray:
    """Trap potential sampled on the grid.

    kind 'power' is |x|^s with s > 1, 'box' is zero inside the walls, and
    'custom' takes a precomputed array (used for renormalized reference
    operators built from a solved effective potential).
    """
    if kind == "box":
        return np.zeros(grid.total_points)
    if kind == "power":
        if s is None or s <= 1:
            raise ConfigurationError("power potential needs exponent s > 1")
        r = np.linalg.norm(grid.coordinates(), axis=1)
        return r**s
    if kind == "custom":
        v = np.asarray(values, dtype=float)
        if v.shape != (grid.total_points,):
            raise ConfigurationError("custom potential has wrong shape")
        return v
    raise ConfigurationError(f"unknown potential kind {kind!r}")


@dataclass(frozen=True)
class OneBodyOperator:
    """Spectral data of h = -Laplacian + V - shift on a grid.

    eigenvalues are ascending and already include the chemical shift;
    eigenvectors hold one stored (weight-folded) mode per column.
    """

    grid: GridSpec
    potential_kind: str
    potential_s: float | None
    potential: np.ndarray  # V on the grid, no shift
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # (total_points, J)
    shift: float = 0.0

    @property
    def num_modes(self) -> int:
        return len(self.eigenvalues)

    @property
    def unshifted_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues + self.shift

    def modes(self, K: int) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues[:K], eigenvectors[:, :K]) of the first K computed modes."""
        if K < 1 or K > self.num_modes:
            raise ConfigurationError(f"K={K} out of range (have {self.num_modes} modes)")
        return self.eigenvalues[:K], self.eigenvectors[:, :K]

    def content_hash(self) -> str:
        import hashlib  # only here: libcrypto costs memory no study needs
        h = hashlib.sha256()
        h.update(f"{self.grid.dimension}:{self.grid.half_width!r}:{self.grid.points}".encode())
        h.update(f"{self.potential_kind}:{self.potential_s!r}:{self.shift!r}".encode())
        h.update(np.ascontiguousarray(self.eigenvalues).tobytes())
        h.update(np.ascontiguousarray(self.eigenvectors).tobytes())
        return h.hexdigest()


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: largest-magnitude entry positive."""
    idx = np.argmax(np.abs(vecs), axis=0)
    return vecs * np.where(vecs[idx, np.arange(vecs.shape[1])] < 0, -1.0, 1.0)


def build_one_body(grid: GridSpec, potential: str, num_eigs: int,
                   s: float | None = None,
                   potential_array: np.ndarray | None = None) -> OneBodyOperator:
    """Diagonalize -Laplacian + V and keep the num_eigs lowest eigenpairs.

    A dense operator, built by minus_laplacian, is solved whole by
    np.linalg.eigh in 1D and by scipy's subset eigh in 2D; a large one is a
    scipy.sparse operator solved by Lanczos.  scipy loads only for these
    last two.
    """
    if num_eigs < 1 or num_eigs > grid.total_points:
        raise ConfigurationError(
            f"num_eigs={num_eigs} out of range for {grid.total_points} grid points")
    V = potential_values(grid, potential, s=s, values=potential_array)

    n = grid.total_points
    if n <= _DENSE_LIMIT or num_eigs > n // 3:
        H = minus_laplacian(grid)
        H.flat[::n + 1] += V
        if grid.dimension == 1:
            vals, vecs = np.linalg.eigh(H)
            vals, vecs = vals[:num_eigs], vecs[:, :num_eigs]
        else:
            import scipy.linalg

            vals, vecs = scipy.linalg.eigh(H, subset_by_index=[0, num_eigs - 1])
    else:
        import scipy.sparse as sp

        # one name rebound, so no intermediate outlives its step into eigsh
        H = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(grid.points,) * 2) / grid.spacing**2
        if grid.dimension == 2:
            H = sp.kronsum(H, H)
        H = (H + sp.diags(V)).tocsc()
        import scipy.sparse.linalg as spla  # only here: importing it is slow

        # Shift-invert at zero: h is positive definite (V >= 0, Dirichlet).
        # Fixed start vector keeps ARPACK output deterministic.
        vals, vecs = spla.eigsh(H, k=num_eigs, sigma=0.0, which="LM", v0=np.ones(n))
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    if not np.all(np.isfinite(vals)):
        raise RuntimeError("diagonalization produced non-finite eigenvalues")
    vecs = _fix_signs(np.ascontiguousarray(vecs))
    return OneBodyOperator(grid=grid, potential_kind=potential, potential_s=s,
                           potential=V, eigenvalues=vals, eigenvectors=vecs)


def mode_parity(op: OneBodyOperator, K: int) -> np.ndarray | None:
    """Parity of the first K modes under the grid reflection, or None.

    The reflection R reverses the flattened grid vector: x -> -x in 1D and
    (x, y) -> (-x, -y) in 2D.  Each label p_j is the sign of <u_j, R u_j>;
    None when some reflection defect |u_j - p_j R u_j|_2 exceeds 1e-10, as
    for a potential without that symmetry, so a labelled mode is symmetric
    up to roundoff.
    """
    _, U = op.modes(K)
    labels = np.where(np.einsum("pj,pj->j", U, U[::-1]) < 0, -1, 1)
    if np.any(np.linalg.norm(U - labels * U[::-1], axis=0) > 1e-10):
        return None
    return labels


def reflection_eigh(T: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascending eigenpairs (s, V, parity) of a symmetric T commuting with the reversal J.

    T = [[A, B], [JBJ, JAJ]] (a centre row and column between for odd n)
    folds into the halves A + BJ and A - BJ, whose vectors v unfold to
    [v; +-Jv]/sqrt(2), so V[::-1] == parity * V bit for bit.  For odd n the
    centre joins the even half scaled by sqrt(2).
    """
    if not np.array_equal(T, T[::-1, ::-1]):
        raise ValueError("matrix does not commute with the grid reversal")
    n, m = len(T), len(T) // 2
    A, BJ = T[:m, :m], T[:m, n - m:][:, ::-1]
    even = A + BJ
    if n % 2:
        c = np.sqrt(2.0) * T[:m, m]
        even = np.block([[even, c[:, None]], [c[None, :], T[m, m]]])
    (s_even, v_even), (s_odd, v_odd) = np.linalg.eigh(even), np.linalg.eigh(A - BJ)
    V = np.zeros((n, n))
    V[:m] = np.sqrt(0.5) * np.c_[v_even[:m], v_odd]
    V[m:n - m, :len(s_even)] = v_even[m:]
    parity = np.r_[np.ones(len(s_even), dtype=int), -np.ones(m, dtype=int)]
    V[n - m:] = parity * V[:m][::-1]
    order = np.argsort(np.r_[s_even, s_odd], kind="stable")
    return np.r_[s_even, s_odd][order], V[:, order], parity[order]


def shift_potential(op: OneBodyOperator, nu: float) -> OneBodyOperator:
    """Replace every eigenvalue by lambda_j - nu; eigenvectors unchanged."""
    if nu >= op.eigenvalues[0]:
        raise ConfigurationError(
            f"shift nu={nu} >= lowest eigenvalue {op.eigenvalues[0]}: "
            "measure would be undefined")
    return replace(op, eigenvalues=op.eigenvalues - nu, shift=op.shift + nu)


def growth_exponent(op: OneBodyOperator) -> float:
    """Fitted b in lambda_j ~ j^b: a least-squares fit of log lambda_j
    against log j on the top quartile of the computed spectrum, so it needs
    at least 2 eigenpairs, all positive.  sum_j lambda_j^-p likely diverges
    when b * p <= 1.
    """
    lam = op.eigenvalues
    if len(lam) < 2:
        raise ConfigurationError(f"the tail fit needs at least 2 eigenpairs, have {len(lam)}")
    if np.any(lam <= 0):
        raise ConfigurationError("all eigenvalues must be positive")
    J = len(lam)
    lo = max(3 * J // 4, 1)
    j = np.arange(lo, J + 1, dtype=float)
    slope, _ = np.polyfit(np.log(j), np.log(lam[lo - 1:]), 1)
    return float(slope)


def green_diagonal(op: OneBodyOperator, K: int) -> np.ndarray:
    """Diagonal of G_K without materializing the full kernel."""
    lam, U = op.modes(K)
    return (U**2 / lam).sum(axis=1)
