"""Reference routes that the tests compare the package against.

* sign-flip oracle: Simon's partial transpose of the covariance matrix
  (R. Simon, PRL 84, 2726 (2000)).  The momentum signs of the +1 block
  are flipped on the full covariance, then E_l sums -log2 over the
  sub-unit eigenvalues of the position-times-flipped-momentum product,
  a nonsymmetric eigenproblem.  The covariance comes from its own
  ``eigh`` of V's dense entries, so the oracle shares no code with the
  spectral routes of ``thermaneg.gaussian``; the two agree to solver
  precision.
* star hub closed forms at T = 0: the hub entries of V^{1/2} and
  V^{-1/2} in closed form, and the single-mode negativity of their
  product.
* XX-plus-field Hamiltonian from Kronecker products of Pauli matrices,
  with its own bond list, for the bit-arithmetic spin builder.
* dense partial transpose from basis-index bit swaps, with its own
  site-to-bit mask, for the spin engines' partial transposes.
* hub-vs-rest E_N of the spin star from the outer sites' total spin,
  with its own collective-spin matrices, multiplicities and cutoff,
  for the collective-spin star engine at sizes the dense route cannot
  reach.

Convention note: each sub-unit eigenvalue in the oracle is the square
of a symplectic eigenvalue nu of the sign-flipped covariance, so the
E_l reported here equals Sum max(0, -2 log2 nu).  That is twice the
-log2(nu) normalization some other libraries use.  The single-mode
helpers below report E_N = (1 - nu)/nu, whose log form
log2(1 + E_N) = -log2(nu) sits on that halved scale.  Zero sets agree
in every convention, so PPT verdicts and threshold temperatures never
depend on the choice; only nonzero magnitudes do.  Where both appear
in one table the columns are computed per these definitions and the
discrepancy is intentional.
"""

import math

import numpy as np

from thermaneg.lattice import build_star_potential

# Eigenvalues that fall below 1 by less than this are treated as 1.
_UNIT_CUTOFF = 1e-12
# Imaginary parts beyond this fraction of the spectral radius mean the
# eigensolver failed on a matrix that is similar to a symmetric one.
_IMAG_TOL = 1e-9


def thermal_covariance(potential, temperature: float) -> tuple:
    """(X, P): position and momentum covariance blocks of the Gibbs state.

    One ``eigh`` of V's dense entries (a ``PotentialMatrix`` or an array)
    gives V = U diag(s^2) U^T, and then X = U diag(w/s) U^T and
    P = U diag(w s) U^T with w = coth(s/2T), or w = 1 at T = 0.
    """
    lam, u = np.linalg.eigh(np.asarray(getattr(potential, "entries", potential), dtype=float))
    s = np.sqrt(lam)
    w = np.ones_like(s) if temperature == 0.0 else 1.0 / np.tanh(s / (2.0 * temperature))
    return (u * (w / s)) @ u.T, (u * (w * s)) @ u.T


def log_negativity_symplectic_oracle(potential, temperature: float, partition) -> float:
    """E_l by partial transposition on the full covariance matrix.

    Partial transposition of a Gaussian state flips the momentum signs
    of the transposed block.  The eigenvalues of X times the flipped P
    are the squared symplectic eigenvalues nu^2 of the transposed state;
    entanglement shows up as nu < 1 and contributes -log2(nu^2).
    """
    x, p = thermal_covariance(potential, temperature)
    signs = np.asarray(getattr(partition, "labels", partition), dtype=float)
    mu = np.linalg.eigvals(x @ (signs[:, None] * p * signs[None, :]))
    radius = float(np.max(np.abs(mu)))
    worst = float(np.max(np.abs(mu.imag)))
    if worst > _IMAG_TOL * radius:
        raise ArithmeticError(
            f"partially transposed covariance product left the real axis "
            f"(max imaginary part {worst:.3e} at spectral radius {radius:.3e})"
        )
    losses = mu.real[mu.real < 1.0 - _UNIT_CUTOFF]
    return float(np.sum(-np.log2(losses)))


def star_reduced_closed_form(n: int, c: float) -> tuple:
    """Hub entries (a, b) of V^{1/2} and V^{-1/2} for the star at T = 0.

    With R = sqrt(1 + n c), a = 1/n + ((n-1)/n) R and
    b = 1/n + (n-1)/(n R), so a*b = 1 + (n-1)(R-1)^2 / (n^2 R).  Only
    that product feeds the single-mode negativity.
    """
    root = math.sqrt(1.0 + n * c)
    return (1.0 / n + (n - 1) / n * root, 1.0 / n + (n - 1) / (n * root))


def single_mode_negativity(delta: float) -> float:
    """E_N = (1 - nu)/nu of one mode with covariance determinant delta.

    nu = sqrt(delta) - sqrt(delta - 1); a determinant below 1, which
    only roundoff can give, is taken as 1.
    """
    delta = max(delta, 1.0)
    nu = math.sqrt(delta) - math.sqrt(delta - 1.0)
    return max(0.0, (1.0 - nu) / nu)


def star_macroscopic_limit_trend(c: float, n_list) -> list:
    """Rows (n, delta, E_N) of the hub closed form over a size sweep.

    The determinant delta approaches 1 from above as n grows and the
    hub negativity decays to zero.  With x = delta - 1 =
    (n-1)(R-1)^2/(n^2 R), R = sqrt(1 + n c), the hub negativity is
    E_N = sqrt(x) + sqrt(1+x) - 1 and x < sqrt(c/n), so
    E_N < (c/n)^{1/4} + (c/n)^{1/2}/2 and E_N = (c/n)^{1/4}(1 + O(n^{-1/4})):
    the decay is a quarter power, about 0.104 at n = 10^4 and c = 1.
    """
    rows = []
    for n in n_list:
        a, b = star_reduced_closed_form(n, c)
        rows.append((n, a * b, single_mode_negativity(a * b)))
    return rows


def star_hub_negativity_from_covariance(n: int, c: float) -> float:
    """Hub E_N at T = 0 from the hub entries of the full covariance blocks."""
    x, p = thermal_covariance(build_star_potential(n, c), 0.0)
    return single_mode_negativity(float(x[0, 0] * p[0, 0]))


_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1j], [1j, 0.0]]),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def xx_field_hamiltonian(topology: str, n: int, h: float) -> np.ndarray:
    """-(sigma_x sigma_x + sigma_y sigma_y) on every bond plus h sigma_z
    on every site, as a sum of Kronecker products.

    Site 1 is the leftmost factor and sigma_z = diag(1, -1).  The ring
    bonds are (i, i+1) and, for n >= 3, the closing bond (n, 1); the
    star bonds join site 1 to every other site.
    """

    def product(factors: dict) -> np.ndarray:
        out = np.ones((1, 1), dtype=complex)
        for site in range(n):
            out = np.kron(out, _PAULI[factors[site]] if site in factors else np.eye(2))
        return out

    if topology == "ring_nn":
        bonds = [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if n >= 3 else [])
    else:
        bonds = [(0, j) for j in range(1, n)]
    ham = sum(h * product({i: "z"}) for i in range(n))
    for i, j in bonds:
        ham = ham - product({i: "x", j: "x"}) - product({i: "y", j: "y"})
    assert not np.any(ham.imag)
    return ham.real


def partial_transpose(rho, partition) -> np.ndarray:
    """Transpose the indices of every site labeled +1, by bit swaps.

    Site i (0-based) of n is bit n - 1 - i of a basis index, so site 1
    is the leftmost Kronecker factor.  With m the bits of the +1 sites,
    entry (a, b) of the result is entry (a', b') of rho, where
    a' = (a & ~m) | (b & m) and b' = (b & ~m) | (a & m): the transposed
    sites' bits trade places between row and column.
    """
    labels = list(getattr(partition, "labels", partition))
    n = len(labels)
    mat = np.asarray(rho)
    assert mat.shape == (2**n, 2**n), f"{mat.shape} is not the shape of {n} sites"
    m = 0
    for i, sign in enumerate(labels):
        if sign == 1:
            m |= 1 << (n - 1 - i)
    a = np.arange(2**n)[:, None]
    b = np.arange(2**n)[None, :]
    return mat[(a & ~m) | (b & m), (b & ~m) | (a & m)]


# A block eigenvalue below this fraction of the block's largest
# |eigenvalue| counts as negative in the star hub oracle.  Far above a
# block eigensolve's rounding; at low T the star's blocks carry about
# 1e-11 of E_N in eigenvalues between this and 1e-12 of that scale.
_STAR_BLOCK_CUTOFF = 1e-9


def spin_star_hub_negativity(n: int, temperature: float, h: float = 0.0) -> float:
    """Hub-vs-rest E_N of the spin-1/2 XX star with field at T > 0.

    The m = n - 1 outer sites enter H only through their total spin J,
    so on hub (x) V_J, with V_J in the basis M = -J, ..., J,
    H_J = -(sx (x) 2Jx + sy (x) 2Jy) + h (sz (x) 1 + 1 (x) 2Jz), and
    V_J occurs (2J + 1) C(m, m/2 - J) / (m/2 + J + 1) times.  The hub
    is a tensor factor of every block, so the state's partial transpose
    on the hub is the hub transpose of each block, repeated as often.
    """
    m = n - 1
    blocks = []
    for two_j in range(m, -1, -2):
        mult = (two_j + 1) * math.comb(m, (m - two_j) // 2) * 2 // (m + two_j + 2)
        ms = np.arange(-two_j, two_j + 1, 2) / 2.0
        j_plus = np.diag(np.sqrt(two_j / 2 * (two_j / 2 + 1) - ms[:-1] * (ms[:-1] + 1)), -1)
        j_x, j_y = (j_plus + j_plus.T) / 2.0, (j_plus - j_plus.T) / 2.0j
        ham = -(np.kron(_PAULI["x"], 2.0 * j_x) + np.kron(_PAULI["y"], 2.0 * j_y)) + h * (
            np.kron(_PAULI["z"], np.eye(two_j + 1)) + np.kron(np.eye(2), np.diag(2.0 * ms))
        )
        assert not np.any(ham.imag)
        blocks.append((mult, two_j + 1, *np.linalg.eigh(ham.real)))
    ground = min(evals[0] for _, _, evals, _ in blocks)
    z = e_n = 0.0
    for mult, dim, evals, evecs in blocks:
        w = np.exp(-(evals - ground) / temperature)
        z += mult * w.sum()
        rho = ((evecs * w) @ evecs.T).reshape(2, dim, 2, dim)
        spectrum = np.linalg.eigvalsh(rho.transpose(2, 1, 0, 3).reshape(2 * dim, 2 * dim))
        e_n -= mult * spectrum[spectrum < -_STAR_BLOCK_CUTOFF * np.abs(spectrum).max()].sum()
    return float(e_n / z)
