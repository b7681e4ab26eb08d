"""Learning rules that store memories in a synaptic weight matrix.

Three rules are provided, each mapping a memory set {xi^1 .. xi^p} of length-n
bipolar patterns to a symmetric n x n coupling matrix:

- Hebb:        w_ij = (1/n) sum_mu xi_i^mu xi_j^mu
- Storkey:     iterative; per memory nu,
               w_ij^nu = w_ij^(nu-1) + (xi_i xi_j - xi_i h_ji - h_ij xi_j) / n
               with local field h_ij^nu = sum_{k != i,j} w_ik^(nu-1) xi_k^nu
- projection:  w_ij = (1/n) sum_{mu,mu'} xi_i^mu (C^-1)_{mu mu'} xi_j^mu'
               with covariance C_{mu mu'} = (1/n) sum_k xi_k^mu xi_k^mu'

Self-couplings are forbidden in the network dynamics, so each rule builds the
full matrix first and then zeroes the diagonal. Pass ``zero_diagonal=False``
to obtain the raw matrix; some analytic identities (the projection rule's
projector property, memory energies of -n/2) hold only in that form.
"""

import numpy as np

from ._guards import member
from .patterns import as_memory_set

__all__ = [
    "SingularCovarianceError",
    "hebb_weights",
    "storkey_weights",
    "projection_weights",
    "covariance_matrix",
    "weights_for_rule",
    "LEARNING_RULES",
]

# covariance condition numbers beyond this are treated as singular
_COND_LIMIT = 1e12


class SingularCovarianceError(ValueError):
    """Raised when the projection rule meets a (near-)singular covariance."""

    def __init__(self, condition_number: float):
        self.condition_number = condition_number
        super().__init__(
            "projection rule needs an invertible memory covariance; "
            f"condition number is {condition_number:.3e} "
            "(duplicate or linearly dependent memories)"
        )


def _mirror_upper(w: np.ndarray) -> np.ndarray:
    # build each unordered pair once and mirror it, so symmetry is exact by
    # construction rather than by averaging
    out = np.triu(w)
    return out + np.triu(w, 1).T


def hebb_weights(memories, zero_diagonal: bool = True) -> np.ndarray:
    """Hebb-rule weight matrix, (1/n) sum of memory outer products."""
    xi = as_memory_set(memories)
    n = xi.shape[1]
    w = (xi.T @ xi) / n          # integer Gram matrix, exactly symmetric
    if zero_diagonal:
        np.fill_diagonal(w, 0.0)
    return w


def storkey_weights(memories, zero_diagonal: bool = True) -> np.ndarray:
    """Storkey-rule weight matrix, learning memories in stored order.

    The local field h_ij excludes both i and j from the sum, exactly as the
    rule is defined; the diagonal is only zeroed once, after the last memory,
    so intermediate fields see the accumulated self-terms.
    """
    xi_all = as_memory_set(memories).astype(np.float64)
    p, n = xi_all.shape
    w = np.zeros((n, n))
    for nu in range(p):
        xi = xi_all[nu]
        f = w @ xi                       # full field, all k
        g = f - np.diag(w) * xi          # drop k = i
        h = g[:, None] - w * xi[None, :]  # drop k = j as well
        np.fill_diagonal(h, g)           # i = j excludes only k = i
        w = w + (np.outer(xi, xi) - xi[:, None] * h.T - h * xi[None, :]) / n
    w = _mirror_upper(w)
    if zero_diagonal:
        np.fill_diagonal(w, 0.0)
    return w


def covariance_matrix(memories) -> np.ndarray:
    """Memory covariance C_{mu mu'} = (1/n) <xi^mu, xi^mu'>; shape (p, p)."""
    return _covariance(as_memory_set(memories).astype(np.float64))


def _covariance(xi: np.ndarray) -> np.ndarray:
    # of a memory set already validated and converted to float
    return (xi @ xi.T) / xi.shape[1]


def _storable_covariance(xi: np.ndarray) -> np.ndarray:
    """Covariance of a validated float memory set; `SingularCovarianceError`
    if its condition number is beyond _COND_LIMIT (the projection rule's test)."""
    c = _covariance(xi)
    cond = np.linalg.cond(c)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularCovarianceError(float(cond))
    return c


def projection_weights(memories, zero_diagonal: bool = True) -> np.ndarray:
    """Projection-rule weight matrix (1/n) Xi^T C^-1 Xi.

    For linearly independent memories the raw matrix is the orthogonal
    projector onto their span. A singular covariance raises
    `SingularCovarianceError`.
    """
    xi = as_memory_set(memories).astype(np.float64)
    c = _storable_covariance(xi)
    w = _mirror_upper(xi.T @ np.linalg.inv(c) @ xi / xi.shape[1])
    if zero_diagonal:
        np.fill_diagonal(w, 0.0)
    return w


_RULES = {"hebb": hebb_weights, "storkey": storkey_weights, "projection": projection_weights}
LEARNING_RULES = tuple(_RULES)


def weights_for_rule(rule: str, memories, zero_diagonal: bool = True) -> np.ndarray:
    """Dispatch a rule name from `LEARNING_RULES` to its weight constructor."""
    return _RULES[member(rule, "learning rule", LEARNING_RULES)](memories, zero_diagonal)
