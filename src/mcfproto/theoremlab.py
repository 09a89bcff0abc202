"""Numerical verification that the expected-L1 concentration objective over
rotations is minimized by the eigenframe of the sample covariance.

Three independent routes are checked against each other:
  * the closed form  J(R) = c * sum_i sqrt((R^T Sigma R)_ii),
  * a Monte-Carlo estimate of E ||R^T a||_1 under a Gaussian sampler,
  * multi-restart Newton minimization over SO(d), whose optimum must land
    on the eigenframe (modulo signed permutation) with value c * sum sqrt(lambda_i),
together with the Schur-Horn majorization and Karamata inequality the
minimality argument rests on.
"""

import statistics
from dataclasses import dataclass

import numpy as np

from . import linalg

GAUSSIAN_C = np.sqrt(2.0 / np.pi)  # E|z_1| for a standard normal
# per dim of SO(d): the strict upper triangle's index and the identity, built once
_TABLES = {d: ((..., *np.triu_indices(d, 1)), np.eye(d)) for d in range(2, 7)}
# the Newton step: |eigenvalues| of the Hessian below _EIG_FLOOR count as
# _EIG_FLOOR, and a step longer than _MAX_STEP (radians) is cut to it
_EIG_FLOOR = 1e-12
_MAX_STEP = 0.5


def sigma_sqrt(sigma):
    eig = linalg.sym_eigen(sigma)
    if np.any(eig.values < -1e-12 * max(abs(eig.values[0]), 1.0)):
        raise ValueError("sigma must be positive semidefinite")
    root = np.sqrt(np.maximum(eig.values, 0.0))
    return eig.vectors @ np.diag(root) @ eig.vectors.T


@dataclass
class EllipticalSampler:
    """Draws a = Sigma^{1/2} z with z standard normal, so E|z_1| = GAUSSIAN_C."""

    sigma: np.ndarray
    seed: int = 0

    def __post_init__(self):
        self.sigma = np.asarray(self.sigma, dtype=float)
        self.dim = self.sigma.shape[0]
        self.root = sigma_sqrt(self.sigma)

    def sample(self, n, stream=0):
        rng = np.random.Generator(np.random.Philox(key=[self.seed, stream]))
        # rng.normal's values, without its 0.0 + 1.0 * z
        return rng.standard_normal((n, self.dim)) @ self.root.T


def _check_orthogonal(R, tol=1e-9):
    R = np.asarray(R, dtype=float)
    if np.linalg.norm(R.T @ R - np.eye(R.shape[0])) > tol:
        raise ValueError("R is not orthogonal within tolerance")
    return R


def j_closed_form(R, sigma, c=GAUSSIAN_C):
    """c * sum_i sqrt((R^T Sigma R)_ii)."""
    R = _check_orthogonal(R)
    diag = np.diagonal(R.T @ np.asarray(sigma, float) @ R)
    if np.any(diag < -1e-12):
        raise ValueError("R^T Sigma R has a negative diagonal entry")
    return float(c * np.sqrt(np.maximum(diag, 0.0)).sum())


def j_monte_carlo(R, sampler, n, stream=0):
    """Sample mean of ||R^T a||_1 with its standard error."""
    if n < 1000:
        raise ValueError("need at least 1000 samples")
    R = _check_orthogonal(R)
    a = sampler.sample(n, stream=stream) @ R
    np.abs(a, out=a)
    # column by column, faster than .sum(axis=1) and, as numpy adds fewer than
    # 8 terms in order, bitwise equal to it for every dim verify runs
    per_sample = a[:, 0].copy()
    for col in a.T[1:]:
        per_sample += col
    return float(per_sample.mean()), float(per_sample.std(ddof=1) / np.sqrt(n))


def analytic_minimum(sigma, c=GAUSSIAN_C):
    lam = np.maximum(linalg.sym_eigen(sigma).values, 0.0)
    return float(c * np.sqrt(lam).sum())


# ---------------------------------------------------------------------------
# minimization over SO(d)
# ---------------------------------------------------------------------------

def _cayley(theta, dim):
    """Cayley map of each row of theta, shape (..., n_par) -> (..., d, d)."""
    upper, eye = _TABLES[dim]
    A = np.zeros(theta.shape[:-1] + (dim, dim))
    A[upper] = theta
    A -= np.swapaxes(A, -1, -2)
    return np.linalg.solve(eye - A, eye + A)


def _derivatives(R, sigma, c):
    """Gradient and Hessian of theta -> J(R cayley(theta)) at theta = 0.

    With M = R^T Sigma R, s_i = sqrt(M_ii) and w_p = 1/s_b - 1/s_a for each
    upper-triangle pair p = (a, b):
      g_p  = 2c M_ab w_p,
      H_pq = 2c [(K_p)_a'b' w_q + (K_q)_ab w_p] - 4c sum_i u_pi u_qi / s_i^3,
    where q = (a', b'), K_p = M E_p - E_p M for the skew basis E_p of
    _cayley, and u_pi = M_ab (delta_ib - delta_ia). R may carry leading
    axes, (..., d, d) -> (..., n_par) and (..., n_par, n_par)."""
    M = np.swapaxes(R, -1, -2) @ sigma @ R
    upper = _TABLES[M.shape[-1]][0]
    a, b = upper[1], upper[2]
    ap, bp, aq, bq = a[:, None], b[:, None], a[None, :], b[None, :]
    inv_s = 1.0 / np.sqrt(np.diagonal(M, axis1=-2, axis2=-1))
    w = inv_s[..., b] - inv_s[..., a]
    m_ab = M[upper]
    grad = 2.0 * c * m_ab * w
    # (K_p)_{a_q b_q}: rows p, columns q
    k = (M[..., aq, ap] * (bq == bp) - M[..., aq, bp] * (bq == ap)
         - M[..., bp, bq] * (aq == ap) + M[..., ap, bq] * (aq == bp))
    # sum_i u_pi u_qi / s_i^3 = M_ab M_a'b' times this
    t_a, t_b = inv_s[..., ap] ** 3, inv_s[..., bp] ** 3
    uu = t_b * (bp == bq) - t_b * (bp == aq) + t_a * (ap == aq) - t_a * (ap == bq)
    hess = 2.0 * c * (k * w[..., None, :] + np.swapaxes(k, -1, -2) * w[..., :, None]
                      - 2.0 * m_ab[..., :, None] * m_ab[..., None, :] * uu)
    return grad, hess


def _minimize(sigma, c, theta0, dim, iters=15):
    """Saddle-free Newton in Cayley coordinates, re-centred at the current R
    every step: theta = -V |Lambda|^-1 V^T g from the eigendecomposition of
    the Hessian, its norm capped at _MAX_STEP, then R <- R cayley(theta).

    Each row of theta0, shape (restarts, n_par), starts one restart; the
    restarts share every step but not their values. Returns the stacked
    R, shape (restarts, d, d), and each one's j_closed_form."""
    R = _cayley(theta0, dim)
    for _ in range(iters):
        g, H = _derivatives(R, sigma, c)
        lam, V = np.linalg.eigh(H)
        # elementwise products and sums, not a stacked matmul, so that every
        # restart's step is bitwise what it is alone
        y = (V * g[..., :, None]).sum(-2) / np.maximum(np.abs(lam), _EIG_FLOOR)
        theta = -(V * y[..., None, :]).sum(-1)
        norm = np.sqrt((theta * theta).sum(-1, keepdims=True))
        theta *= _MAX_STEP / np.maximum(norm, _MAX_STEP)
        R = R @ _cayley(theta, dim)
    return R, np.array([j_closed_form(r, sigma, c) for r in R])


def alignment_report(R, sigma, degenerate_gap=1e-6):
    """Per-column minimum unsigned angle (deg) between R's columns and the
    nearest eigenvector of sigma; degenerate eigenspaces are compared by
    principal angles between subspaces."""
    eig = linalg.sym_eigen(sigma)
    lam, V = eig.values, eig.vectors
    dim = len(lam)
    groups = []
    start = 0
    for i in range(1, dim + 1):
        if i == dim or lam[start] - lam[i] > degenerate_gap * max(abs(lam[0]), 1.0):
            groups.append(list(range(start, i)))
            start = i
    angles = np.full(dim, np.nan)
    used = set()
    for g in groups:
        sub_v = V[:, g]
        # columns of R best matching this eigenspace
        scores = np.linalg.norm(sub_v.T @ R, axis=0)
        cols = [c for c in np.argsort(-scores) if c not in used][: len(g)]
        used.update(cols)
        sv = np.linalg.svd(sub_v.T @ R[:, cols], compute_uv=False)
        principal = np.degrees(np.arccos(np.clip(sv, 0.0, 1.0)))
        for c, a in zip(cols, principal):
            angles[c] = a
    return {"angles_deg": angles, "max_angle_deg": float(np.nanmax(angles))}


def minimize_over_so(sigma, c=GAUSSIAN_C, restarts=32, seed=0, iters=15):
    """Multi-restart Newton minimization of the closed form over SO(d).

    Returns dict with R_star, j_star, the analytic optimum, and the
    axis-alignment report against sigma's eigenvectors.
    """
    sigma = np.asarray(sigma, dtype=float)
    dim = sigma.shape[0]
    if dim < 2 or dim > 6:
        raise ValueError("dimension must be in [2, 6]")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    n_par = dim * (dim - 1) // 2
    theta0 = np.stack([
        np.random.Generator(np.random.Philox(key=[seed, r])).normal(0.0, 0.5, n_par)
        for r in range(restarts)])
    R, vals = _minimize(sigma, c, theta0, dim, iters=iters)
    best = int(np.argmin(vals))  # a tie goes to the lowest restart
    R_star, j_star = R[best], float(vals[best])
    target = analytic_minimum(sigma, c)
    report = alignment_report(R_star, sigma)
    converged = j_star <= target * (1.0 + 1e-6) + 1e-9
    return {
        "R_star": R_star,
        "j_star": j_star,
        "j_analytic": target,
        "alignment": report,
        "converged": bool(converged),
        "restarts": restarts,
        "seed": seed,
    }


def majorization_check(sigma, R, tol=1e-10):
    """Schur-Horn partial sums and the Karamata sqrt-sum direction."""
    sigma = np.asarray(sigma, dtype=float)
    R = _check_orthogonal(R)
    diag = np.sort(np.diagonal(R.T @ sigma @ R))[::-1]
    lam = linalg.sym_eigen(sigma).values
    scale = max(abs(lam[0]), 1.0)
    partial_margins = np.cumsum(lam) - np.cumsum(diag)
    trace_gap = abs(partial_margins[-1])
    sqrt_margin = np.sqrt(np.maximum(diag, 0.0)).sum() - np.sqrt(
        np.maximum(lam, 0.0)
    ).sum()
    ok = bool(
        np.all(partial_margins >= -tol * scale)
        and trace_gap <= tol * scale
        and sqrt_margin >= -tol * max(np.sqrt(scale), 1.0)
    )
    return {
        "pass": ok,
        "partial_sum_margins": partial_margins,
        "trace_gap": float(trace_gap),
        "sqrt_sum_margin": float(sqrt_margin),
    }


def random_spd(rng, dim, eigengap_ratio=1.05, lam_range=(0.2, 9.0)):
    """Random SPD matrix whose sorted eigenvalues keep a minimum ratio gap."""
    while True:
        lam = np.sort(rng.uniform(*lam_range, dim))[::-1]
        if np.all(lam[:-1] / lam[1:] > eigengap_ratio):
            break
    Q = _random_orthogonal(rng, dim)
    return Q @ np.diag(lam) @ Q.T


def _random_orthogonal(rng, dim):
    M = rng.normal(size=(dim, dim))
    Q, Rm = np.linalg.qr(M)
    Q = Q * np.sign(np.diagonal(Rm))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def verify(dim=3, trials=20, seed=0, mc_samples=10 ** 5, restarts=8):
    """Full verification sweep; returns per-check results and overall pass."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0xABCD]))
    # Two-sided bound in standard errors, split over the trials: a correct
    # closed form fails some trial's Monte-Carlo check with probability 1e-6.
    z_mc = statistics.NormalDist().inv_cdf(1 - 1e-6 / (2 * trials))
    checks = []
    for trial in range(trials):
        sigma = random_spd(rng, dim)
        sampler = EllipticalSampler(sigma, seed=seed * 1000 + trial)
        R = _random_orthogonal(rng, dim)
        mc, se = j_monte_carlo(R, sampler, mc_samples)
        closed = j_closed_form(R, sigma)
        mc_ok = abs(mc - closed) <= z_mc * se
        opt = minimize_over_so(sigma, restarts=restarts, seed=seed * 77 + trial)
        opt_ok = (
            abs(opt["j_star"] - opt["j_analytic"]) <= 1e-6 * max(opt["j_analytic"], 1.0)
            and opt["alignment"]["max_angle_deg"] <= 0.5
        )
        maj = majorization_check(sigma, R)
        checks.append({
            "trial": trial,
            "mc_vs_closed": {"mc": mc, "stderr": se, "closed": closed, "pass": bool(mc_ok)},
            "minimization": {
                "j_star": opt["j_star"],
                "j_analytic": opt["j_analytic"],
                "max_angle_deg": opt["alignment"]["max_angle_deg"],
                "pass": bool(opt_ok),
            },
            "majorization": {"pass": maj["pass"]},
            "pass": bool(mc_ok and opt_ok and maj["pass"]),
        })
    overall = all(c["pass"] for c in checks)
    return {"dim": dim, "trials": trials, "seed": seed, "checks": checks,
            "pass": overall}
