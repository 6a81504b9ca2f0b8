"""Bounded nonlinear least squares over blocks of independent fits.

One projected Levenberg-Marquardt solver serves the Gaussian mixtures of
waveform decomposition and the exponential variogram fit. Each row of the
block is one fit; rows leave the block as they converge.
"""

from __future__ import annotations

import numpy as np


def _solve_rows(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked solve; a singular row gives NaN instead of failing the block."""
    try:
        return np.linalg.solve(m, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full_like(rhs, np.nan)
        for i in range(rhs.shape[0]):
            try:
                out[i] = np.linalg.solve(m[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
        return out


# fits whose Jacobian is formed at once: 0.3 MB for nine Gaussian parameters
# over 242 bins, the widest desk window
_ROWS = 16


def _evaluate(model, p, data):
    """(cost, gradient J r, normal matrix J J^T) of the fits at p, formed
    for _ROWS fits at a time. A Jacobian J lives only until its rows'
    reductions are formed, so plm's memory does not grow with its block."""
    out = []
    for i in range(0, len(p), _ROWS):
        rows = slice(i, i + _ROWS)
        r, jac = model(p[rows], *(v[rows] for v in data))
        out.append((0.5 * np.einsum("ij,ij->i", r, r), np.einsum("ipb,ib->ip", jac, r),
                    jac @ jac.transpose(0, 2, 1)))
    return tuple(np.concatenate(v) for v in zip(*out))


def plm(model, p0, lo, hi, data, *, xtol: float, ftol: float, gtol: float,
        max_nfev: int):
    """Bounded least squares, one fit per row of p0 (n, P).

    model(p, *data) returns the residuals (n, m) and Jacobian (n, P, m) of
    the fits whose parameters fill the rows of p; lo and hi (n, P) bound
    them, and every array in data holds one row per fit.

    Marquardt damping, scaled by the largest diagonal of the normal
    equations seen so far (as in MINPACK), with Nielsen's update per row. A
    variable held at a bound whose gradient points outward is fixed for
    the step (its row of the normal equations becomes the identity), and
    the step is clipped to the bounds (projected LM, Kanzow, Yamashita &
    Fukushima 2004). Stop rules follow scipy's least_squares: relative step
    xtol, relative cost decrease ftol, projected-gradient gtol, at most
    max_nfev model evaluations per fit. Returns (params, rss, ok); ok is
    False for a fit that did not converge within max_nfev evaluations or
    whose system went singular or non-finite.
    """
    n = p0.shape[0]
    p_out = np.array(p0, dtype=float)
    rss_out = np.full(n, np.nan)
    ok_out = np.zeros(n, dtype=bool)
    rows = np.arange(n)
    p = np.clip(p_out, lo, hi)
    cost, grad, a = _evaluate(model, p, data)
    mu = np.full(n, 1e-3)
    nu = np.full(n, 2.0)
    d = np.zeros_like(p)
    for _ in range(max_nfev - 1):
        d = np.maximum(d, np.einsum("ipp->ip", a))
        free = ~(((p <= lo) & (grad > 0)) | ((p >= hi) & (grad < 0)) | (d <= 0))
        g = np.where(free, grad, 0.0)
        m = a * (free[:, :, None] & free[:, None, :])
        m[:, np.arange(p.shape[1]), np.arange(p.shape[1])] += np.where(free, mu[:, None] * d, 1.0)
        step = np.clip(p + _solve_rows(m, -g), lo, hi) - p
        bad = ~np.isfinite(step).all(axis=1)
        step[bad] = 0.0
        trial = p + step
        cost_t, grad_t, a_t = _evaluate(model, trial, data)
        actual = cost - cost_t
        predicted = -np.einsum("ip,ip->i", g, step) - 0.5 * np.einsum(
            "ip,ipq,iq->i", step, a, step)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.where(predicted > 0, actual / predicted, 0.0)
        accept = np.isfinite(cost_t) & (actual > 0) & ~bad
        converged = ~bad & (
            (np.abs(g).max(axis=1) < gtol)
            | (np.linalg.norm(step, axis=1) < xtol * (xtol + np.linalg.norm(p, axis=1)))
            | (accept & (actual < ftol * cost) & (rho > 0.25)))
        # accepted rows take the trial in place
        np.copyto(p, trial, where=accept[:, None])
        np.copyto(cost, cost_t, where=accept)
        np.copyto(grad, grad_t, where=accept[:, None])
        np.copyto(a, a_t, where=accept[:, None, None])
        mu = np.where(accept, mu * np.maximum(1 / 3, 1 - (2 * rho - 1) ** 3), mu * nu)
        nu = np.where(accept, 2.0, 2 * nu)
        leave = converged | bad | ~np.isfinite(mu)
        if leave.any():
            done = rows[leave]
            p_out[done] = p[leave]
            rss_out[done] = 2 * cost[leave]
            ok_out[done] = converged[leave]
            keep = ~leave
            rows, p, lo, hi = (v[keep] for v in (rows, p, lo, hi))
            data = tuple(v[keep] for v in data)
            cost, grad, a, mu, nu, d = (v[keep] for v in (cost, grad, a, mu, nu, d))
            if rows.size == 0:
                break
    return p_out, rss_out, ok_out
