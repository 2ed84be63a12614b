"""Reference integration of the reverse radial Loewner flow, apart from slelab.

Integrates, for each path-point pair, the conjugate reverse flow

    dw/dt = w (w + lam) / (w - lam),           lam = exp(i theta(t)),
    d(log w')/dt = (w + lam)/(w - lam) - 2 lam w / (w - lam)^2,
    d(log(w/z))/dt = (w + lam)/(w - lam),

with theta linear inside each step of the driver, by SciPy's DOP853 on
every driver step separately, so the kinks of the driver fall on step
boundaries.  At rtol 1e-11 this agrees with itself at rtol 1e-9 to about
1e-9 on the near-circle probes, far below the bounds it is used to check.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

RTOL = 1e-11
ATOL = 1e-13


def flow_reference(times, theta, z0, rtol=RTOL, atol=ATOL):
    """Final (w, log w', log(w/z)) for each row of ``theta`` started at ``z0``.

    ``theta`` has shape (n, N+1) on the grid ``times`` (length N+1); ``z0``
    has length n.  Returns three complex arrays of length n.
    """
    theta = np.asarray(theta, dtype=float)
    z0 = np.asarray(z0, dtype=complex)
    n = len(z0)
    y = np.concatenate([z0, np.zeros(n, complex), np.zeros(n, complex)])
    for k in range(len(times) - 1):
        t0, t1 = float(times[k]), float(times[k + 1])
        th0 = theta[:, k]
        slope = (theta[:, k + 1] - th0) / (t1 - t0)

        def rhs(t, y, th0=th0, slope=slope, t0=t0):
            w = y[:n]
            lam = np.exp(1j * (th0 + slope * (t - t0)))
            inv = 1.0 / (w - lam)
            s = (w + lam) * inv
            return np.concatenate([w * s, s - 2.0 * lam * w * inv * inv, s])

        sol = solve_ivp(rhs, (t0, t1), y, method="DOP853", rtol=rtol, atol=atol)
        if not sol.success:
            raise ArithmeticError(f"reference integration failed at t={t0}: {sol.message}")
        y = sol.y[:, -1]
    return y[:n], y[n:2 * n], y[2 * n:]
