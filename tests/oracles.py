"""Independent reference implementations used only by the tests.

The flux oracle evaluates the upwinded interface distributions literally
(indicator functions and all) with adaptive quadrature, so it shares no code
path with the closed-form moments in the package.  The steady-state oracle
brackets the total-head equation with plain bisection.  The coarse
characteristics oracle marches the water-hammer equations in Riemann
invariants rather than compatibility relations.  The Strickler coefficient
is written out from the roughness and section, not read from the pipe.
The period oracle walks the mean-crossings one sample pair at a time.
"""

import math

import numpy as np
from scipy.integrate import quad

SQRT3 = math.sqrt(3.0)


def strickler_coefficient(strickler, section):
    """Manning-Strickler K = 1/(K_s^2 R_h^(4/3)) of a circular section S, with
    R_h = S/P and the wetted perimeter P = pi 2 sqrt(S/pi)."""
    perimeter = math.pi * (2.0 * math.sqrt(section / math.pi))
    return 1.0 / (strickler ** 2 * (section / perimeter) ** (4.0 / 3.0))


def rect_maxwellian(area, velocity, c):
    s = c * SQRT3
    dens = area / (2.0 * s)

    def m(xi):
        return dens if abs(xi - velocity) <= s else 0.0

    return m


def quad_piecewise(f, points):
    total = 0.0
    for lo, hi in zip(points[:-1], points[1:]):
        if hi > lo:
            val, _ = quad(f, lo, hi, limit=100)
            total += val
    return total


def _breakpoints(u_left, u_right, w_minus, c):
    """All candidate discontinuity locations of the interface distributions."""
    s = c * SQRT3
    pts = {0.0}
    for u in (u_left, u_right):
        pts.update((u - s, u + s, -(u + s), s - u))
    for w, u in ((w_minus, u_right), (-w_minus, u_left)):
        if w > 0:
            r = math.sqrt(w)
            pts.update((r, -r))
        for edge in (u - s, u + s):
            v = edge * edge + w
            if v >= 0:
                r = math.sqrt(v)
                pts.update((r, -r))
    lim = max(abs(p) for p in pts) + 1.0
    pts.update((lim, -lim))
    return sorted(pts)


def quad_interface_fluxes(a_left, q_left, a_right, q_right, z_left, z_right, c, g):
    """((F-_A, F-_Q), (F+_A, F+_Q)) by quadrature of the defining integrals."""
    u_left = q_left / a_left
    u_right = q_right / a_right
    m_left = rect_maxwellian(a_left, u_left, c)
    m_right = rect_maxwellian(a_right, u_right, c)
    w_minus = 2.0 * g * (z_right - z_left)
    w_plus = -w_minus

    def m_interface_minus(xi):
        v = 0.0
        if xi >= 0:
            v += m_left(xi)
        if xi <= 0:
            if xi * xi <= w_minus:
                v += m_left(-xi)
            if xi * xi >= w_minus:
                v += m_right(-math.sqrt(xi * xi - w_minus))
        return v

    def m_interface_plus(xi):
        v = 0.0
        if xi <= 0:
            v += m_right(xi)
        if xi >= 0:
            if xi * xi <= w_plus:
                v += m_right(-xi)
            if xi * xi >= w_plus:
                v += m_left(math.sqrt(xi * xi - w_plus))
        return v

    pts = _breakpoints(u_left, u_right, w_minus, c)
    f_minus = (quad_piecewise(lambda x: x * m_interface_minus(x), pts),
               quad_piecewise(lambda x: x * x * m_interface_minus(x), pts))
    f_plus = (quad_piecewise(lambda x: x * m_interface_plus(x), pts),
              quad_piecewise(lambda x: x * x * m_interface_plus(x), pts))
    return f_minus, f_plus


def quad_shifted_half_moments(area, velocity, c, potential_jump, positive_half):
    """Transmission moments by quadrature of the defining integral."""
    m = rect_maxwellian(area, velocity, c)
    w = potential_jump
    s = c * SQRT3

    if positive_half:
        def integrand0(xi):
            return xi * m(math.sqrt(xi * xi - w)) if xi * xi >= w else 0.0

        def integrand1(xi):
            return xi * xi * m(math.sqrt(xi * xi - w)) if xi * xi >= w else 0.0
    else:
        def integrand0(xi):
            return xi * m(-math.sqrt(xi * xi - w)) if xi * xi >= w else 0.0

        def integrand1(xi):
            return xi * xi * m(-math.sqrt(xi * xi - w)) if xi * xi >= w else 0.0

    pts = {0.0}
    if w > 0:
        pts.update((math.sqrt(w), -math.sqrt(w)))
    for edge in (velocity - s, velocity + s):
        v = edge * edge + w
        if v >= 0:
            pts.update((math.sqrt(v), -math.sqrt(v)))
    lim = max(abs(p) for p in pts) + 1.0
    pts.update((lim, -lim))
    pts = sorted(p for p in pts if (p >= 0) == positive_half or p == 0.0)
    return quad_piecewise(integrand0, pts), quad_piecewise(integrand1, pts)


def bisect_total_head_area(z, q0, head_const, c, g, lo=1e-8, hi=1e6):
    """A solving (q0/A)^2/2 + g z + c^2 ln A = head_const by bisection on the
    pressurized branch (A above the critical area where the residual turns
    increasing)."""

    def residual(area):
        return 0.5 * (q0 / area) ** 2 + g * z + c * c * math.log(area) - head_const

    a_crit = max((q0 * q0 / (c * c)) ** (1.0 / 3.0), lo) if q0 else lo
    a, b = a_crit, hi
    fa, fb = residual(a), residual(b)
    if fa > 0 or fb < 0:
        raise ValueError("bisection bracket does not contain the pressurized root")
    for _ in range(200):
        mid = 0.5 * (a + b)
        if residual(mid) > 0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def coarse_moc_waterhammer(length, nodes, a, g, section, head0_profile, q0,
                           closure, t_end, upstream_head):
    """Independent Riemann-invariant march of the linear water-hammer pair
    with an upstream fixed-head reservoir (velocity head included) and a
    downstream prescribed discharge.  Returns (times, head history at every
    node)."""
    x = np.linspace(0.0, length, nodes)
    dx = x[1] - x[0]
    dt = dx / a
    b = a / (g * section)
    alpha = 1.0 / (2.0 * g * section * section)
    head = np.array(head0_profile, dtype=float)
    q = np.full(nodes, float(q0))
    p = head + b * q     # right-moving invariant
    m = head - b * q     # left-moving invariant
    times = [0.0]
    history = [head.copy()]
    t = 0.0
    while t + dt <= t_end * (1 + 1e-12):
        t += dt
        p_new = np.empty_like(p)
        m_new = np.empty_like(m)
        p_new[1:] = p[:-1]
        m_new[:-1] = m[1:]
        # upstream: reservoir head with velocity-head correction
        m_up = m[1]
        disc = b * b - 4.0 * alpha * (m_up - upstream_head)
        q_up = (-b + math.sqrt(disc)) / (2.0 * alpha)
        p_new[0] = m_up + 2.0 * b * q_up
        # downstream: prescribed discharge against the arriving invariant
        p_dn = p[-2]
        q_dn = closure(t)
        m_new[-1] = p_dn - 2.0 * b * q_dn
        p, m = p_new, m_new
        head = 0.5 * (p + m)
        times.append(t)
        history.append(head.copy())
    return np.array(times), np.array(history)


def loop_detect_period(t, y, t_min=0.0):
    """``compare.detect_period`` as a plain loop over successive sample
    pairs: the same crossing formula and exact-zero rule, one pair at a time."""
    mask = t >= t_min
    t = t[mask]
    y = y[mask]
    if t.size < 3:
        return None
    d = y - y.mean()
    up = []
    down = []
    for i in range(d.size - 1):
        lo, hi = d[i], d[i + 1]
        if lo == 0.0:
            continue
        if lo * hi < 0.0:
            # linear interpolation of the crossing instant
            tc = t[i] + (t[i + 1] - t[i]) * lo / (lo - hi)
            (up if lo < 0.0 else down).append(tc)
        elif hi == 0.0 and i + 2 < d.size and lo * d[i + 2] < 0.0:
            (up if lo < 0.0 else down).append(t[i + 1])
    gaps = np.concatenate([np.diff(up), np.diff(down)])
    if gaps.size == 0:
        return None
    return float(np.median(gaps))
