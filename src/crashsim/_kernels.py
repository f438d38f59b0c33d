"""Hot paths: exact contact propagation and the first-order IIR filter.

Both kernels are numpy-vectorised; neither loops over samples in Python.

The contact ODE m*x'' + c*x' + k*x = m*g is linear and time-invariant, so the
offset state y = (x - m*g/k, v) obeys y' = A*y with A = [[0, 1], [-w2, -2a]],
w2 = k/m and a = c/(2m), and advances exactly by Phi(h) = exp(A*h) per step.
Phi is evaluated in the form exp(-a*t) * (C(t)*I + S(t)*(A + a*I)), whose
C and S are continuous through critical damping (Moler & Van Loan, "Nineteen
dubious ways to compute the exponential of a matrix", SIAM Rev. 2003). The
damper energy dissipated over one step from y is y'Qy with
Q(h) = integral of Phi(s)' diag(0, c) Phi(s) ds over [0, h], taken from Van
Loan's block exponential ("Computing integrals involving the matrix
exponential", IEEE TAC 1978) and never from the energy balance.
"""

from __future__ import annotations

import math

import numpy as np

# termination codes returned by integrate_contact
TERM_REBOUND = 0
TERM_COLLISION = 1
TERM_MAX_TIME = 2

# steps propagated per numpy pass; bounds the temporaries of one call
CHUNK_STEPS = 512


def _transition(alpha, w2, tau):
    """Entries (p00, p01, p10, p11) of Phi(tau) = exp(A*tau) for
    A = [[0, 1], [-w2, -2*alpha]]; tau is a scalar or an array.

    Each branch computes c_ = exp(-alpha*tau)*C(tau) and
    s_ = exp(-alpha*tau)*S(tau), where (C, S) are (cos, sin/b), (cosh, sinh/r)
    or their common limit (1, tau), so Phi is continuous through
    alpha**2 = w2.
    The overdamped branch factors out the slow mode so that no term
    overflows however strong the damping.
    """
    d = w2 - alpha * alpha
    if d > 0.0:
        b = math.sqrt(d)
        decay = np.exp(-alpha * tau)
        c_ = decay * np.cos(b * tau)
        s_ = decay * np.sin(b * tau) / b
    elif d < 0.0:
        r = math.sqrt(-d)
        slow = np.exp(-(w2 / (alpha + r)) * tau)
        c_ = 0.5 * slow * (1.0 + np.exp(-2.0 * r * tau))
        s_ = -slow * np.expm1(-2.0 * r * tau) / (2.0 * r)
    else:
        c_ = np.exp(-alpha * tau)
        s_ = c_ * tau
    return c_ + alpha * s_, s_, -w2 * s_, c_ - alpha * s_


def _damper_gram(alpha, w2, damping, h):
    """Symmetric Q(h) = integral over [0, h] of Phi(s)' diag(0, c) Phi(s) ds
    as (q00, q01, q11), so a step from y dissipates y'Qy in the damper.

    Van Loan: the top-right block G of exp([[-A', B], [0, A]]*tau) with
    B = diag(0, c) gives Q(tau) = Phi(tau)' G. The block is exponentiated by
    Taylor series on a step tau = h / 2**s short enough for it to converge
    fast, in the balanced state z = (w*y0, v); Q and Phi are then doubled up
    to h with Q(2t) = Q(t) + Phi(t)' Q(t) Phi(t), which never forms the
    growing block exp(-A'*h).
    """
    w = math.sqrt(w2)
    rate = 2.0 * w + 2.0 * alpha  # bounds the norm of the balanced A
    s = max(0, math.ceil(math.log2(rate * h / 0.5)))
    tau = h / 2.0 ** s
    theta = rate * tau

    # [[-A', B], [0, A]] * tau with A = [[0, w], [-w, -2a]] in z = (w*y0, v)
    block = tau * np.array([[0.0, w, 0.0, 0.0],
                            [-w, 2.0 * alpha, 0.0, damping],
                            [0.0, 0.0, 0.0, w],
                            [0.0, 0.0, -w, -2.0 * alpha]])
    expm = term = np.eye(4)
    n, bound = 0, 1.0
    while bound > 1e-18:  # the Taylor remainder is below double rounding
        n += 1
        bound *= theta / n
        term = term @ block / n
        expm = expm + term
    phi = expm[2:, 2:]
    q = phi.T @ expm[:2, 2:]
    for _ in range(s):
        q = q + phi.T @ q @ phi
        phi = phi @ phi
    q = 0.5 * (q + q.T)
    # back from z = (w*y0, v) to y = (y0, v)
    return w2 * q[0, 0], w * q[0, 1], q[1, 1]


def _dissipated(q, y, v):
    """Damper energy y'Qy of steps that start from states (y, v)."""
    q00, q01, q11 = q
    return q00 * y * y + 2.0 * q01 * y * v + q11 * v * v


def _event_time(alpha, w2, offset, y0, y1, dt):
    """Root tau in (0, dt] of offset + x-row of Phi(tau) applied to (y0, y1),
    where the step [0, dt] brackets a sign change. Newton steps on the
    closed form, kept inside the bracket by bisection."""
    lo, hi = 0.0, dt
    f_lo = offset + y0
    p00, p01, _, _ = _transition(alpha, w2, dt)
    f_hi = offset + p00 * y0 + p01 * y1
    tau = dt * f_lo / (f_lo - f_hi)
    for _ in range(100):
        p00, p01, p10, p11 = _transition(alpha, w2, tau)
        f = offset + p00 * y0 + p01 * y1
        if f == 0.0:
            break
        if (f < 0.0) == (f_lo < 0.0):
            lo = tau
        else:
            hi = tau
        slope = p10 * y0 + p11 * y1
        step = f / slope if slope != 0.0 else math.inf
        nxt = tau - step
        if not lo < nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if nxt == tau or hi - lo <= 4.0 * math.ulp(dt):
            break
        tau = float(nxt)
    return float(tau)


def integrate_contact(mass, damping, stiffness, gravity, v0, clearance,
                      dt, substeps, max_records):
    """Exact propagation of m*x'' + c*x' + k*x = m*g during contact.

    Advances on steps of dt and records every `substeps`-th state, so the
    recorded grid has spacing substeps*dt (the scenario sampling period).
    The damper energy accumulates y'Q(dt)y per step.

    Termination events (compression reaching `clearance` from below, or
    crossing zero downward after compression) are bracketed on the step grid;
    the event time is the root of the closed form inside its step, and the
    final sample holds the exact state there.

    Returns (t, x, v, a, e, termination_code).
    """
    alpha = 0.5 * damping / mass
    w2 = stiffness / mass
    x_eq = gravity / w2

    total = max_records * substeps
    chunk = min(total, substeps * max(1, CHUNK_STEPS // substeps))
    p00, p01, p10, p11 = _transition(alpha, w2, dt * np.arange(chunk + 1))
    q = _damper_gram(alpha, w2, damping, dt)

    times, xs, vs, es = [np.zeros(1)], [np.zeros(1)], [np.array([v0])], [np.zeros(1)]
    y0, y1, e0 = -x_eq, v0, 0.0
    term = TERM_MAX_TIME
    done = 0
    while done < total:
        # states at steps done .. done+chunk; index 0 repeats the carried state
        y = p00 * y0 + p01 * y1
        v = p10 * y0 + p11 * y1
        e = np.concatenate(([e0], e0 + np.cumsum(_dissipated(q, y[:-1], v[:-1]))))
        x = x_eq + y
        hit = x[1:] >= clearance
        hit |= (x[1:] <= 0.0) & (x[:-1] > 0.0)
        first = np.flatnonzero(hit)
        end = int(first[0]) + 1 if first.size else chunk + 1

        record = slice(substeps, end, substeps)
        times.append(dt * (done + np.arange(substeps, end, substeps)))
        xs.append(x[record])
        vs.append(v[record])
        es.append(e[record])

        if first.size:
            j = end - 1  # the event step starts from state j
            collided = bool(x[end] >= clearance)
            level = clearance if collided else 0.0
            tau = _event_time(alpha, w2, x_eq - level, y[j], v[j], dt)
            f00, f01, f10, f11 = _transition(alpha, w2, tau)
            times.append([(done + j) * dt + tau])
            xs.append([x_eq + f00 * y[j] + f01 * v[j]])
            vs.append([f10 * y[j] + f11 * v[j]])
            gram = _damper_gram(alpha, w2, damping, tau)
            es.append([e[j] + _dissipated(gram, y[j], v[j])])
            term = TERM_COLLISION if collided else TERM_REBOUND
            break

        y0, y1, e0 = y[-1], v[-1], e[-1]
        done += chunk
        if total - done < chunk:
            chunk = total - done
            p00, p01, p10, p11 = (p[:chunk + 1] for p in (p00, p01, p10, p11))

    t, x, v, e = (np.concatenate(parts) for parts in (times, xs, vs, es))
    del times, xs, vs, es  # drop the chunk copies before the last temporaries
    a = gravity - (damping * v + stiffness * x) * (1.0 / mass)
    return t, x, v, a, e, term


def lowpass(values, k_mid, k_last):
    """First-order low-pass via the bilinear transform, k = tan(pi*fc*dt).

    The recurrence y[i] = b0*(x[i] + x[i-1]) + r*y[i-1], r = (1-k)/(1+k),
    is warm-started at x[-1] = y[-1] = values[0], so a constant input passes
    through unchanged. It is evaluated as a doubling scan: after the pass
    with offset d each output holds the last 2*d terms of its sum, and the
    scan stops once r**d underflows or covers the trace. k_last applies to
    the final transition only; it lets an event-terminated trajectory end on
    a shorter-than-nominal step.
    """
    n = values.shape[0]
    m = n - 1  # the final sample is advanced on its own coefficients
    b0 = k_mid / (1.0 + k_mid)
    r = (1.0 - k_mid) / (1.0 + k_mid)

    out = np.empty(n)
    np.add(values[1:m], values[:m - 1], out=out[1:m])
    out[:m] *= b0
    if m:
        out[0] = b0 * (values[0] + values[0]) + r * values[0]
    scratch = np.empty(max(m - 1, 0))
    d, r_d = 1, r
    while d < m and r_d != 0.0:
        np.multiply(out[:m - d], r_d, out=scratch[:m - d])
        out[d:m] += scratch[:m - d]
        d *= 2
        r_d *= r_d

    b0_last = k_last / (1.0 + k_last)
    a1_last = (k_last - 1.0) / (1.0 + k_last)
    x_prev = values[m - 1] if m else values[0]
    y_prev = out[m - 1] if m else values[0]
    out[m] = b0_last * (values[m] + x_prev) - a1_last * y_prev
    return out
