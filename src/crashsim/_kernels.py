"""Hot paths: exact contact propagation and the first-order IIR filter.

Both are numpy-vectorised; neither loops over samples in Python.

The contact ODE m*x'' + c*x' + k*x = m*g is linear and time-invariant, so the
offset state y = (x - m*g/k, v) obeys y' = A*y with A = [[0, 1], [-w2, -2a]],
w2 = k/m and a = c/(2m), and advances exactly by Phi(h) = exp(A*h) per step.
Phi is evaluated in the form exp(-a*t) * (C(t)*I + S(t)*(A + a*I)), whose
C and S are continuous through critical damping (Moler & Van Loan, "Nineteen
dubious ways to compute the exponential of a matrix", SIAM Rev. 2003).

One chunk loop, propagate_contacts, serves every caller: it gives the peak
and the outcome of B x A contacts, and on request the samples of each. The
damper energy is not propagated. The energy dissipated over a step of h from
y is y'Qy with Q(h) = integral of Phi(s)' diag(0, c) Phi(s) ds over [0, h];
damper_gram takes Q from Van Loan's block exponential ("Computing integrals
involving the matrix exponential", IEEE TAC 1978), never from the energy
balance, so a caller sums it over the sampled states.
"""

from __future__ import annotations

import math

import numpy as np

# termination codes returned by propagate_contacts
TERM_REBOUND = 0
TERM_COLLISION = 1
TERM_MAX_TIME = 2

# steps propagated per numpy pass; bounds the temporaries of one call
CHUNK_STEPS = 512

# contacts that propagate_contacts advances together in one numpy pass, so a
# pass holds ROW_BLOCK x CHUNK_STEPS elements per array whatever B x A is
ROW_BLOCK = 8

# relative slack on the stop rule's bounds, far above the rounding of the
# propagated states, so a stop never rests on the last bits of a sample
STOP_SLACK = 1e-9


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


def damper_gram(alpha, w2, damping, h):
    """Symmetric Q(h) = integral over [0, h] of Phi(s)' diag(0, c) Phi(s) ds
    as (q00, q01, q11), so a step of h from y dissipates y'Qy in the damper.

    Van Loan: the top-right block G of exp([[-A', B], [0, A]]*tau) with
    B = diag(0, c) gives Q(tau) = Phi(tau)' G. The block is exponentiated by
    Taylor series on a step tau = h / 2**s short enough for it to converge
    fast, in the balanced state z = (w*y0, v); Q and Phi are then doubled up
    to h with Q(2t) = Q(t) + Phi(t)' Q(t) Phi(t), which never forms the
    growing block exp(-A'*h).
    """
    w = math.sqrt(w2)
    rate = 2.0 * w + 2.0 * alpha  # bounds the norm of the balanced A
    s = math.ceil(math.log2(rate * h / 0.5)) if rate * h > 0.5 else 0
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


def dissipated(q, y, v):
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


def propagate_contacts(mass, dampings, stiffness, gravity, v0s, clearance,
                       period, max_records, cutoff=None, keep=False):
    """Exact propagation of m*x'' + c*x' + k*x = m*g for every contact
    (dampings[b], v0s[a]).

    Returns the peak and the termination code of each contact as two (B, A)
    arrays, and a third (B, A) array that holds each contact's samples
    (t, x, v, a) when `keep` is set, else None. With `keep` the peaks are
    not computed and read NaN: the caller has the samples.

    A contact starts at x = 0 with velocity v0 and advances one sample
    period per step. A step holds a termination event when it ends past a
    wall (compression at `clearance`, or at zero after compression), or when
    v changes sign in it at an extremum that reaches the wall it faces: the
    stroke at a peak, zero at a dip. Phi(tau) and A commute, so v(tau) is the
    x-row of Phi(tau) applied to A*y: _event_time solves the turning time as
    it solves the event time, which the turning time then brackets. Zeros of
    v are pi/omega_d apart, so with omega_n*period <= pi (the caller's check)
    a step holds at most one. The last sample holds the exact state at the
    event. Without an event a contact ends after max_records periods. A v0
    of 0 is a zero-length contact, whose one sample is its initial state.
    The peak is the largest |a| when cutoff is None, else the largest
    |lowpass| output of |a - g| with k = tan(pi*cutoff*period).

    ROW_BLOCK contacts advance together, one chunk per numpy pass; a
    finished contact hands its row to the next. Unless `keep` is set, a
    contact also stops at the first chunk boundary where neither its outcome
    nor its peak can change any more. With y = x - x_eq and w2 = k/m:

    - E = v**2/2 + w2*y**2/2 never grows (dE/dt = -(c/m)*v**2), so from any
      state on |y| <= sqrt(2E/w2). With x_eq -+ that bound strictly inside
      (0, clearance) no event can follow: the contact reaches max_time.
    - a = -(c/m)*v - w2*y, so every later |a| is at most
      sqrt(2E)*(sqrt(w2) + c/m), and every later |a - g| at most g more.
    - For k <= 1 the filter's coefficients b0, b0 and r are nonnegative and
      sum to 1, so every later output is at most the largest of the current
      output and the later inputs.

    Once that bound is below the peak so far, the peak is final. One reader,
    peak, settles each contact without `keep`, at its end or at this stop:
    its largest reading is the raw peak and, for k <= 1, bounds the filtered
    one, so the stop filters only once the running largest reading exceeds
    the bound. Outputs before the last are the full trace's, bit for bit; the
    last has two inputs at most the bound, so it stays below the peak. For
    k > 1 the filter can overshoot its inputs and contacts stop only at events.
    """
    dampings = np.asarray(dampings, dtype=np.float64)
    v0s = np.asarray(v0s, dtype=np.float64)
    shape = (dampings.size, v0s.size)
    peaks, codes = np.empty(shape), np.empty(shape, dtype=int)
    kept = np.empty(shape, dtype=object)  # all None

    w2 = stiffness / mass
    w = math.sqrt(w2)
    x_eq = gravity / w2
    chunk = min(max_records, CHUNK_STEPS)
    steps = period * np.arange(chunk + 1)
    filtered = cutoff is not None
    k_mid = prewarped_gain(cutoff, period) if filtered else None
    stops = not keep and (not filtered or k_mid <= 1.0)
    shift = gravity if filtered else 0.0  # the sensor reads |a - g|, raw |a|
    slack = 1.0 + STOP_SLACK

    def accel(c, x, v):
        """a = g - (c*v + k*x)/m of states (x, v)."""
        return gravity - (c * v + stiffness * x) * (1.0 / mass)

    # per slot: transition entries, carried state, damping, progress, largest
    # reading so far and the record: stretches of (x, v) when keep, else readings
    slots = min(ROW_BLOCK, peaks.size)
    phi = np.zeros((4, slots, chunk + 1))
    state = np.zeros((2, slots))
    damping = np.zeros(slots)
    row_of = [None] * slots
    done = [0] * slots
    top = [0.0] * slots
    parts = [[] for _ in range(slots)]
    table, table_b = None, None
    pending = iter(range(peaks.size))

    def settle(s, code, value):
        codes.flat[row_of[s]], peaks.flat[row_of[s]] = code, value
        row_of[s] = None

    def peak(s, k_last, bound):
        """Slot s's peak, or None while it is at most bound."""
        if top[s] <= bound:
            return None
        trace = np.concatenate(parts[s])
        value = float((np.abs(lowpass(trace, k_mid, k_last)) if filtered else trace).max())
        return None if value <= bound else value

    def finish(s, code, t_before, t_end):
        """Settle slot s at its last sample, taken at t_end; t_before is the
        time of the sample before it."""
        if keep:
            x, v = (np.concatenate(c) for c in zip(*parts[s]))
            parts[s] = []  # drop the chunk views before the temporaries
            t = period * np.arange(x.size)
            t[-1] = t_end
            kept.flat[row_of[s]] = (t, x, v, accel(damping[s], x, v))
            settle(s, code, math.nan)
        else:
            k_last = prewarped_gain(cutoff, float(t_end - t_before)) if filtered else None
            settle(s, code, peak(s, k_last, -math.inf))

    while True:
        for s in range(slots):
            while row_of[s] is None:
                row = next(pending, None)
                if row is None:
                    break
                b, col = divmod(row, v0s.size)
                c, v0 = dampings[b], v0s[col]
                row_of[s], damping[s], done[s], top[s] = row, c, 0, 0.0
                parts[s] = [([0.0], [v0])] if keep else [[abs(accel(c, 0.0, v0) - shift)]]
                if v0 == 0.0:
                    # a zero-length contact ends at its one sample (a = g),
                    # which the filter passes unchanged over a step of 0
                    finish(s, TERM_REBOUND, 0.0, 0.0)
                    continue
                if b != table_b:
                    table, table_b = _transition(0.5 * c / mass, w2, steps), b
                phi[:, s] = table
                state[:, s] = (-x_eq, v0)
        if all(row is None for row in row_of):
            break

        # states at steps done .. done+chunk; column 0 repeats the carried state
        y = phi[0] * state[0][:, None] + phi[1] * state[1][:, None]
        v = phi[2] * state[0][:, None] + phi[3] * state[1][:, None]
        x = x_eq + y
        # events: a step ending at the stroke, or crossing zero downward
        hit = x[:, 1:] >= clearance
        hit |= (x[:, 1:] <= 0.0) & (x[:, :-1] > 0.0)
        first = np.argmax(hit, axis=1)
        # turning steps, where v changes sign, grouped by slot
        moving = v > 0.0
        rows, cols = np.nonzero(moving[:, :-1] != moving[:, 1:])
        edges = np.searchsorted(rows, np.arange(slots + 1)).tolist()
        cols = cols.tolist()
        if not keep:
            samples = np.abs(accel(damping[:, None], x, v) - shift)
        if stops:
            # twice the energy one sample before the chunk's end bounds the rest
            ye, ve = y[:, chunk - 1], v[:, chunk - 1]
            energy2 = ve * ve + w2 * ye * ye

        for s, row in enumerate(row_of):
            if row is None:
                continue
            length = min(chunk, max_records - done[s])
            alpha = 0.5 * damping[s] / mass
            # j: the first event's step, else length; a step ending past a wall holds one
            j = min(int(first[s]) if hit[s, first[s]] else chunk, length)
            collided, span = j < length and bool(x[s, j + 1] >= clearance), period
            for turn in cols[edges[s]:edges[s + 1]]:
                if turn >= j:
                    break
                yt, vt = y[s, turn], v[s, turn]
                # a peak faces the stroke, a dip zero
                side, offset = (1.0, x_eq - clearance) if vt > 0.0 else (-1.0, x_eq)
                # unsolved when the energy bound keeps x off that wall
                if side * offset + slack * math.sqrt(yt * yt + vt * vt / w2) < 0.0:
                    continue
                tau = _event_time(alpha, w2, 0.0, vt, -w2 * yt - 2.0 * alpha * vt, period)
                f00, f01, _, _ = _transition(alpha, w2, tau)
                if side * (offset + f00 * yt + f01 * vt) >= 0.0:
                    j, collided, span = turn, side > 0.0, tau
                    break
            parts[s].append((x[s, 1:j + 1], v[s, 1:j + 1]) if keep else samples[s, 1:j + 1])

            if j < length:  # the event step starts from state j
                tau = _event_time(alpha, w2, x_eq - (clearance if collided else 0.0),
                                  y[s, j], v[s, j], span)
                f00, f01, f10, f11 = _transition(alpha, w2, tau)
                x_ev = x_eq + f00 * y[s, j] + f01 * v[s, j]
                v_ev = f10 * y[s, j] + f11 * v[s, j]
                if keep:
                    parts[s].append(([x_ev], [v_ev]))
                else:
                    parts[s].append([abs(accel(damping[s], x_ev, v_ev) - shift)])
                finish(s, TERM_COLLISION if collided else TERM_REBOUND,
                       (done[s] + j) * period, (done[s] + j) * period + tau)
                continue
            if done[s] + length == max_records:
                finish(s, TERM_MAX_TIME, period * (max_records - 1), period * max_records)
                continue

            state[:, s] = y[s, chunk], v[s, chunk]
            done[s] += chunk
            if not stops:
                continue
            top[s] = max(top[s], samples[s].max())
            radius = slack * math.sqrt(energy2[s] / w2)
            if not (x_eq - radius > 0.0 and x_eq + radius < clearance):
                continue
            bound = slack * (shift + math.sqrt(energy2[s]) * (w + damping[s] / mass))
            if (value := peak(s, k_mid, bound)) is not None:
                settle(s, TERM_MAX_TIME, value)
    return peaks, codes, kept


def prewarped_gain(cutoff, dt):
    """Bilinear-transform coefficient tan(pi * fc * dt) for one step of dt."""
    return math.tan(math.pi * cutoff * dt)


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
