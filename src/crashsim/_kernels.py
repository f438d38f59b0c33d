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

A call of many contacts without samples settles the contacts that end in
bulk: one Newton solve over an array of their events (_event_times, which
replays _event_time element for element) and one filter pass over blocks
of their readings, a segmented doubling scan (Blelloch, "Prefix sums and
their applications", 1990). Each contact gets what it gets alone, bit for
bit, as long as numpy's exp, cos, sin and expm1 give an array element the
bits they give the value alone.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NumericalError

# termination codes returned by propagate_contacts
TERM_REBOUND = 0
TERM_COLLISION = 1
TERM_MAX_TIME = 2

# steps propagated per numpy pass; bounds the temporaries of one call
CHUNK_STEPS = 512

# contacts that propagate_contacts advances together in one numpy pass, so a
# pass holds ROW_BLOCK x CHUNK_STEPS elements per array whatever B x A is
ROW_BLOCK = 8

# calls of at least this many contacts without `keep` settle the contacts
# that end in bulk, batch by batch: one array event solve and one batched
# filter, where a smaller call solves and filters each contact as it ends.
# On the reference frame (2 CPUs, numpy 2.4) a whole call breaks even at
# ~21-24 contacts, within 1 % from 18 to 24, and the array event solve
# against scalar solves at ~32 events; no fit call has a size in between
BULK_CONTACTS = 16

# samples of ended contacts that a bulk call holds before it settles them,
# in one 128 KB buffer, so its memory stays bounded whatever B x A is
SETTLE_SAMPLES = 4 * ROW_BLOCK * CHUNK_STEPS

# relative slack on the stop rule's bounds, far above the rounding of the
# propagated states, so a stop never rests on the last bits of a sample
STOP_SLACK = 1e-9


def _mode(alpha, w2):
    """(d, sqrt(|d|)) for d = w2 - alpha**2, taken over alpha**2 where it overflows."""
    scale = 1.0 if alpha < 1e154 else alpha
    d = w2 / scale / scale - (alpha / scale) * (alpha / scale)
    return d, scale * math.sqrt(abs(d))


def _transition(alpha, w2, tau, d=None, r=None):
    """Entries (p00, p01, p10, p11) of Phi(tau) = exp(A*tau) for
    A = [[0, 1], [-w2, -2*alpha]]; tau is a scalar or an array, and (d, r) is
    _mode(alpha, w2), taken from there unless given.

    Each branch computes c_ = exp(-alpha*tau)*C(tau) and
    s_ = exp(-alpha*tau)*S(tau), where (C, S) are (cos, sin/r), (cosh, sinh/r)
    or their common limit (1, tau), with r = sqrt(|w2 - alpha**2|), so Phi is
    continuous through alpha**2 = w2.
    The overdamped branch factors out the slow mode so that no term
    overflows however strong the damping.
    """
    if d is None:
        d, r = _mode(alpha, w2)
    if d > 0.0:
        decay = np.exp(-alpha * tau)
        c_ = decay * np.cos(r * tau)
        s_ = decay * np.sin(r * tau) / r
    elif d < 0.0:
        slow = np.exp(-(w2 / (alpha + r)) * tau)
        c_ = 0.5 * slow * (1.0 + np.exp(-2.0 * r * tau))
        s_ = -slow * np.expm1(-2.0 * r * tau) / (2.0 * r)
    else:
        c_ = np.exp(-alpha * tau)
        s_ = c_ * tau
    return c_ + alpha * s_, s_, -w2 * s_, c_ - alpha * s_


def _branches(alpha, w2):
    """(sign of d, where, alpha, r) of each _transition branch that the
    elements of the array alpha take."""
    d, r = np.array([_mode(a, w2) for a in alpha.tolist()]).T
    return [(sign, at, alpha[at], r[at]) for sign in (1.0, -1.0, 0.0)
            if (at := np.sign(d) == sign).any()]


def _transitions(branches, w2, tau):
    """_transition(alpha[i], w2, tau[i]) for every i, bit for bit: the same
    operations on each element, with branches from _branches(alpha, w2)."""
    phi = np.empty((4, tau.size))
    for sign, at, alpha, r in branches:
        phi[:, at] = _transition(alpha, w2, tau[at], sign, r)
    return phi


def _turning_time(alpha, w2, y, v, d, r):
    """Time [s] from the state (y, v) to the next zero of v = c_*v + s_*u,
    u = -w2*y - alpha*v, with (d, r) = _mode(alpha, w2): tan(r*t) = -r*v/u,
    tanh(r*t) = -r*v/u or t = -v/u, no root solve; inf when v keeps its
    sign. (v, u) and (-v, -u) share the root, which is solved for v >= 0."""
    sign = math.copysign(1.0, v)
    v, u = abs(v), sign * (-w2 * y - alpha * v)
    if d > 0.0:
        return math.atan2(r * v, -u) / r
    if d < 0.0:
        return math.atanh(r * v / -u) / r if -u > r * v else math.inf
    return -v / u if u < 0.0 else math.inf


def _reach(alpha, w2, y, v):
    """(lo, hi) around every later y from the state (y, v), widened by
    STOP_SLACK of hypot(y, v/sqrt(w2)). y moves monotonically to the next
    extremum y1, at _turning_time; when underdamped the next one is
    y2 = -y1*exp(-alpha*pi/r) (the logarithmic decrement) and later ones
    shrink on, else y creeps on to 0 without another extremum."""
    d, r = _mode(alpha, w2)
    ends = [y, 0.0]
    t = _turning_time(alpha, w2, y, v, d, r)
    if t < math.inf:
        p00, p01, _, _ = _transition(alpha, w2, t, d, r)
        y1 = float(p00 * y + p01 * v)
        ends += [y1, -y1 * math.exp(-alpha * math.pi / r) if d > 0.0 else 0.0]
    pad = STOP_SLACK * math.hypot(y, v / math.sqrt(w2))
    return min(ends) - pad, max(ends) + pad


def first_peak(params, v0, horizon):
    """Largest compression [m] from x = 0 at speed v0 (0 when v0 = 0) up to
    the horizon [s] or the first zero of v, at _turning_time from
    (-x_eq, v0)."""
    alpha, w2 = 0.5 * params.damping / params.mass, params.stiffness / params.mass
    x_eq = params.gravity / w2
    d, r = _mode(alpha, w2)
    t = _turning_time(alpha, w2, -x_eq, v0, d, r)
    p00, p01, _, _ = _transition(alpha, w2, min(t, horizon) if v0 else 0.0, d, r)
    return float(x_eq + (p00 * -x_eq + p01 * v0))


@functools.lru_cache(maxsize=64)
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
    closed form, kept inside the bracket by bisection; equal ends give dt."""
    # on Python floats: the operations of numpy scalars at a fraction of the cost
    alpha, offset, y0, y1, dt = map(float, (alpha, offset, y0, y1, dt))
    mode = _mode(alpha, w2)
    lo, hi = 0.0, dt
    f_lo = offset + y0
    p00, p01, _, _ = map(float, _transition(alpha, w2, dt, *mode))
    f_hi = offset + p00 * y0 + p01 * y1
    tau = dt * f_lo / (f_lo - f_hi) if f_lo != f_hi else dt
    for _ in range(100):
        p00, p01, p10, p11 = map(float, _transition(alpha, w2, tau, *mode))
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
        tau = nxt
    return tau


def _event_times(branches, w2, offset, y0, y1, dt):
    """_event_time of every element of the arrays offset, y0, y1 and dt,
    with branches = _branches(alpha, w2) of their alpha, all solved together:
    each element takes the same iterates, bisection fallbacks and stops as
    its scalar solve, so the roots agree bit for bit."""
    lo, hi = np.zeros_like(dt), dt
    f_lo = offset + y0
    p00, p01, _, _ = _transitions(branches, w2, dt)
    f_hi = offset + p00 * y0 + p01 * y1
    tau = np.where(f_lo != f_hi, dt * f_lo / (f_lo - f_hi), dt)
    close = 4.0 * np.spacing(dt)
    active = np.ones(dt.shape, dtype=bool)
    for _ in range(100):
        p00, p01, p10, p11 = _transitions(branches, w2, tau)
        f = offset + p00 * y0 + p01 * y1
        below = (f < 0.0) == (f_lo < 0.0)
        lo, hi = np.where(below, tau, lo), np.where(below, hi, tau)
        slope = p10 * y0 + p11 * y1
        nxt = tau - np.where(slope != 0.0, f / slope, math.inf)
        nxt = np.where((lo < nxt) & (nxt <= hi), nxt, 0.5 * (lo + hi))
        active &= ~((f == 0.0) | (nxt == tau) | (hi - lo <= close))
        tau = np.where(active, nxt, tau)
        if not active.any():
            break
    return tau


def _unresolved(t_step, miss, wall):
    """The error for an event that its solve left `miss` from its wall."""
    return NumericalError(
        f"the event in the step at t = {t_step:.6g} s is not "
        f"resolved: located {abs(miss):.3g} m from its wall at {wall:g} m",
        time=float(t_step))


def propagate_contacts(mass, dampings, stiffness, gravity, v0s, clearance,
                       period, max_records, cutoff=None, keep=False, stop_when_final=False):
    """Exact propagation of m*x'' + c*x' + k*x = m*g for every contact
    (dampings[b], v0s[a]).

    Returns the peak and the termination code of each contact as two (B, A)
    arrays, and a third (B, A) object array that holds each contact's
    samples (t, x, v, a) when `keep` is set, else None in every entry. With
    `keep` the peaks are not computed and read NaN: the caller has the
    samples.

    A contact starts at x = 0 with velocity v0 and advances one sample
    period per step. A step holds a termination event when it ends past a
    wall (compression at `clearance`, or at zero after compression), or when
    v changes sign in it at an extremum that reaches the wall it faces: the
    stroke at a peak, zero at a dip. Phi(tau) and A commute, so v(tau) is the
    x-row of Phi(tau) applied to A*y: _event_time solves the turning time as
    it solves the event time, which the turning time then brackets. Zeros of
    v are pi/omega_d apart, so with omega_n*period <= pi (the caller's check)
    a step holds at most one. The last sample holds the exact state at the
    event. An event that _event_time cannot locate, because its bracket
    closes to 4 ulp of the step while the state there is still farther from
    the wall than STOP_SLACK of |x_eq - wall| + |y|, raises NumericalError.
    Without an event a contact ends after max_records periods. A v0
    of 0 is a zero-length contact, whose one sample is its initial state.
    The peak is the largest |a| when cutoff is None, else the largest
    |lowpass| output of |a - g| with k = tan(pi*cutoff*period).

    ROW_BLOCK contacts advance together, one chunk per numpy pass; a
    finished contact hands its row to the next. Unless `keep` is set without
    `stop_when_final`, a contact also stops at the first chunk boundary where
    neither its outcome nor its peak (with `keep`, its largest x) can change.
    With y = x - x_eq and w2 = k/m:

    - y moves monotonically to its next extremum, and later extrema shrink
      by exp(-alpha*pi/r) each, so _reach gives the range of every later y
      from the next one or two. With x_eq + that range strictly inside
      (0, clearance) no event can follow: the contact reaches max_time. Below
      the largest x so far, its top ends a kept contact as max_time.
    - E = v**2/2 + w2*y**2/2 never grows (dE/dt = -(c/m)*v**2) and
      a = -(c/m)*v - w2*y, so every later |a| is at most
      sqrt(2E)*(sqrt(w2) + c/m), and every later |a - g| at most g more.
    - For k <= 1 the filter's coefficients b0, b0 and r are nonnegative and
      sum to 1, so every later output is at most the largest of the current
      output and the later inputs.

    Once that bound is below the peak so far, the peak is final. The reader
    peak settles a contact without `keep` at this stop: its largest reading
    is the raw peak and, for k <= 1, bounds the filtered one, so the stop
    filters only once the running largest reading exceeds the bound. Outputs
    before the last are the full trace's, bit for bit; the last has two
    inputs at most the bound, so it stays below the peak. For k > 1 the
    filter can overshoot its inputs and contacts stop only at events.

    A contact without `keep` that ends, at an event or at the horizon, is
    solved and filtered at once in a call of fewer than BULK_CONTACTS
    contacts. A larger call holds its readings, in one buffer of
    SETTLE_SAMPLES, and its unsolved event. When the buffer is full, and at
    the end, it settles all it holds: one solve over the array of events
    (one by one below BULK_CONTACTS events, where the array solve costs
    more), one pass for their last states and readings, and lowpass over
    blocks of the records, one record per row on its own last step, grouped
    by the power of two that bounds their length. Peaks, terminations and
    the unresolved-event error are the per-contact ones bit for bit; the
    error names the first unresolved event in the order the contacts ended.
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
    stops = stop_when_final if keep else not filtered or k_mid <= 1.0
    bulk = not keep and peaks.size >= BULK_CONTACTS
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
    # in bulk, ended contacts as [row, code, readings, k_last], their unsolved
    # events as (index in ended, damping, wall, y, v, span, t_before), and
    # the samples they hold, in store
    ended, events, held = [], [], 0
    store = np.empty(SETTLE_SAMPLES) if bulk else None

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

    def finish(s, code, t_before, t_end, event=None):
        """Settle slot s at its last sample, taken at t_end; t_before is the
        time of the sample before it. In bulk the slot's readings go to
        settle_ended, with its event (damping, wall, y, v, span) still to
        solve when there is one: then t_end is None."""
        nonlocal held
        if keep:
            x, v = (np.concatenate(c) for c in zip(*parts[s]))
            parts[s] = []  # drop the chunk views before the temporaries
            t = period * np.arange(x.size)
            t[-1] = t_end
            kept.flat[row_of[s]] = (t, x, v, accel(damping[s], x, v))
            return settle(s, code, math.nan)
        k_last = None
        if filtered and event is None:
            k_last = prewarped_gain(cutoff, float(t_end - t_before))
        if not bulk:
            return settle(s, code, peak(s, k_last, -math.inf))
        if event is not None:  # the last reading, the event's, comes from its solve
            parts[s].append([math.nan])
        size = sum(map(len, parts[s]))
        if held + size > SETTLE_SAMPLES:
            settle_ended()
        # records share one buffer: held apart, they fragment the heap
        record = store[held:held + size] if size <= SETTLE_SAMPLES else np.empty(size)
        if event is not None:
            events.append((len(ended), *event, t_before))
        ended.append([row_of[s], code, np.concatenate(parts[s], out=record), k_last])
        parts[s], row_of[s] = [], None
        held += size

    def settle_ended():
        """Settle the ended contacts: one array solve for their events, then
        their readings filtered as blocks of traces of like length."""
        nonlocal held
        if events:
            at, c, wall, y0, y1, span, t_before = (np.array(e) for e in zip(*events))
            alpha, offset = 0.5 * c / mass, x_eq - wall
            # warnings off: solving contact by contact stops at the first
            # unresolved event, which the check below reports as that does
            with np.errstate(all="ignore"):
                branches = _branches(alpha, w2)
                if alpha.size >= BULK_CONTACTS:
                    tau = _event_times(branches, w2, offset, y0, y1, span)
                else:  # too few for the array solve to pay
                    tau = np.array([_event_time(a, w2, *state)
                                    for a, *state in zip(alpha, offset, y0, y1, span)])
                f00, f01, f10, f11 = _transitions(branches, w2, tau)
                miss = offset + f00 * y0 + f01 * y1
            unresolved = np.abs(miss) > STOP_SLACK * (np.abs(offset) + np.abs(y0))
            if unresolved.any():
                i = int(unresolved.argmax())
                raise _unresolved(t_before[i], miss[i], wall[i])
            x_ev = x_eq + f00 * y0 + f01 * y1
            v_ev = f10 * y0 + f11 * y1
            readings = np.abs(accel(c, x_ev, v_ev) - shift).tolist()
            last_steps = ((t_before + tau) - t_before).tolist()
            for i, reading, last_step in zip(at.tolist(), readings, last_steps):
                ended[i][2][-1] = reading
                if filtered:
                    ended[i][3] = prewarped_gain(cutoff, last_step)
        # traces grouped by the power of two that bounds their length, in
        # blocks of about ROW_BLOCK x CHUNK_STEPS samples
        groups = {}
        for i, (_, _, trace, _) in enumerate(ended):
            groups.setdefault((trace.size - 1).bit_length(), []).append(i)
        blocks = []
        for bits, group in groups.items():
            width = max(1, ROW_BLOCK * CHUNK_STEPS >> bits)
            blocks += [group[k:k + width] for k in range(0, len(group), width)]
        for group in blocks:
            lengths = np.array([ended[i][2].size for i in group])
            block = np.zeros((len(group), lengths.max()))  # a record per row
            for row, i in enumerate(group):
                block[row, :lengths[row]] = ended[i][2]
            if filtered:
                gains = np.array([ended[i][3] for i in group])
                block = lowpass(block.T, k_mid, gains, lengths).T
                np.abs(block, out=block)
                if lengths.min() < block.shape[1]:
                    block[np.arange(block.shape[1]) >= lengths[:, None]] = 0.0
            rows = [ended[i][0] for i in group]
            peaks.flat[rows], codes.flat[rows] = block.max(axis=1), [ended[i][1] for i in group]
        ended.clear()
        events.clear()
        held = 0

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
            # the state one sample before the chunk's end bounds the rest
            ye, ve = y[:, chunk - 1].tolist(), v[:, chunk - 1].tolist()

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
                wall = clearance if collided else 0.0
                code, t_step = TERM_COLLISION if collided else TERM_REBOUND, (done[s] + j) * period
                if bulk:
                    finish(s, code, t_step, None, (damping[s], wall, y[s, j], v[s, j], span))
                    continue
                tau = _event_time(alpha, w2, x_eq - wall, y[s, j], v[s, j], span)
                f00, f01, f10, f11 = _transition(alpha, w2, tau)
                # a solve ends this far from the wall only when its bracket closed first
                miss = (x_eq - wall) + f00 * y[s, j] + f01 * v[s, j]
                if abs(miss) > STOP_SLACK * (abs(x_eq - wall) + abs(y[s, j])):
                    raise _unresolved(t_step, miss, wall)
                x_ev = x_eq + f00 * y[s, j] + f01 * v[s, j]
                v_ev = f10 * y[s, j] + f11 * v[s, j]
                if keep:
                    parts[s].append(([x_ev], [v_ev]))
                else:
                    parts[s].append([abs(accel(damping[s], x_ev, v_ev) - shift)])
                finish(s, code, t_step, t_step + tau)
                continue
            if done[s] + length == max_records:
                finish(s, TERM_MAX_TIME, period * (max_records - 1), period * max_records)
                continue

            state[:, s] = y[s, chunk], v[s, chunk]
            done[s] += chunk
            if not stops:
                continue
            top[s] = max(top[s], (x if keep else samples)[s].max())
            lo, hi = _reach(alpha, w2, ye[s], ve[s])
            if not (x_eq + lo > 0.0 and x_eq + hi < clearance):
                continue
            if keep:  # every later compression stays below the largest so far
                if x_eq + hi < top[s]:
                    finish(s, TERM_MAX_TIME, None, period * done[s])
                continue
            energy2 = ve[s] * ve[s] + w2 * ye[s] * ye[s]
            bound = slack * (shift + math.sqrt(energy2) * (w + damping[s] / mass))
            if (value := peak(s, k_mid, bound)) is not None:
                settle(s, TERM_MAX_TIME, value)
    if ended:
        settle_ended()
    return peaks, codes, kept


def prewarped_gain(cutoff, dt):
    """Bilinear-transform coefficient tan(pi * fc * dt) for one step of dt."""
    return math.tan(math.pi * cutoff * dt)


def lowpass(values, k_mid, k_last, lengths=None):
    """First-order low-pass via the bilinear transform, k = tan(pi*fc*dt).

    The recurrence y[i] = b0*(x[i] + x[i-1]) + r*y[i-1], r = (1-k)/(1+k),
    is warm-started at x[-1] = y[-1] = values[0], so a constant input passes
    through unchanged. It is evaluated as a doubling scan: after the pass
    with offset d each output holds the last 2*d terms of its sum, and the
    scan stops once r**d underflows or covers the trace. k_last applies to
    the final transition only; it lets an event-terminated trajectory end on
    a shorter-than-nominal step.

    values is one trace, or with `lengths` a time-major (n, C) block whose
    column c holds a trace of lengths[c] samples, and k_last one gain per
    column. The scan runs down the block at once, and a row only ever draws
    on rows above it, so each column's first lengths[c] outputs are the
    trace's own, bit for bit; the rows below are left unspecified. The
    output and the scan's scratch keep the block's memory order.
    """
    n = values.shape[0]
    m = n - 1  # the final sample is advanced on its own coefficients
    b0 = k_mid / (1.0 + k_mid)
    r = (1.0 - k_mid) / (1.0 + k_mid)

    out = np.empty_like(values)
    np.add(values[1:m], values[:m - 1], out=out[1:m])
    out[:m] *= b0
    if m:
        out[0] = b0 * (values[0] + values[0]) + r * values[0]
    scratch = np.empty_like(out)
    d, r_d = 1, r
    while d < m and r_d != 0.0:
        np.multiply(out[:m - d], r_d, out=scratch[:m - d])
        out[d:m] += scratch[:m - d]
        d *= 2
        r_d *= r_d

    b0_last = k_last / (1.0 + k_last)
    a1_last = (k_last - 1.0) / (1.0 + k_last)
    if lengths is None:
        x_prev, y_prev = (values[m - 1], out[m - 1]) if m else (values[0], values[0])
        out[m] = b0_last * (values[m] + x_prev) - a1_last * y_prev
    else:
        last, cols = lengths - 1, np.arange(lengths.size)
        x_prev = np.where(last > 0, values[last - 1, cols], values[0])
        y_prev = np.where(last > 0, out[last - 1, cols], values[0])
        out[last, cols] = b0_last * (values[last, cols] + x_prev) - a1_last * y_prev
    return out
