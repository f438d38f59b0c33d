"""The numpy renderer of long float CSV blocks: `render_floats(block)` gives
the bytes one `%` of a `"%.12g,…,%.12g\n"` row template gives, and gives
them faster on blocks of 128 rows or more (1.5-2.3 times on 1024 rows; see
`io.RENDER_MIN_ROWS`). `crashsim.io` imports it when it first writes such a
block.
"""

from __future__ import annotations

import numpy as np

from .io import _FLOAT


def _digit_words() -> np.ndarray:
    """The 4-digit groups 0000-9999 as 4-byte words, in four runs of 10 000:
    every digit; leading zeros blanked (0 is all blank); leading zeros
    blanked but the last (0 is "0"); trailing zeros blanked (0 is all
    blank). A blank is a NUL byte."""
    chars = np.empty((4, 10, 10, 10, 10, 4), np.uint8)  # [run, d0, d1, d2, d3, position]
    digit = [np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape((10,) + (1,) * (3 - j))
             for j in range(4)]
    lead = True
    for j in range(4):
        lead = lead & (digit[j] == ord("0"))
        chars[0, ..., j] = digit[j]
        chars[1, ..., j] = np.where(lead, 0, digit[j])
        chars[2, ..., j] = np.where(lead & (j < 3), 0, digit[j])
    trail = True
    for j in range(3, -1, -1):
        trail = trail & (digit[j] == ord("0"))
        chars[3, ..., j] = np.where(trail, 0, digit[j])
    return chars.view(np.uint32).ravel()


_DIGITS = _digit_words()
_LEAD, _LEAD_BUT_LAST, _TRAIL = 10_000, 20_000, 30_000  # run offsets; every digit is run 0
# ".ddd" for 0-999, in two runs of 1000: every digit; trailing zeros blanked
# (0 is all blank, the point included)
_POINT = np.concatenate([_DIGITS[:1000], _DIGITS[_TRAIL:_TRAIL + 1000]])
_POINT.view(np.uint8)[0::4] = ord(".")
_POINT[1000] = 0
_EXPONENT = np.frombuffer(b"".join(b"e%+03d" % e for e in range(-99, 100)), np.uint32)
# the separator before a value (byte 0), then its sign (byte 1): index
# 2 * (0: none, 1: ",", 2: "\n") + (1 if negative)
_PREFIX = np.frombuffer(b"\0\0\0\0\0-\0\0,\0\0\0,-\0\0\n\0\0\0\n-\0\0", np.uint32)
# 10**(11 - e) for e in [-99, 98], correctly rounded
_SCALE = np.array([float("1e%d" % (11 - e)) for e in range(-99, 99)])
_POW10 = 10.0 ** np.arange(16)  # exact


def render_floats(block: np.ndarray) -> str:
    """The text `%` of a `"%.12g,…,%.12g\\n"` row template gives for a 2-D
    float64 block, byte for byte.

    Each value x with 1e-99 <= |x| < 1e99 is scaled by a correctly rounded
    power of ten to s = |x|·10**(11 - e) in [1e11, 1e12), with e from
    log10; s errs by at most ~2.5e-4, so rint(s) is the correctly rounded
    12-digit significand unless s lies within 0.002 of a half-integer. It
    is split at the point into a whole part (up to 12 digits) and a
    15-digit fraction: fixed notation for -4 <= e < 12, else one whole
    digit and the exponent word in the fraction's last group, which is then
    zero. Each value becomes 8 words, NUL where blank: separator and sign,
    three whole groups, the point with 3 fraction digits, three fraction
    groups. Values off that path (near a tie, e off by one, |x| outside the
    range but not zero, inf, nan) are rendered by `"%.12g" %` and spliced
    into their row. Zero and -0.0 stay on the fast path.
    """
    rows, cols = block.shape
    x = block.ravel()
    a = np.abs(x)
    fast = (a >= 1e-99) & (a < 1e99)
    safe = np.where(fast, a, 1.0)
    e = np.floor(np.log10(safe)).astype(np.intp)
    np.clip(e, -99, 98, out=e)
    s = safe * _SCALE[e + 99]
    m = np.rint(s)
    slow = np.abs(s - m) > 0.498
    slow |= np.abs(s - 549999999999.75) > 449999999999.75  # outside [1e11, 1e12 - 0.5]
    nonzero = a != 0.0
    slow |= nonzero > fast
    m *= nonzero

    expo = (e < -4) | (e >= 12)
    shift = np.where(expo, 11, 11 - e)  # digits of m after the point
    scale = _POW10[shift]
    whole = np.floor(m / scale)  # exact: m < 2**53
    frac = ((m - whole * scale) * _POW10[15 - shift]).astype(np.int64)
    whole = whole.astype(np.int64)

    words = np.empty((rows * cols, 8), np.uint32)
    sep = np.full((rows, cols), 2)
    sep[:, 0] = 4
    sep[0, 0] = 0  # the block's first value; its line break ends the text
    words[:, 0] = _PREFIX[sep.ravel() + np.signbit(x)]
    w0 = whole // 10**8
    rest = whole - w0 * 10**8
    w1 = rest // 10**4
    words[:, 1] = _DIGITS[_LEAD + w0]
    words[:, 2] = _DIGITS[_LEAD * (w0 == 0) + w1]
    words[:, 3] = _DIGITS[_LEAD_BUT_LAST * (whole < 10**4) + rest - w1 * 10**4]
    point = frac // 10**12
    rest = frac - point * 10**12
    f1 = rest // 10**8
    rest -= f1 * 10**8
    f2 = rest // 10**4
    f3 = rest - f2 * 10**4
    words[:, 7] = np.where(expo, _EXPONENT[e + 99], _DIGITS[_TRAIL + f3])
    zeros_after = f3 == 0
    words[:, 6] = _DIGITS[_TRAIL * zeros_after + f2]
    zeros_after &= f2 == 0
    words[:, 5] = _DIGITS[_TRAIL * zeros_after + f1]
    zeros_after &= f1 == 0
    words[:, 4] = _POINT[1000 * zeros_after + point]

    if (slow_at := np.flatnonzero(slow)).size:
        text = b"".join((_FLOAT % v).encode().ljust(28, b"\0") for v in x[slow_at].tolist())
        words[slow_at, 1:] = np.frombuffer(text, np.uint32).reshape(-1, 7)
        words.view(np.uint8)[slow_at, 1] = 0  # `%` writes its own sign
    return (words.tobytes().translate(None, b"\0") + b"\n").decode("ascii")
