"""Complex values held as complex logarithms, usable far beyond floating-point range.

Values of the model functions reach |w| ~ exp(exp(40)) on the domains we scan,
so everything downstream holds a value w as the Python complex
L = log|w| + i arg w, with arg w in (-pi, pi], and only materializes w on
explicit request.  Re L = -inf is an exact zero (``ZERO``) and Re L = +inf a
pole (``POLE``); both carry phase 0.0.
"""
from __future__ import annotations

import cmath
import math

TWO_PI = 2.0 * math.pi

ZERO = complex(-math.inf, 0.0)
POLE = complex(math.inf, 0.0)

# log-moduli beyond this cannot be exponentiated in double precision
MATERIALIZE_CAP = 700.0


def wrap_phase(theta: float) -> float:
    """Reduce an angle to (-pi, pi], the phase convention used package-wide."""
    t = math.fmod(theta, TWO_PI)
    if t <= -math.pi:
        t += TWO_PI
    elif t > math.pi:
        t -= TWO_PI
    return t


def from_log(logw: complex) -> complex:
    """A complex logarithm with its phase wrapped to (-pi, pi]."""
    return complex(logw.real, wrap_phase(logw.imag))


def conj(L: complex) -> complex:
    """The log of conj(w): a phase of pi stays pi; zeros and poles are returned unchanged."""
    return L if math.isinf(L.real) else complex(L.real, wrap_phase(-L.imag))


def log_one_plus(L: complex) -> complex:
    """The log of 1 + w, without leaving log space: exact zero at w = -1, w itself far above 1."""
    if L.real == math.inf:
        return POLE
    if L.real == -math.inf:
        return 0j
    big, small = (L, 0j) if L.real >= 0.0 else (0j, L)
    d = small.real - big.real  # <= 0
    if d < -745.0:
        return big
    dph = wrap_phase(small.imag - big.imag)
    if d == 0.0 and (dph == math.pi or dph == -math.pi):
        # exactly antipodal: exp(i pi) would leave a 1e-16 residue
        return ZERO
    s = 1.0 + cmath.exp(complex(d, dph))
    if s == 0:
        return ZERO
    return complex(big.real + math.log(abs(s)), wrap_phase(big.imag + math.atan2(s.imag, s.real)))


def to_complex(L: complex) -> complex:
    """The value w = e^L as an ordinary complex number; a pole or |w| > e^700 raises OverflowError."""
    if L.real == -math.inf:
        return 0.0 + 0.0j
    if L.real == math.inf:
        raise OverflowError("cannot materialize a pole")
    if L.real > MATERIALIZE_CAP:
        raise OverflowError(f"log-modulus {L.real:.3g} exceeds double range")
    return cmath.exp(L)
