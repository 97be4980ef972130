"""dB/linear conversions and logarithm constants.

Everything inside the library works with linear SNR and rates in
bits/s/Hz; decibels appear only at interfaces (CLI flags, report columns)
and in the slope normalization of the extreme-SNR approximations.
"""

import math

from .errors import DomainError

LN2 = math.log(2.0)
# One factor of two on a dB axis.
THREE_DB = 10.0 * math.log10(2.0)


def db_to_linear(x_db: float) -> float:
    """10^(x_db/10), for x_db up to about 3082.5 dB (the largest float); `DomainError` above."""
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        raise DomainError(f"{x_db!r} dB is past the largest float in linear units") from None


def linear_to_db(x: float) -> float:
    """10 log10(x) for x > 0; `DomainError` for 0, a negative value or NaN."""
    if not x > 0.0:
        raise DomainError(f"cannot express {x!r} in dB: the value must be positive")
    return 10.0 * math.log10(x)
