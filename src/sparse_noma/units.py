"""dB/linear conversions and logarithm constants.

Everything inside the library works with linear SNR and rates in
bits/s/Hz; decibels appear only at interfaces (CLI flags, report columns)
and in the slope normalization of the extreme-SNR approximations.
"""

import math

LN2 = math.log(2.0)
# One factor of two on a dB axis.
THREE_DB = 10.0 * math.log10(2.0)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    if x <= 0.0:
        raise ValueError(f"cannot express nonpositive value {x!r} in dB")
    return 10.0 * math.log10(x)
