"""Deterministic formatting and serialization for reports and run artifacts.

Every number that reaches a file goes through format_significant, which
rounds the exact value (floats are converted exactly first), so identical
inputs give byte-identical artifacts across runs and platforms.
"""

from __future__ import annotations

import decimal
import hashlib
import json
import math
from fractions import Fraction


def format_significant(value, digits: int = 15) -> str:
    """Correctly rounded decimal string with at most `digits` significant digits."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        num, den = value.as_integer_ratio()
    else:
        value = Fraction(value)
        num, den = value.numerator, value.denominator
    ctx = decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_EVEN)
    return str(ctx.divide(decimal.Decimal(num), decimal.Decimal(den)))


def json_canonical(obj) -> str:
    """Sorted-key, newline-terminated JSON; the unit of content hashing."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def sha256_hex(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()
