"""A model, in Python, of the built-in ``sum()`` of CPython 3.12 and later,
whose float loop compensates its rounding (Neumaier's method), so that
any interpreter can run the program as 3.12 runs it.

It follows ``builtin_sum_impl``: ints are added exactly while the total
fits a C long, and floats then go through the compensated loop, where
each float x meets the running total f as

    t = f + x
    c += (f - t) + x   if |f| >= |x|,   else   c += (x - t) + f
    f = t

and c is added at the end if it is nonzero and finite.  An int that fits
a C long is added to f uncompensated.  Any other item ends the fast loops
and is added with ``+``, as is every item after it; on leaving the float
loop this way the model first adds the compensation.
"""

import math

LONG_MIN, LONG_MAX = -(2**63), 2**63 - 1


def compensated_sum(iterable, /, start=0):
    """``sum(iterable, start)`` as CPython 3.12 computes it."""
    items = iter(iterable)
    result = start
    if type(result) is int and LONG_MIN <= result <= LONG_MAX:
        for item in items:
            if (type(item) in (int, bool) and LONG_MIN <= item <= LONG_MAX
                    and LONG_MIN <= result + item <= LONG_MAX):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        f, c = result, 0.0
        for item in items:
            if type(item) is float:
                t = f + item
                c += (f - t) + item if abs(f) >= abs(item) else (item - t) + f
                f = t
            elif isinstance(item, int) and LONG_MIN <= item <= LONG_MAX:
                f += float(item)
            else:
                result = _with(f, c) + item
                break
        else:
            return _with(f, c)
    for item in items:
        result = result + item
    return result


def _with(f, c):
    """The running total ``f`` with the compensation ``c`` added, unless
    ``c`` is zero or would turn an overflowed total into a NaN."""
    return f + c if c and math.isfinite(c) else f
