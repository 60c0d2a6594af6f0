"""An exact referee for the pair type of each level of the induction.

A float is a dyadic rational, so the letters of every level, products of
the float input letters, are exact: integer matrices over one power of two.
Their types are decided with Python ints.  A letter is elliptic or
hyperbolic by tr^2 against 4 det, with no square root; a letter whose
|tr| / sqrt(det) is within EPS_TRACE of 2 is in the band and left untyped.
Two hyperbolic letters of a pair with c > 2 are HH+ when |tr AB| > |tr A
tr B - tr AB|, which no positive scale of the letters changes.  Pairs with
c <= 2 need the fixed points, and are not refereed here.  The ints grow
with the word, so the referee stops at a level whose letters are longer
than a given number of input letters."""

from fractions import Fraction

from rvcocycle.cocycle import CocyclePair
from rvcocycle.iet import Winner
from rvcocycle.mat2 import EPS_TRACE

Exact = tuple[int, int, int, int]

_EPS = Fraction(EPS_TRACE)
# |tr| / sqrt(det) against 2 -+ EPS_TRACE, squared and cleared of the
# denominator: tr^2 den^2 against (2 den -+ num)^2 det.
_DEN2 = _EPS.denominator ** 2
_LO2 = (2 * _EPS.denominator - _EPS.numerator) ** 2
_HI2 = (2 * _EPS.denominator + _EPS.numerator) ** 2


def exact_pair(p: CocyclePair) -> tuple[Exact, Exact]:
    """p's letters as integer matrices over the least common power-of-two
    unit of their eight entries; the letters must be unscaled."""
    letters = (p.A, p.B)
    assert not any(m.log_scale for m in letters)
    ratios = [x.as_integer_ratio() for m in letters for x in m.entries()]
    unit = max(q for _, q in ratios)
    ints = [n * (unit // q) for n, q in ratios]
    return tuple(ints[:4]), tuple(ints[4:])


def _mul(m1: Exact, m2: Exact) -> Exact:
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def _power(m: Exact, n: int) -> Exact:
    result, base = (1, 0, 0, 1), m
    while n:
        if n & 1:
            result = _mul(result, base)
        base = _mul(base, base)
        n >>= 1
    return result


def letter_kind(m: Exact) -> str | None:
    """E or H; None in the band of width EPS_TRACE around |tr| = 2."""
    a, b, c, d = m
    tr2, det = (a + d) ** 2 * _DEN2, a * d - b * c
    assert det > 0
    if tr2 < _LO2 * det:
        return "E"
    if tr2 > _HI2 * det:
        return "H"
    return None


def pair_type(a: Exact, b: Exact) -> str | None:
    """The type code of (a, b), for a pair with c > 2; None where a letter
    is in the band."""
    kinds = letter_kind(a), letter_kind(b)
    if None in kinds:
        return None
    if kinds != ("H", "H"):
        return "".join(kinds)
    x, y = a[0] + a[3], b[0] + b[3]
    ab = _mul(a, b)
    z = ab[0] + ab[3]
    return "HH+" if abs(z) > abs(x * y - z) else "HH-"


def level_types(p: CocyclePair, runs: list[tuple[Winner, int]],
                max_len: int) -> list[str | None]:
    """The exact type of levels 0, 1, ... of the induction of p along runs,
    through the last level whose letters are words of at most max_len
    input letters.  A Bottom run of r moves B to B A^r, a Top run A to
    B^r A."""
    a, b = exact_pair(p)
    len_a = len_b = 1
    types = [pair_type(a, b)]
    for winner, r in runs:
        bottom = winner is Winner.BOTTOM
        if (len_b + r * len_a if bottom else len_a + r * len_b) > max_len:
            break
        if bottom:
            b, len_b = _mul(b, _power(a, r)), len_b + r * len_a
        else:
            a, len_a = _mul(_power(b, r), a), len_a + r * len_b
        types.append(pair_type(a, b))
    return types
