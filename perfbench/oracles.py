"""Reference answers that never call torsionkit.

Every check here uses its own arithmetic: modular arithmetic for the lens
space verdicts, and Q(zeta_n) for prime n modelled as Q^n under cyclic
convolution modulo the constant vectors.  For prime n the kernel of
Q[x]/(x^n - 1) -> Q(zeta_n) is spanned by 1 + x + ... + x^(n-1), so two
length-n vectors name the same field element exactly when their difference
is constant.  Torsion classes are units modulo +-zeta^k, i.e. modulo sign
and cyclic rotation.
"""
from __future__ import annotations

import re
from fractions import Fraction

_CYCLO_RE = re.compile(r"^(.*) \(mod Phi_(\d+)\)$")


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % k for k in range(2, int(p**0.5) + 1))


def _is_square_mod(x: int, p: int) -> bool:
    """Euler's criterion for an odd prime p."""
    x %= p
    return x == 0 or pow(x, (p - 1) // 2, p) == 1


def homotopy_equivalent(p: int, q: int, q2: int) -> bool:
    """L(p,q) ~ L(p,q2) iff q*q2 = +-m^2 (mod p)."""
    t = q * q2 % p
    return _is_square_mod(t, p) or _is_square_mod(-t, p)


def simple_equivalent(p: int, q: int, q2: int) -> bool:
    """Reidemeister-Franz: q2 = +-q^(+-1) (mod p)."""
    qinv = pow(q, -1, p)
    return q2 % p in {q % p, -q % p, qinv, -qinv % p}


def lens_classes_match(p: int, a: int, b: int, c: int, e: int) -> bool:
    """(1-z^a)(1-z^b) and (1-z^c)(1-z^e) agree modulo +-z^k iff
    {+-a, +-b} = {+-c, +-e} as multisets (Franz independence)."""

    def key(x, y):
        return sorted(min(v % p, -v % p) for v in (x, y))

    return key(a, b) == key(c, e)


def parse_cyclo(text: str) -> tuple[int, list[Fraction]]:
    """Invert torsionkit's ``cyclo_str``: ``1 - z - 2/3*z^4 (mod Phi_7)``
    becomes (7, coefficient list of length phi)."""
    m = _CYCLO_RE.match(text)
    if not m:
        raise ValueError(f"not a cyclotomic number: {text!r}")
    poly, n = m.group(1), int(m.group(2))
    coeffs: dict[int, Fraction] = {}
    if poly != "0":
        for token in poly.replace(" - ", " + -").split(" + "):
            sign = 1
            if token.startswith("-"):
                sign, token = -1, token[1:]
            mag_text, star, var = token.partition("*")
            if not star:
                if token.startswith("z"):
                    mag_text, var = "1", token
                else:
                    var = ""
            if var == "":
                exp = 0
            elif var == "z":
                exp = 1
            elif var.startswith("z^"):
                exp = int(var[2:])
            else:
                raise ValueError(f"bad term {token!r} in {text!r}")
            if exp in coeffs:
                raise ValueError(f"repeated power z^{exp} in {text!r}")
            coeffs[exp] = sign * Fraction(mag_text)
    if not is_prime(n):
        raise ValueError(f"reference arithmetic needs a prime modulus, got {n}")
    phi = n - 1
    if any(not 0 <= k < phi for k in coeffs):
        raise ValueError(f"power out of range in {text!r}")
    return n, [coeffs.get(k, Fraction(0)) for k in range(phi)]


# --- Q(zeta_n), n prime, as length-n vectors modulo constants ---


def lift(n: int, coeffs) -> list:
    """Coefficients on 1, z, ..., z^(n-2) to a length-n cyclic vector."""
    return list(coeffs) + [0] * (n - len(coeffs))


def monomial_sum(n: int, terms) -> list[int]:
    """sum of c * z^e over (e, c) pairs, exponents read mod n."""
    v = [0] * n
    for e, c in terms:
        v[e % n] += c
    return v


def convolve(n: int, a, b) -> list:
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % n] += x * y
    return out


def product(n: int, factors) -> list:
    acc = monomial_sum(n, [(0, 1)])
    for f in factors:
        acc = convolve(n, acc, f)
    return acc


def same_class(n: int, a, b) -> bool:
    """a = +-z^k * b in Q(zeta_n) for some k (a, b length-n vectors)."""
    for k in range(n):
        rot = b[n - k:] + b[: n - k]
        for sign in (1, -1):
            d0 = a[0] - sign * rot[0]
            if all(a[i] - sign * rot[i] == d0 for i in range(1, n)):
                return True
    return False


def lens_class(p: int, a: int, b: int) -> list[int]:
    """(1 - z^a)(1 - z^b) as a length-p cyclic vector."""
    return convolve(p, monomial_sum(p, [(0, 1), (a, -1)]), monomial_sum(p, [(0, 1), (b, -1)]))


def printed_in_lens_class(text: str, p: int, a: int, b: int) -> bool:
    """The printed representative is +-z^k (1-z^a)(1-z^b) for some k."""
    n, coeffs = parse_cyclo(text)
    return n == p and same_class(p, lift(p, coeffs), lens_class(p, a, b))
