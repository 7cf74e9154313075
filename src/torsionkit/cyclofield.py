"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A CycloNum is an element of Q(zeta_n) in the power basis 1, zeta, ...,
zeta^(phi-1), phi = deg Phi_n: integer coefficients over a common positive
denominator.

Field arithmetic works in the lift Z[x]/(x^n - 1), where zeta^k is slot
k mod n of an n-long coefficient list, and reduces mod Phi_n once per
result, in ``_reduce_mod_phi``.  A product is one schoolbook convolution
over the nonzero coefficients of its sparser factor (``cyclo_mul``); a
chain of them stays on integer numerators over the product of the
denominators and is brought to lowest terms once (``cyclo_product``); the
elimination step p*a - f*b adds two products of integer numerators, each
over nonzero terms only, into one buffer (``terms_mul_sub``); a group-ring
element scatters each term's coefficient into the slot of its exponent,
found by its letter tuple in a memo of the words ``grouprings``'s one
checker has accepted (``_lift_slots``), and is reduced once to its
integer vector (``rep_vector``, which the elimination reads;
``evaluate_rep`` wraps that vector as a value); zeta -> zeta^k moves slot
j to slot j*k mod n (``galois_conjugate``).  Phi_n divides x^n - 1, so
the reduction first adds slot k onto slot k mod n.

The block identity.  For n = p^a, with m = n/p, Phi_n is the sum over
j < p of x^(j*m), so x^n - 1 = (x^m - 1) * Phi_n, and the kernel of
Z[x]/(x^n - 1) -> Z[zeta_n] is the vectors constant on each residue class
mod m.  So an n-long lift w reduces by subtracting its top block: slot
k < phi = n - m of the power-basis vector is w_k - w_(phi + k mod m), one
pass over slices.  For n = 1 or n with two distinct prime factors the
reduction clears what is left above x^phi from the top by the monic
Phi_n, at most n - phi coefficients.

Inversion goes through the Galois conjugates, so no polynomial gcd is ever
needed: 1/a = (prod of conjugates of a) / norm(a).  The product comes from
Itoh-Tsujii doubling chains, one per pair (d, o) of a coset decomposition
of (Z/n)^x (``unit_chains``), so it takes O(log o) products per chain, not
phi - 1.  Values are immutable and are built through their slot descriptors;
``cyclo_zero`` is one shared value per modulus.

Also here: representations of group rings into Q(zeta_n), the finite unit
subgroups +-rho(G), and torsion classes (units modulo that subgroup).
+-rho(G) is {+-zeta^(jg)}, stored by its step g (the least g with zeta^g in
it), so it is visibly stable under every zeta -> zeta^d.  Units act by
rotation.  For n = p^a, by the block identity, a value's cyclic
difference sequence delta_i = w_i - w_(i-m) is the same for every lift w,
zeta^k rotates it and its stride-m prefix sum is the power-basis vector;
so the coset representative, the least point of the orbit, is the least
rotation of delta or -delta by a multiple of g, found by comparing slices
of the doubled sequence (``canonical_rep``).  A twist of a class at n = p^a
(``TorsionClass.conjugate``) permutes the representative's zero-padded
lift by j -> j*d mod n, which is sigma_d on the lift, and takes the least
rotation of that lift directly: no reduction mod Phi_n and no second
normalisation.  For n = 1 or n with two distinct prime factors the orbit
is walked one multiplication by zeta at a time (a shift of the
coefficients with the one coefficient above x^phi folded back by Phi_n,
O(phi)).  Neither path needs a full product.  ``cyclo_str`` writes each
term from the modulus's table of power names.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import gcd
from operator import add, neg, sub

from .grouprings import GroupRingElem, GroupSpec, GroupWord, cyclic_exponent, validate_word


class ModulusMismatchError(ValueError):
    """Arithmetic mixed two different cyclotomic moduli."""


# --- integer polynomial helpers (coefficients ascending) ---


def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul_add(out: list[int], a, b, s: int) -> None:
    """out += s*a*b: the one schoolbook product of coefficient vectors, over
    the nonzero coefficients of the factor with more zeros."""
    if a.count(0) < b.count(0):
        a, b = b, a
    for i, x in enumerate(a):
        if x:
            x *= s
            for k, y in enumerate(b, i):
                out[k] += x * y


def _poly_divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact division by a monic integer polynomial."""
    num = list(num)
    q = [0] * max(len(num) - len(den) + 1, 0)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c:
            q[i] = c
            for j, d in enumerate(den):
                num[i + j] -= c * d
    return q, _poly_trim(num)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending, computed by dividing x^n - 1 by
    Phi_d over all proper divisors d of n."""
    if n < 1:
        raise ValueError("modulus must be >= 1")
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod_monic(num, list(cyclotomic_polynomial(d)))
            if rem:
                raise ArithmeticError(f"Phi_{d} does not divide x^{n} - 1")
    return tuple(num)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=64)
def _prime_power_stride(n: int) -> int:
    """n/p when n = p^a for a prime p and a >= 1, else 0 (n = 1, or n with
    two distinct prime factors).  Phi_n is then sum over j < p of x^(j*n/p)."""
    if n < 2:
        return 0
    p = next(d for d in range(2, n + 1) if n % d == 0)
    rest = n
    while rest % p == 0:
        rest //= p
    return n // p if rest == 1 else 0


def _reduce_mod_phi(n: int, coeffs: list[int]) -> tuple[int, ...]:
    """The power-basis vector of a dense integer polynomial mod Phi_n.

    Phi_n divides x^n - 1, so coefficient k first moves onto slot k mod n.
    For n = p^a, with m = n/p, the lift is then n long, and subtracting
    its top block of m coefficients from each of the p - 1 blocks below
    clears it (the block identity of the module docstring).  For n = 1 or
    n with two distinct prime factors what is left above x^phi, at most
    n - phi coefficients, is cleared from the top by the monic Phi_n."""
    phi = euler_phi(n)
    m = _prime_power_stride(n)
    if m:
        tmp, hi = coeffs[:n], coeffs[n:]
        while hi:  # once for a product, whose length is below 2n
            tmp[:len(hi)] = map(add, tmp, hi)
            hi = hi[n:]
        if len(tmp) < n:
            tmp += [0] * (n - len(tmp))
        if m == 1:
            c = tmp[phi]
            return tuple([x - c for x in tmp[:phi]] if c else tmp[:phi])
        return tuple(map(sub, tmp[:phi], tmp[phi:] * (phi // m)))
    mod = cyclotomic_polynomial(n)
    if len(coeffs) > n:
        tmp = coeffs[:n]
        for k in range(n, len(coeffs)):
            tmp[k % n] += coeffs[k]
    else:
        tmp = coeffs[:]
        if len(tmp) < phi:
            tmp += [0] * (phi - len(tmp))
    for k in range(len(tmp) - 1, phi - 1, -1):
        c = tmp[k]
        if c:
            lo = k - phi
            for j in range(phi):
                tmp[lo + j] -= c * mod[j]
    return tuple(tmp[:phi])


@lru_cache(maxsize=None)
def units(n: int) -> tuple[int, ...]:
    """The units of Z/n as residues 0..n-1, increasing: (0,) for n = 1,
    else the d in 1..n-1 coprime to n, so that zeta -> zeta^d runs over the
    Galois group of Q(zeta_n) once."""
    return tuple(d for d in range(n) if gcd(d, n) == 1)


@lru_cache(maxsize=None)
def _zeta_power_row(n: int, k: int) -> tuple[int, ...]:
    """zeta_n^k reduced mod Phi_n."""
    return _reduce_mod_phi(n, [0] * (k % n) + [1])


@dataclass(frozen=True, slots=True)
class CycloNum:
    """Element of Q(zeta_n): nums/den with gcd(content(nums), den) = 1."""

    n: int
    nums: tuple[int, ...]
    den: int

    def __init__(self, n: int, nums: tuple[int, ...], den: int) -> None:
        if len(nums) != euler_phi(n):
            raise ValueError("coefficient vector has wrong length")
        if den < 1:
            raise ValueError("denominator must be positive")
        _set_n(self, n)
        _set_nums(self, nums)
        _set_den(self, den)

    def __bool__(self) -> bool:
        return any(self.nums)

    def __add__(self, other: "CycloNum") -> "CycloNum":
        return cyclo_add(self, other)

    def __sub__(self, other: "CycloNum") -> "CycloNum":
        return cyclo_add(self, cyclo_neg(other))

    def __mul__(self, other: "CycloNum") -> "CycloNum":
        return cyclo_mul(self, other)

    def __neg__(self) -> "CycloNum":
        return cyclo_neg(self)


# Frozen: the fields are set once, through their slot descriptors, which is
# cheaper than the object.__setattr__ of a generated __init__.
_set_n, _set_nums, _set_den = (CycloNum.__dict__[f].__set__ for f in ("n", "nums", "den"))


def _make(n: int, nums, den: int) -> CycloNum:
    if den < 0:
        nums = [-c for c in nums]
        den = -den
    if den != 1:
        g = den
        for c in nums:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            nums = [c // g for c in nums]
            den //= g
    if not any(nums):
        den = 1
    return CycloNum(n, tuple(nums), den)


@lru_cache(maxsize=64)
def cyclo_zero(n: int) -> CycloNum:
    """The zero of Q(zeta_n), one shared value per modulus."""
    return CycloNum(n, (0,) * euler_phi(n), 1)


def cyclo_int(n: int, m: int) -> CycloNum:
    nums = [0] * euler_phi(n)
    nums[0] = int(m)
    return _make(n, nums, 1)


def cyclo_one(n: int) -> CycloNum:
    return cyclo_int(n, 1)


def cyclo_fraction(n: int, q: Fraction) -> CycloNum:
    from fractions import Fraction  # its one use: keeps fractions out of start-up

    q = Fraction(q)
    nums = [0] * euler_phi(n)
    nums[0] = q.numerator
    return _make(n, nums, q.denominator)


def zeta(n: int, k: int = 1) -> CycloNum:
    return CycloNum(n, _zeta_power_row(n, k), 1)


def _check_same_modulus(a: CycloNum, b: CycloNum) -> None:
    if a.n != b.n:
        raise ModulusMismatchError(f"moduli differ: {a.n} vs {b.n}")


def cyclo_add(a: CycloNum, b: CycloNum) -> CycloNum:
    _check_same_modulus(a, b)
    if a.den == b.den:
        return _make(a.n, [x + y for x, y in zip(a.nums, b.nums)], a.den)
    nums = [x * b.den + y * a.den for x, y in zip(a.nums, b.nums)]
    return _make(a.n, nums, a.den * b.den)


def cyclo_neg(a: CycloNum) -> CycloNum:
    return CycloNum(a.n, tuple(map(neg, a.nums)), a.den)


def cyclo_mul(a: CycloNum, b: CycloNum) -> CycloNum:
    _check_same_modulus(a, b)
    if not (a and b):
        return cyclo_zero(a.n)
    prod = [0] * (2 * len(a.nums) - 1)
    _poly_mul_add(prod, a.nums, b.nums, 1)
    return _make(a.n, _reduce_mod_phi(a.n, prod), a.den * b.den)


def cyclo_product(xs) -> CycloNum:
    """The product of a non-empty sequence of values of one Q(zeta_n), as
    ``reduce(cyclo_mul, xs)`` gives it: the integer numerators are
    multiplied and reduced one factor at a time over the product of the
    denominators, and the result is brought to lowest terms once."""
    first, *rest = xs
    n = first.n
    nums, den = first.nums, first.den
    for x in rest:
        _check_same_modulus(first, x)
        prod = [0] * (2 * len(nums) - 1)
        _poly_mul_add(prod, nums, x.nums, 1)
        nums = _reduce_mod_phi(n, prod)
        den *= x.den
    return _make(n, nums, den)


def terms_mul_sub(n: int, p, a, f, b) -> tuple[int, ...]:
    """p*a - f*b mod Phi_n on integer numerators, the update of one
    fraction-free elimination step: p, f and b as lists of their nonzero
    (power, coefficient) terms, a as its power-basis vector.  Both products
    go into one buffer, which is reduced once."""
    acc = [0] * (2 * len(a) - 1)
    for i, x in p:
        for k, y in enumerate(a, i):
            if y:
                acc[k] += x * y
    for i, x in f:
        for j, y in b:
            acc[i + j] -= x * y
    return _reduce_mod_phi(n, acc)


def cyclo_from_nums(n: int, nums, den: int = 1) -> CycloNum:
    """nums/den in Q(zeta_n), in lowest terms: integer power-basis
    numerators over a nonzero integer denominator."""
    return _make(n, nums, den)


def galois_conjugate(a: CycloNum, k: int) -> CycloNum:
    """Apply zeta -> zeta^k; requires gcd(k, n) = 1.  In the lift, slot j
    moves to slot j*k mod n."""
    if gcd(k, a.n) != 1:
        raise ValueError(f"{k} is not coprime to {a.n}")
    return _make(a.n, _reduce_mod_phi(a.n, _conjugate_lift(a.nums, a.n, k)), a.den)


def _conjugate_lift(nums, n: int, k: int) -> list[int]:
    """sigma_k on the zero-padded lift of ``nums`` to Z[x]/(x^n - 1): slot j
    moves to slot j*k mod n, which is injective for a unit k."""
    lift = [0] * n
    for j, c in enumerate(nums):
        lift[j * k % n] = c
    return lift


@lru_cache(maxsize=64)
def unit_chains(n: int) -> tuple[tuple[int, int], ...]:
    """A coset decomposition of (Z/n)^x as pairs (d_j, o_j): o_j is the
    least power of d_j in the subgroup H_(j-1) spanned by d_1..d_(j-1), so
    every unit is exactly one product of d_j^(i_j), 0 <= i_j < o_j.  Each
    d_j is the least unit of greatest o_j, a generator when the group is
    cyclic; () when the group is trivial (n = 1, 2)."""
    phi = euler_phi(n)
    group = {1 % n}
    chains = []
    while len(group) < phi:
        best = (0, 0)
        for d in units(n):
            o, x = 1, d
            while x not in group:
                o, x = o + 1, x * d % n
            if o > best[1]:
                best = (d, o)
                if o * len(group) == phi:  # d covers what is left
                    break
        d, o = best
        group = {h * pow(d, i, n) % n for h in group for i in range(o)}
        chains.append(best)
    return tuple(chains)


def _chain_product(x: CycloNum, d: int, o: int) -> CycloNum:
    """prod over i = 1..o-1 of sigma_d^i(x), for o >= 2, by the
    Itoh-Tsujii chain on P_k = prod over i < k of sigma_d^i(x):
    P_2k = P_k * sigma_d^k(P_k) and P_(k+1) = x * sigma_d(P_k), walking
    the bits of o - 1 from the top; the result is sigma_d(P_(o-1))."""
    n = x.n
    p, k = x, 1
    for bit in bin(o - 1)[3:]:
        p = cyclo_mul(p, galois_conjugate(p, pow(d, k, n)))
        k *= 2
        if bit == "1":
            p = cyclo_mul(x, galois_conjugate(p, d))
            k += 1
    return galois_conjugate(p, d)


def cyclo_inv(a: CycloNum) -> CycloNum:
    """Inverse via conjugates: a * prod(sigma(a)) is the integer norm.

    The conjugates come from one Itoh-Tsujii chain per pair (d_j, o_j) of
    ``unit_chains(n)``: with x_0 = a, R_j = prod over i = 1..o_j-1 of
    sigma_(d_j)^i(x_(j-1)) and x_j = x_(j-1) * R_j, x_j is the product of
    sigma_u(a) over u in H_j.  So R_1 * ... * R_m is the product over every
    unit but 1, once each, and x_m is the norm."""
    if not a:
        raise ZeroDivisionError("cyclotomic inverse of zero")
    n = a.n
    norm = CycloNum(n, a.nums, 1)  # x_j; the norm after the last chain
    conj_prod = None  # R_1 * ... * R_j
    for d, o in unit_chains(n):
        r = _chain_product(norm, d, o)
        conj_prod = r if conj_prod is None else cyclo_mul(conj_prod, r)
        norm = cyclo_mul(norm, r)
    if conj_prod is None:  # n = 1, 2: no chains, Q(zeta_n) = Q
        conj_prod = cyclo_one(n)
    if any(norm.nums[1:]) or norm.den != 1:
        raise ArithmeticError("norm must be a plain integer")
    return _make(n, [a.den * c for c in conj_prod.nums], norm.nums[0])


def cyclo_pow(a: CycloNum, k: int) -> CycloNum:
    if k < 0:
        return cyclo_pow(cyclo_inv(a), -k)
    out = cyclo_one(a.n)
    while k:  # square and multiply, over the bits of k from the lowest
        if k & 1:
            out = cyclo_mul(out, a)
        k >>= 1
        if k:
            a = cyclo_mul(a, a)
    return out


@lru_cache(maxsize=64)
def _power_names(n: int) -> tuple[str, ...]:
    """The suffix each power-basis coefficient of Q(zeta_n) takes in
    ``cyclo_str``: "", "*z", "*z^2", ..., one per power below phi."""
    phi = euler_phi(n)
    return ("", "*z", *(f"*z^{j}" for j in range(2, phi)))[:phi]


_SIGNS = (" + ", " - ")


def _magnitude(c: int, den: int) -> str:
    """|c|/den in lowest terms, without the denominator when it divides."""
    g = gcd(c, den)
    return f"{abs(c) // g}" if g == den else f"{abs(c) // g}/{den // g}"


def cyclo_str(a: CycloNum) -> str:
    """Render as a polynomial in z, e.g. ``2 - 3/7*z^2 (mod Phi_7)``.

    Every nonzero term is written as " + c*z^j" or " - c*z^j" from the
    modulus's power names; then a magnitude of exactly 1 before a power of
    z is dropped (a space, then "1*z", occurs nowhere else), and the first
    term loses its leading " + " or keeps its sign as "-"."""
    names = _power_names(a.n)
    den = a.den
    if den == 1:
        terms = [f"{_SIGNS[c < 0]}{abs(c)}{s}" for c, s in zip(a.nums, names) if c]
    else:
        terms = [f"{_SIGNS[c < 0]}{_magnitude(c, den)}{s}" for c, s in zip(a.nums, names) if c]
    if not terms:
        return f"0 (mod Phi_{a.n})"
    poly = "".join(terms).replace(" 1*z", " z")
    return f"{poly[3:] if poly[1] == '+' else '-' + poly[3:]} (mod Phi_{a.n})"


# --- representations rho: Z[G] -> Q(zeta_n) ---


@dataclass(frozen=True, slots=True)
class Representation:
    """Ring homomorphism determined by factor generator g_i -> zeta_n^e_i."""

    spec: GroupSpec
    modulus: int
    generator_exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.modulus
        if type(n) is not int or any(type(e) is not int for e in self.generator_exponents):
            raise ValueError(f"modulus and exponents must be ints, got {n!r} and {self.generator_exponents!r}")
        if n < 1:
            raise ValueError(f"modulus must be >= 1, got {n}")
        exps = tuple(e % n for e in self.generator_exponents)
        object.__setattr__(self, "generator_exponents", exps)
        if len(exps) != self.spec.num_factors:
            raise ValueError("one exponent per free factor required")
        for m, e in zip(self.spec.factor_orders, exps):
            if (m * e) % n != 0:
                raise ValueError(
                    f"generator of order {m} cannot map to zeta_{n}^{e}"
                )


def representation(spec: GroupSpec, modulus: int, exponents) -> Representation:
    return Representation(spec, modulus, tuple(exponents))


@lru_cache(maxsize=64)
def _lift_slots(m: int, g: int, n: int) -> dict[tuple, tuple[tuple, int]]:
    """Each word of Z/m that ``rep_vector`` has read under g -> zeta_n^g,
    by letter tuple: the tuple object ``cyclic_exponent`` accepted for it,
    and its lift slot, e*g mod n for g^e.  Read as ``grouprings``'s word
    table is, and kept beside it so that a read costs no product."""
    return {}


def rep_vector(rep: Representation, x: GroupRingElem) -> tuple[int, ...]:
    """The power-basis integer vector of rho(x), reduced: each term's
    coefficient goes to the slot of its exponent in the lift, then one
    reduction mod Phi_n.  Over Z/m a term's slot comes from ``_lift_slots``
    when its letter tuple is the object accepted for that word; any other
    key is checked by ``cyclic_exponent``, which refuses what is not a word
    of Z/m with ``map_form``'s error, and its slot enters the memo.
    Free-product words go through ``validate_word``."""
    n = rep.modulus
    spec = rep.spec
    exps = rep.generator_exponents
    acc = [0] * n
    if spec.kind == "cyclic":
        m = spec.factor_orders[0]
        slots = _lift_slots(m, exps[0], n)
        for l, c in x.coeffs.items():
            try:
                checked, k = slots[l]
                if checked is not l:
                    raise KeyError(l)
            except KeyError:
                k = cyclic_exponent(m, l) * exps[0] % n
                slots[l] = (l, k)
            acc[k] += c
    else:
        for l, c in x.coeffs.items():
            validate_word(spec, GroupWord(l))
            acc[sum(exp * exps[f] for f, exp in l) % n] += c
    return _reduce_mod_phi(n, acc)


def evaluate_rep(rep: Representation, x: GroupRingElem) -> CycloNum:
    """rho(x), from ``rep_vector``.  The value has denominator 1, so it is
    built in reduced form directly; zero is the shared ``cyclo_zero``."""
    if not x:
        return cyclo_zero(rep.modulus)
    return CycloNum(rep.modulus, rep_vector(rep, x), 1)


@dataclass(frozen=True, slots=True)
class UnitSubgroup:
    """{+-zeta_n^(j*step)}, the denominator +-rho(G) of torsion classes.
    ``step`` becomes the least k > 0 with zeta^k in the group, so equal
    groups compare equal: gcd(n, step), then gcd(step, n/2) for even n,
    as -1 = zeta^(n/2)."""

    modulus: int
    step: int

    def __post_init__(self) -> None:
        n = self.modulus
        if n < 1:
            raise ValueError(f"modulus must be >= 1, got {n}")
        step = gcd(n, self.step)
        if n % 2 == 0:
            step = gcd(step, n // 2)
        object.__setattr__(self, "step", step)

    @property
    def elements(self) -> frozenset[CycloNum]:
        roots = [zeta(self.modulus, k) for k in range(0, self.modulus, self.step)]
        return frozenset(roots + [cyclo_neg(w) for w in roots])


@lru_cache(maxsize=64)
def unit_subgroup(rep: Representation) -> UnitSubgroup:
    """+-rho(G) in closed form: the powers of zeta^e_i generate the powers of
    zeta^g with g = gcd(n, e_1, ...), so every rep with the same (n, g), such
    as all twists of one lens sweep, has the same group.  Building it is two
    gcds, so the cache is bounded: it keeps a few representations alive, not
    every one ever asked about."""
    n = rep.modulus
    return UnitSubgroup(n, gcd(n, *rep.generator_exponents))


def canonical_rep(u: CycloNum, units: UnitSubgroup) -> CycloNum:
    """Deterministic coset representative: the lexicographic minimum of the
    orbit {+-zeta^(j*g) * u}, g = ``units.step``, under the
    coefficient-vector order.

    Each unit +-zeta^k acts on the power basis by a unimodular integer
    matrix, which keeps the content of ``nums`` and hence ``den``; so the
    order of the integer ``nums`` is the order of the rational coefficients.

    For n = p^a the minimum is a least rotation (``_least_rotation``).  Let
    m = n/p, so Phi_n = sum over j < p of x^(j*m), and the kernel of
    Z[x]/(x^n - 1) -> Z[zeta] is the vectors constant on each residue class
    mod m.  Lift a point to any w in Z[x]/(x^n - 1); its cyclic difference
    sequence delta_i = w_i - w_(i-m) does not depend on the lift.  Its
    power-basis vector x, padded with zeros to length n, is such a lift with
    x_(i-m) = x_(i-m+n) = 0 for i < m, so x is the stride-m prefix sum of
    delta: x_i = delta_i for i < m, else x_(i-m) + delta_i.  Times zeta^k
    rotates every lift, so it rotates delta by k, and negation negates
    delta.  A prefix sum keeps the lexicographic order: two deltas that
    first differ at index i come from x's that agree before i and differ at
    i by the same amount, and i < phi, since x determines delta.  So the
    representative is the prefix sum of the least rotation of delta or
    -delta by a multiple of g, a least circular shift (Booth, 1980) over the
    starts 0, g, 2g, ...

    For n = 1 or n with two distinct prime factors this identity fails, and
    the orbit is walked (``_orbit_walk``).
    """
    if not u:
        raise ZeroDivisionError("zero has no torsion class")
    n = u.n
    if n != units.modulus:
        raise ModulusMismatchError(f"moduli differ: {n} vs {units.modulus}")
    m = _prime_power_stride(n)
    if m:
        nums = _least_rotation(u.nums + (0,) * m, n, m, units.step)
    else:
        nums = _orbit_walk(u.nums, n, units.step)
    return _make(n, nums, u.den)


def _least_rotation(w, n: int, m: int, g: int) -> list[int]:
    """The orbit minimum at n = p^a, m = n/p, from any lift w of the value
    to Z[x]/(x^n - 1), n long: the least rotation of delta or -delta by a
    multiple of g, summed back with stride m (``canonical_rep``).  Only
    starts holding the least head are compared in full, as slices of the
    doubled sequence."""
    delta = tuple(map(sub, w, w[n - m:] + w[:n - m]))  # delta_i = w_i - w_(i-m)
    heads = delta[::g]
    lo, hi = min(heads), max(heads)
    # delta's least head is lo; -delta's is -hi, at the starts where delta holds hi
    signs = []
    if lo <= -hi:
        signs.append((delta, lo))
    if -hi <= lo:
        signs.append((tuple(map(neg, delta)), hi))
    best = None
    for seq, head in signs:
        ring = seq + seq
        for k, h in enumerate(heads):
            if h == head:
                rot = ring[k * g:k * g + n]
                if best is None or rot < best:
                    best = rot
    x = list(best[:n - m])
    for c in range(m):
        x[c::m] = accumulate(x[c::m])
    return x


def _orbit_walk(nums: tuple[int, ...], n: int, g: int) -> tuple[int, ...]:
    """The orbit minimum for any n, walked: times zeta is one
    companion-matrix step of Phi_n on ``nums``, O(phi), and every g-th point
    and its negative lie in the orbit."""
    mod = cyclotomic_polynomial(n)
    cur = nums
    kept = [cur]
    for k in range(1, n - g + 1):
        # cur -> zeta*cur: shift up one power, then fold x^phi back by Phi_n
        top = cur[-1]
        cur = (0,) + cur[:-1]
        if top:
            cur = tuple([a - top * m for a, m in zip(cur, mod)])
        if k % g == 0:
            kept.append(cur)
    # the least of the negated points is minus the greatest kept one
    return min(min(kept), tuple(map(neg, max(kept))))


@dataclass(frozen=True, slots=True)
class TorsionClass:
    """A unit of Q(zeta_n) modulo +-rho(G), stored by canonical representative."""

    representative: CycloNum
    units: UnitSubgroup

    def __mul__(self, other: "TorsionClass") -> "TorsionClass":
        if self.units != other.units:
            raise ModulusMismatchError("torsion classes over different unit groups")
        return torsion_class(
            cyclo_mul(self.representative, other.representative), self.units
        )

    def inverse(self) -> "TorsionClass":
        return torsion_class(cyclo_inv(self.representative), self.units)

    def conjugate(self, d: int) -> "TorsionClass":
        """The class of sigma_d of the representative, sigma_d: zeta -> zeta^d
        for a unit d mod n (ValueError otherwise).  sigma_d maps
        {+-zeta^(j*step)} onto itself, so this is sigma_d of the class: the
        torsion of C under sigma_d . rho, when this is its torsion under rho
        (Milnor, Whitehead torsion, 1966).

        For n = p^a the representative's zero-padded lift is permuted by
        j -> j*d mod n, which is sigma_d on Z[x]/(x^n - 1) and commutes with
        the map to Z[zeta_n]; that lift goes straight to the least rotation,
        with no reduction mod Phi_n.  sigma_d and the units keep the content
        of the numerators, so the denominator stays.  Other n reduce the
        conjugate and walk its orbit (``canonical_rep``)."""
        n = self.units.modulus
        if d % n == 1 % n:
            return self
        rep = self.representative
        m = _prime_power_stride(n)
        if not m:
            return torsion_class(galois_conjugate(rep, d), self.units)
        if gcd(d, n) != 1:
            raise ValueError(f"{d} is not coprime to {n}")
        nums = _least_rotation(_conjugate_lift(rep.nums, n, d), n, m, self.units.step)
        return TorsionClass(CycloNum(n, tuple(nums), rep.den), self.units)

    def is_trivial(self) -> bool:
        return self.representative in self.units.elements


def torsion_class(value: CycloNum, units: UnitSubgroup) -> TorsionClass:
    return TorsionClass(canonical_rep(value, units), units)
