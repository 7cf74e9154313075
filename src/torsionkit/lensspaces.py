"""Lens space cell complexes, their torsion, and classification predicates.

The cellular chain complex of L(p,q) has one cell in each dimension 0..3
with differentials (1 - g^r), (1 + g + ... + g^(p-1)), (1 - g), where
g*r = 1 mod p.  It is stored on cohomological degrees 0..3 with the 3-cell
in degree 0; this orientation makes the alternating-determinant torsion of
the base-changed complex come out as (1 - zeta^r)(1 - zeta) on the nose,
which is the calibration all sweeps assert.

Every sweep conjugates one torsion class (see torsion): the twist
t -> zeta^d is sigma_d of t -> zeta, so the class under it is
``TorsionClass.conjugate(d)`` of the class under t -> zeta, and one
elimination serves every unit twist.  Under a unit twist d, zeta^d and
zeta^(dr) are primitive p-th roots of unity, so the differentials
1 - zeta^(dr) and 1 - zeta^d are nonzero and the lens and free-product
complexes of a sweep are always acyclic.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .grouprings import (
    GroupSpec,
    ONE_ELEM,
    generator_elem,
    norm_elem,
    ring_sub,
)
from .cyclofield import (
    ModulusMismatchError,
    TorsionClass,
    representation,
    units,
)
from .chaincomplex import BasedComplex, based_complex
from .torsion import reidemeister_torsion


class NotCoprimeError(ValueError):
    """The lens parameters (or a twist) are not coprime to p."""


class NonPrimeUnsupportedError(ValueError):
    """The free-product comparison is only defined for prime p."""


@dataclass(frozen=True, slots=True)
class LensParams:
    """Coprime (p, q) with q reduced to 1..p-1."""

    p: int
    q: int


def lens_params(p: int, q: int) -> LensParams:
    if p < 2:
        raise NotCoprimeError(f"p must be >= 2, got {p}")
    q %= p
    if gcd(p, q) != 1:
        raise NotCoprimeError(f"gcd({p}, {q}) != 1")
    return LensParams(p, q)


def modp_inverse(q: int, p: int) -> int:
    """The unique r in 1..p-1 with q*r = 1 mod p."""
    q %= p
    if gcd(q, p) != 1:
        raise NotCoprimeError(f"{q} is not invertible mod {p}")
    return pow(q, -1, p)


def _lens_cells(spec: GroupSpec, factor: int, r: int) -> BasedComplex:
    """The one-cell-per-dimension complex on the generator g (of order p)
    of factor ``factor``.

    Degrees 0..3 hold the cells of dimension 3..0; differentials are
    (1 - g^r), the norm element 1 + g + ... + g^(p-1), and (1 - g).
    """
    top = ring_sub(spec, ONE_ELEM, generator_elem(spec, factor, r))
    norm = norm_elem(spec, factor)
    bottom = ring_sub(spec, ONE_ELEM, generator_elem(spec, factor, 1))
    return based_complex(
        spec,
        0,
        (1, 1, 1, 1),
        [((top,),), ((norm,),), ((bottom,),)],
        [("e3",), ("e2",), ("e1",), ("e0",)],
    )


def lens_complex(params: LensParams) -> BasedComplex:
    """Based cellular complex of L(p,q) over Z[Z/p]."""
    r = modp_inverse(params.q, params.p)
    return _lens_cells(GroupSpec.cyclic(params.p), 0, r)


# One q row of `lens-sweep --primes p` reads L(p,q) at every unit d and
# L(p,q2) at d = 1 for every q2 >= q: 2(p - 1) classes, 252 at the largest
# modulus 127.  The previous row's p - 1 classes are still the most recently
# used when the next row starts, so the sweep computes each L(p,q2) at d = 1
# once only from 3(p - 1) - 2 = 376 entries on; at 252, `--primes 127` would
# run 7752 eliminations instead of 126 (counted on its order of lookups).
# An entry is one class over Q(zeta_p), a few kB.
@lru_cache(maxsize=1024)
def lens_torsion(params: LensParams, d: int) -> TorsionClass:
    """Torsion class of L(p,q) under t -> zeta_p^d.

    Equals the class of (1 - zeta^(d*r))(1 - zeta^d).  A unit d != 1
    conjugates the class under t -> zeta; any other d is computed directly
    and raises NotAcyclicError for d = 0 mod p, where the base change keeps
    all the homology.
    """
    p = params.p
    if d != 1 and gcd(d, p) == 1:
        return lens_torsion(params, 1).conjugate(d)
    rep = representation(GroupSpec.cyclic(p), p, [d % p])
    return reidemeister_torsion(lens_complex(params), rep)


def homotopy_equivalent(a: LensParams, b: LensParams) -> tuple[bool, int | None]:
    """Whether q*q' = +-m^2 mod p for some m, with the first witness m."""
    if a.p != b.p:
        raise ModulusMismatchError("lens spaces with different p")
    p = a.p
    target = (a.q * b.q) % p
    for m in range(p):
        sq = (m * m) % p
        if sq == target or (-sq) % p == target:
            return True, m
    return False, None


def simple_homotopy_equivalent(
    a: LensParams, b: LensParams
) -> tuple[bool, tuple[int, bool] | None]:
    """Whether q' = +-q^(+-1) mod p; the witness is (sign, inverted-flag)."""
    if a.p != b.p:
        raise ModulusMismatchError("lens spaces with different p")
    p = a.p
    qinv = modp_inverse(a.q, p)
    for sign in (1, -1):
        for inverted, base in ((False, a.q), (True, qinv)):
            if (sign * base) % p == b.q % p:
                return True, (sign, inverted)
    return False, None


@dataclass(frozen=True, slots=True)
class TwistSweep:
    """A complex's torsion class under each twist d, for the units d mod p in
    increasing order, against a reference: ``rows`` holds (d, class, matches),
    and ``match_twist`` is the first matching d."""

    reference: TorsionClass
    rows: tuple[tuple[int, TorsionClass, bool], ...]
    match_twist: int | None


def twist_sweep(p: int, reference: TorsionClass, classes) -> TwistSweep:
    """Compare ``classes`` with ``reference``: one class per unit d mod p,
    in increasing order of d."""
    twists = units(p)
    classes = list(classes)
    if len(classes) != len(twists):
        raise ValueError(f"{len(classes)} classes for {len(twists)} twists mod {p}")
    rows = tuple((d, cls, cls == reference) for d, cls in zip(twists, classes))
    match = next((d for d, _, same in rows if same), None)
    return TwistSweep(reference, rows, match)


@dataclass(frozen=True, slots=True)
class LensVerdict:
    """The three classification answers for one pair of lens spaces."""

    a: LensParams
    b: LensParams
    homotopy_equivalent: bool
    homotopy_witness: int | None
    simple_homotopy_equivalent: bool
    simple_witness: tuple[int, bool] | None
    sweep: TwistSweep  # a under every t -> zeta^d against b under the identity

    @property
    def torsion_distinguished(self) -> bool:
        return self.sweep.match_twist is None

    @property
    def torsion_match_twist(self) -> int | None:
        return self.sweep.match_twist

    @property
    def consistent(self) -> bool:
        """Torsion must negate simple equivalence, which implies homotopy."""
        if self.torsion_distinguished != (not self.simple_homotopy_equivalent):
            return False
        if self.simple_homotopy_equivalent and not self.homotopy_equivalent:
            return False
        return True


def lens_verdict(a: LensParams, b: LensParams) -> LensVerdict:
    he, m = homotopy_equivalent(a, b)
    se, sw = simple_homotopy_equivalent(a, b)
    classes = [lens_torsion(a, d) for d in units(a.p)]
    sweep = twist_sweep(a.p, lens_torsion(b, 1), classes)
    return LensVerdict(a, b, he, m, se, sw, sweep)


def torsion_distinguish(a: LensParams, b: LensParams) -> tuple[bool, int | None]:
    """True iff no twist d makes the torsion of ``a`` match that of ``b``;
    the first matching d is returned when one exists."""
    d = lens_verdict(a, b).torsion_match_twist
    return d is None, d


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    k = 2
    while k * k <= p:
        if p % k == 0:
            return False
        k += 1
    return True


@dataclass(frozen=True, slots=True)
class FreeProductReport:
    """Torsion comparison of two lens complexes pushed into Z[Z/p * Z/p]."""

    p: int
    q: int
    q2: int
    sweep: TwistSweep  # first complex under each [l, 1] against second under [1, 1]


def free_product_scenario(p: int, q: int, q2: int) -> FreeProductReport:
    """Compare L(p,q) on the first free factor, under rho = [l, 1] for
    every twist l, against L(p,q2) on the second under [1, 1]: a twist
    changes only rho, and gcd(p, l, 1) = 1 keeps the unit group.  The first
    complex uses only the first generator, so its base change under [l, 1]
    is the one under [l, l] = sigma_l . [1, 1]: the sweep is one orbit."""
    if not _is_prime(p):
        raise NonPrimeUnsupportedError(f"p = {p} is not prime")
    pa = lens_params(p, q)
    pb = lens_params(p, q2)
    spec = GroupSpec.free_product([p, p])
    first = _lens_cells(spec, 0, modp_inverse(pa.q, p))
    second = _lens_cells(spec, 1, modp_inverse(pb.q, p))
    rep = representation(spec, p, [1, 1])
    cls = reidemeister_torsion(first, rep)
    sweep = twist_sweep(p, reidemeister_torsion(second, rep), [cls.conjugate(l) for l in units(p)])
    return FreeProductReport(p, pa.q, pb.q, sweep)
