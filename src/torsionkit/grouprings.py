"""Exact arithmetic in integral group rings Z[G].

Supported groups: finite cyclic Z/n and free products of finitely many
finite cyclic groups.  Elements are finite integer combinations of reduced
group words; all values are immutable and normalization is eager, so
equality is structural.
"""
from __future__ import annotations

from dataclasses import dataclass


class InvalidWordError(ValueError):
    """A group word violates the reduced-form invariants for its group."""


@dataclass(frozen=True, slots=True)
class GroupSpec:
    """A finite cyclic group or a free product of finite cyclic groups.

    ``factor_orders`` has length 1 for the cyclic case.  The trivial group
    is ``cyclic(1)``.
    """

    kind: str  # "cyclic" | "free_product"
    factor_orders: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind == "cyclic":
            if len(self.factor_orders) != 1 or self.factor_orders[0] < 1:
                raise ValueError(f"bad cyclic spec: {self.factor_orders}")
        elif self.kind == "free_product":
            if not self.factor_orders or any(m < 2 for m in self.factor_orders):
                raise ValueError(f"bad free product factors: {self.factor_orders}")
        else:
            raise ValueError(f"unknown group kind: {self.kind!r}")

    @staticmethod
    def cyclic(order: int) -> "GroupSpec":
        return GroupSpec("cyclic", (order,))

    @staticmethod
    def free_product(factor_orders) -> "GroupSpec":
        return GroupSpec("free_product", tuple(int(m) for m in factor_orders))

    @property
    def num_factors(self) -> int:
        return len(self.factor_orders)

    def order_of(self, factor: int) -> int:
        return self.factor_orders[factor]


TRIVIAL_GROUP = GroupSpec.cyclic(1)


@dataclass(frozen=True, slots=True)
class GroupWord:
    """A reduced word: alternating (factor, exponent) letters, exponents in
    1..order-1.  The empty word is the identity."""

    letters: tuple[tuple[int, int], ...] = ()

    def __bool__(self) -> bool:
        return bool(self.letters)

    def sort_key(self):
        return (len(self.letters), self.letters)


IDENTITY_WORD = GroupWord()


def validate_word(spec: GroupSpec, w: GroupWord) -> None:
    prev_factor = -1
    for factor, exp in w.letters:
        if not 0 <= factor < spec.num_factors:
            raise InvalidWordError(f"factor index {factor} out of range")
        if factor == prev_factor:
            raise InvalidWordError("adjacent letters share a factor")
        order = spec.order_of(factor)
        if not 1 <= exp <= order - 1:
            raise InvalidWordError(f"exponent {exp} not reduced mod {order}")
        prev_factor = factor


def word_multiply(spec: GroupSpec, a: GroupWord, b: GroupWord) -> GroupWord:
    """Product of two reduced words, reduced.

    Cancellation at the seam may cascade, so the merge runs on a stack.
    """
    validate_word(spec, a)
    validate_word(spec, b)
    stack = list(a.letters)
    for factor, exp in b.letters:
        if stack and stack[-1][0] == factor:
            merged = (stack[-1][1] + exp) % spec.order_of(factor)
            stack.pop()
            if merged:
                stack.append((factor, merged))
        else:
            stack.append((factor, exp))
    return GroupWord(tuple(stack))


def word_inverse(spec: GroupSpec, w: GroupWord) -> GroupWord:
    validate_word(spec, w)
    inv = tuple(
        (factor, spec.order_of(factor) - exp) for factor, exp in reversed(w.letters)
    )
    return GroupWord(inv)


def generator_word(spec: GroupSpec, factor: int = 0, exp: int = 1) -> GroupWord:
    """The word g_factor^exp, reduced (exp taken mod the factor order)."""
    exp %= spec.order_of(factor)
    if exp == 0:
        return IDENTITY_WORD
    w = GroupWord(((factor, exp),))
    validate_word(spec, w)
    return w


@dataclass(frozen=True, slots=True)
class GroupRingElem:
    """Element of Z[G]: terms sorted by word, no zero coefficients."""

    terms: tuple[tuple[GroupWord, int], ...] = ()

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __neg__(self) -> "GroupRingElem":
        return GroupRingElem(tuple((w, -c) for w, c in self.terms))

    def coeff(self, w: GroupWord) -> int:
        for word, c in self.terms:
            if word == w:
                return c
        return 0


def elem_from_dict(terms: dict[GroupWord, int]) -> GroupRingElem:
    items = tuple(
        sorted(((w, c) for w, c in terms.items() if c), key=lambda t: t[0].sort_key())
    )
    return GroupRingElem(items)


ZERO_ELEM = GroupRingElem()


def from_int(m: int) -> GroupRingElem:
    return elem_from_dict({IDENTITY_WORD: int(m)})


ONE_ELEM = from_int(1)


def monomial(w: GroupWord, c: int = 1) -> GroupRingElem:
    return elem_from_dict({w: c})


def generator_elem(spec: GroupSpec, factor: int = 0, exp: int = 1) -> GroupRingElem:
    return monomial(generator_word(spec, factor, exp))


def ring_add(a: GroupRingElem, b: GroupRingElem) -> GroupRingElem:
    acc: dict[GroupWord, int] = dict(a.terms)
    for w, c in b.terms:
        acc[w] = acc.get(w, 0) + c
    return elem_from_dict(acc)


def ring_sub(spec: GroupSpec, a: GroupRingElem, b: GroupRingElem) -> GroupRingElem:
    return ring_add(a, -b)


def ring_mul(spec: GroupSpec, a: GroupRingElem, b: GroupRingElem) -> GroupRingElem:
    """Convolution product; the left factor's words multiply on the left."""
    acc: dict[GroupWord, int] = {}
    for wa, ca in a.terms:
        for wb, cb in b.terms:
            w = word_multiply(spec, wa, wb)
            acc[w] = acc.get(w, 0) + ca * cb
    return elem_from_dict(acc)


def augmentation(a: GroupRingElem) -> int:
    """Sum of coefficients: the ring map Z[G] -> Z killing all generators."""
    return sum(c for _, c in a.terms)


def norm_elem(spec: GroupSpec, factor: int = 0) -> GroupRingElem:
    """1 + g + ... + g^(m-1) for the chosen factor generator g of order m."""
    m = spec.order_of(factor)
    return elem_from_dict({generator_word(spec, factor, k): 1 for k in range(m)})


def int_value(a: GroupRingElem) -> int:
    """The integer an element over the trivial group represents."""
    for w, c in a.terms:
        if w.letters:
            raise InvalidWordError("element has non-identity terms")
    return augmentation(a)


# --- serialization: [[coeff, [[factor, exp], ...]], ...], identity word [] ---


def elem_to_obj(a: GroupRingElem) -> list:
    return [[c, [[f, e] for f, e in w.letters]] for w, c in a.terms]


def json_int(value) -> int:
    """A document's integer, refused rather than coerced if a float, bool or string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def elem_from_obj(spec: GroupSpec, obj) -> GroupRingElem:
    acc: dict[GroupWord, int] = {}
    for pair in obj:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InvalidWordError(f"bad term {pair!r}")
        c, letters = pair
        w = GroupWord(tuple((json_int(f), json_int(e)) for f, e in letters))
        validate_word(spec, w)
        acc[w] = acc.get(w, 0) + json_int(c)
    return elem_from_dict(acc)


def spec_to_obj(spec: GroupSpec) -> dict:
    if spec.kind == "cyclic":
        return {"kind": "cyclic", "order": spec.factor_orders[0]}
    return {"kind": "free_product", "factor_orders": list(spec.factor_orders)}


def spec_from_obj(obj) -> GroupSpec:
    kind = obj.get("kind")
    if kind == "cyclic":
        return GroupSpec.cyclic(json_int(obj["order"]))
    if kind == "free_product":
        return GroupSpec.free_product([json_int(m) for m in obj["factor_orders"]])
    raise ValueError(f"unknown group kind: {kind!r}")
