"""Exact arithmetic in integral group rings Z[G].

Supported groups: finite cyclic Z/n and free products of finitely many
finite cyclic groups.  Elements are finite integer combinations of reduced
group words; all values are immutable and normalization is eager, so
equality is structural.

Validity.  A word is checked against its group where it comes in: the file
readers ``elem_from_obj`` and ``word_from_obj``, ``generator_word``, and the
public word functions ``word_multiply`` and ``word_inverse``, which validate
their operands on every call.  Over Z/n the readers check a document word
``[]`` or ``[[0, e]]`` in place, as plain JSON ints (no bools) with factor 0
and 0 < e < n, and read it at once; every other word takes the word path
(``_word_from_obj``, then ``validate_word``), so a refused word gets the
same error text either way.
``ring_mul`` and ``ring_mul_add`` check each operand word once per product,
not once per pair of terms, and raise ``InvalidWordError`` for a word that
is not reduced.  Over Z/n, for every n, that check is reading the exponent
e (0 <= e < n) off the word, and elements multiply as sums indexed by the
exponent, a cyclic convolution.  Over a free product two words
concatenate when the seam letters lie in different factors and merge on a
stack when they share one.

Coefficient maps.  An element is one map, ``GroupRingElem.coeffs``, from the
letter tuple of each word to its coefficient, none zero, over every group;
nothing writes it once the element holds it, and ``_word_order`` lists it in
the order of the element's text and document.  Arithmetic runs on working
maps that the caller owns, keyed by the exponent over Z/n (an int hashes
faster than a letter tuple) and by the letter tuple over a free product.
``map_form`` is the map reader: it checks each word and gives the exponent
map over Z/n and a copy of the element's map over a free product.
``elem_from_map`` is the writer; over a free product the element keeps the
working map.  Each group kind has one multiply-add kernel,
``exponent_mul_add`` and ``letter_mul_add``, which adds into a non-empty
accumulator in place; ``map_mul_add`` picks it.  ``ring_mul_add`` reads its
operands, runs the kernel and writes the result; ``simpleops`` folds simple
operations on working maps the same way, writing each entry once.  Over a
small Z/n ``simpleops`` works on lists of n coefficients indexed by exponent
instead: ``list_form`` reads an element into one, with ``map_form``'s word
checks and text, and ``power_keys`` gives the key of each index.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


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

    def __init__(self, letters: tuple[tuple[int, int], ...] = ()) -> None:
        _set_letters(self, letters)

    def __bool__(self) -> bool:
        return bool(self.letters)


# Frozen: the field is set once, through its slot descriptor, which is
# cheaper than the object.__setattr__ of a generated __init__ (so for
# GroupRingElem below).
_set_letters = GroupWord.__dict__["letters"].__set__

IDENTITY_WORD = GroupWord()


def validate_word(spec: GroupSpec, w: GroupWord) -> None:
    orders = spec.factor_orders
    prev_factor = -1
    for factor, exp in w.letters:
        if not 0 <= factor < len(orders):
            raise InvalidWordError(f"factor index {factor} out of range")
        if factor == prev_factor:
            raise InvalidWordError("adjacent letters share a factor")
        order = orders[factor]
        if not 1 <= exp <= order - 1:
            raise InvalidWordError(f"exponent {exp} not reduced mod {order}")
        prev_factor = factor


def _merge(orders: tuple[int, ...], a: tuple, b: tuple) -> tuple:
    """The reduced product of two reduced letter tuples.

    When the seam letters share a factor, cancellation may cascade, so the
    merge runs on a stack.
    """
    if not a or not b or a[-1][0] != b[0][0]:
        return a + b
    stack = list(a)
    for factor, exp in b:
        if stack and stack[-1][0] == factor:
            merged = (stack.pop()[1] + exp) % orders[factor]
            if merged:
                stack.append((factor, merged))
        else:
            stack.append((factor, exp))
    return tuple(stack)


def word_multiply(spec: GroupSpec, a: GroupWord, b: GroupWord) -> GroupWord:
    """Product of two reduced words, reduced."""
    validate_word(spec, a)
    validate_word(spec, b)
    return GroupWord(_merge(spec.factor_orders, a.letters, b.letters))


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


# The map of every element built without one; never written, like any
# element's map.
_NO_COEFFS: dict = {}


@dataclass(frozen=True, slots=True)
class GroupRingElem:
    """Element of Z[G]: the map from each word's letter tuple to its
    coefficient, none zero.  Nothing writes the map once an element holds it.
    The text of an element lists its terms in word order (``_word_order``)."""

    coeffs: dict[tuple, int]

    def __init__(self, coeffs: dict[tuple, int] = _NO_COEFFS) -> None:
        _set_coeffs(self, coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        terms = tuple([(GroupWord(l), c) for l, c in _word_order(self)])
        return f"GroupRingElem(terms={terms!r})"

    def __neg__(self) -> "GroupRingElem":
        return GroupRingElem({l: -c for l, c in self.coeffs.items()})


_set_coeffs = GroupRingElem.__dict__["coeffs"].__set__


def _word_order(a: GroupRingElem) -> list[tuple[tuple, int]]:
    """a's (letters, coefficient) pairs, shorter words first and words of
    one length by their letters: the order of a's text and document."""
    return sorted(a.coeffs.items(), key=lambda t: (len(t[0]), t[0]))


def elem_from_dict(terms: dict[GroupWord, int]) -> GroupRingElem:
    return GroupRingElem({w.letters: c for w, c in terms.items() if c})


ZERO_ELEM = GroupRingElem()


def monomial(w: GroupWord, c: int = 1) -> GroupRingElem:
    return GroupRingElem({w.letters: c}) if c else ZERO_ELEM


def from_int(m: int) -> GroupRingElem:
    return monomial(IDENTITY_WORD, int(m))


ONE_ELEM = from_int(1)


def generator_elem(spec: GroupSpec, factor: int = 0, exp: int = 1) -> GroupRingElem:
    return monomial(generator_word(spec, factor, exp))


def ring_add(a: GroupRingElem, b: GroupRingElem) -> GroupRingElem:
    if not a:
        return b
    if not b:
        return a
    acc = dict(a.coeffs)
    get = acc.get
    for l, c in b.coeffs.items():
        c += get(l, 0)
        if c:
            acc[l] = c
        else:  # b's coefficient is not zero, so l was in acc
            del acc[l]
    return GroupRingElem(acc) if acc else ZERO_ELEM


def ring_sub(spec: GroupSpec, a: GroupRingElem, b: GroupRingElem) -> GroupRingElem:
    return ring_add(a, -b)


# Working maps: group element -> coefficient, no zero coefficient, keyed by
# the exponent over Z/n and by the letter tuple over a free product.


def map_form(spec: GroupSpec, a: GroupRingElem) -> dict:
    """a's coefficients as a new working map that the caller owns, each word
    checked: over Z/n a word that is not g^e with 0 <= e < n raises, over a
    free product each word goes through ``validate_word``."""
    if spec.kind != "cyclic":
        for l in a.coeffs:
            validate_word(spec, GroupWord(l))
        return dict(a.coeffs)
    n = spec.factor_orders[0]
    out = {}
    for l, c in a.coeffs.items():
        if not l:
            out[0] = c
        elif len(l) == 1 and l[0][0] == 0 and 0 < l[0][1] < n:
            out[l[0][1]] = c
        else:
            raise InvalidWordError(f"not a reduced word of Z/{n}: {l}")
    return out


def list_form(n: int, a: GroupRingElem) -> list[int]:
    """a's coefficients over Z/n as a new list of n integers, the one at
    index e that of g^e, each word checked as ``map_form`` checks it."""
    out = [0] * n
    for l, c in a.coeffs.items():
        if not l:
            out[0] = c
        elif len(l) == 1 and l[0][0] == 0 and 0 < l[0][1] < n:
            out[l[0][1]] = c
        else:
            raise InvalidWordError(f"not a reduced word of Z/{n}: {l}")
    return out


@lru_cache(maxsize=1024)
def _power_key(k: int) -> tuple:
    """The letter tuple of g^k of factor 0, one object per k for the
    elements that ``elem_from_map`` and ``elem_from_obj`` write."""
    return ((0, k),) if k else ()


def power_keys(n: int) -> tuple[tuple, ...]:
    """The letter tuple of each power g^0, ..., g^(n-1) of factor 0, the
    objects ``elem_from_map`` writes: the key of each index of a
    ``list_form`` list."""
    return tuple([_power_key(k) for k in range(n)])


def elem_from_map(spec: GroupSpec, x: dict) -> GroupRingElem:
    """The element whose coefficient at each key of the working map x is its
    value.  Over a free product the element keeps x, so the caller must not
    write x again."""
    if not x:
        return ZERO_ELEM
    if spec.kind == "cyclic":
        x = {_power_key(k): c for k, c in x.items()}
    return GroupRingElem(x)


def exponent_mul_add(n: int, acc: dict, a: dict, b: dict) -> dict[int, int]:
    """acc + a*b over Z/n on maps keyed by exponent.  A non-empty acc is
    updated in place and returned; an empty acc, which may be shared, is
    never written, and the sum comes back as a new map.  acc must be neither
    a nor b.  A one-term factor shifts the other factor's exponents, so that
    product into an empty acc has no collisions."""
    if not acc:
        if len(a) == 1:
            ((i, ca),) = a.items()
            return {(i + j) % n: ca * cb for j, cb in b.items()}
        if len(b) == 1:
            ((j, cb),) = b.items()
            return {(i + j) % n: ca * cb for i, ca in a.items()}
        acc = {}
    get = acc.get
    for i, ca in a.items():
        for j, cb in b.items():
            k = (i + j) % n
            c = get(k, 0) + ca * cb
            if c:
                acc[k] = c
            else:  # ca * cb != 0, so k was in acc
                del acc[k]
    return acc


def letter_mul_add(orders: tuple[int, ...], acc: dict, a: dict, b: dict) -> dict:
    """acc + a*b over the free product of cyclic groups of these orders, on
    maps keyed by letter tuple, a's words on the left.  The contract of
    ``exponent_mul_add``: a non-empty acc is updated in place, an empty one
    is never written.  Left or right multiplication by one word is
    injective, so a one-term factor's product has no collisions."""
    if not acc:
        if len(a) == 1:
            ((la, ca),) = a.items()
            return {_merge(orders, la, lb): ca * cb for lb, cb in b.items()}
        if len(b) == 1:
            ((lb, cb),) = b.items()
            return {_merge(orders, la, lb): ca * cb for la, ca in a.items()}
        acc = {}
    get = acc.get
    for la, ca in a.items():
        for lb, cb in b.items():
            k = _merge(orders, la, lb)
            c = get(k, 0) + ca * cb
            if c:
                acc[k] = c
            else:  # ca * cb != 0, so k was in acc
                del acc[k]
    return acc


def map_mul_add(spec: GroupSpec, acc: dict, a: dict, b: dict) -> dict:
    """acc + a*b on coefficient maps, by the kernel of spec's group kind."""
    if spec.kind == "cyclic":
        return exponent_mul_add(spec.factor_orders[0], acc, a, b)
    return letter_mul_add(spec.factor_orders, acc, a, b)


def ring_mul_add(
    spec: GroupSpec, acc: GroupRingElem, a: GroupRingElem, b: GroupRingElem
) -> GroupRingElem:
    """acc + a*b, the left factor's words multiplying on the left."""
    if not a or not b:
        return acc
    return elem_from_map(spec, map_mul_add(spec, map_form(spec, acc), map_form(spec, a), map_form(spec, b)))


def ring_mul(spec: GroupSpec, a: GroupRingElem, b: GroupRingElem) -> GroupRingElem:
    """Convolution product; the left factor's words multiply on the left."""
    return ring_mul_add(spec, ZERO_ELEM, a, b)


def augmentation(a: GroupRingElem) -> int:
    """Sum of coefficients: the ring map Z[G] -> Z killing all generators."""
    return sum(a.coeffs.values())


def norm_elem(spec: GroupSpec, factor: int = 0) -> GroupRingElem:
    """1 + g + ... + g^(m-1) for the chosen factor generator g of order m."""
    m = spec.order_of(factor)
    return elem_from_dict({generator_word(spec, factor, k): 1 for k in range(m)})


def int_value(a: GroupRingElem) -> int:
    """The integer an element over the trivial group represents."""
    for l in a.coeffs:
        if l:
            raise InvalidWordError("element has non-identity terms")
    return augmentation(a)


# --- serialization: [[coeff, [[factor, exp], ...]], ...], identity word [] ---


def elem_to_obj(a: GroupRingElem) -> list:
    return [[c, [[f, e] for f, e in l]] for l, c in _word_order(a)]


def json_int(value) -> int:
    """A document's integer, refused rather than coerced if a float, bool or string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _json_pairs(value, what: str):
    """A document's list of pairs, refused rather than iterated if a dict,
    string or scalar stands where the list or one of its pairs belongs."""
    if not isinstance(value, (list, tuple)):
        raise InvalidWordError(f"expected a list of {what}s, got {value!r}")
    for pair in value:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InvalidWordError(f"bad {what} {pair!r}")
    return value


def _word_from_obj(letters) -> GroupWord:
    """The word a document's letter list spells; the caller validates it."""
    return GroupWord(tuple((json_int(f), json_int(e)) for f, e in _json_pairs(letters, "letter")))


def _plain_exponent(n: int, letters) -> int | None:
    """e when a document's letter list is ``[]`` (e = 0) or ``[[0, e]]`` with
    plain ints and 0 < e < n, else None."""
    if type(letters) is not list:
        return None
    if not letters:
        return 0
    if len(letters) == 1 and type(letters[0]) is list and len(letters[0]) == 2:
        f, e = letters[0]
        if type(f) is int and f == 0 and type(e) is int and 0 < e < n:
            return e
    return None


def _letters_from_obj(spec: GroupSpec, letters) -> tuple:
    """The letter tuple of the word a document's letter list spells, checked
    against spec: over Z/n a plain ``[]`` or ``[[0, e]]`` is read at once,
    any other list goes through ``_word_from_obj`` and ``validate_word``."""
    if spec.kind == "cyclic":
        e = _plain_exponent(spec.factor_orders[0], letters)
        if e is not None:
            return _power_key(e)
    w = _word_from_obj(letters)
    validate_word(spec, w)
    return w.letters


def word_from_obj(spec: GroupSpec, letters) -> GroupWord:
    """The word a document's letter list spells, checked against spec."""
    return GroupWord(_letters_from_obj(spec, letters))


def elem_from_obj(spec: GroupSpec, obj) -> GroupRingElem:
    """The element a document's term list spells, each word checked by
    ``_letters_from_obj`` and then each coefficient by ``json_int``; terms
    of one word add up."""
    sums: dict[tuple, int] = {}
    for c, letters in _json_pairs(obj, "term"):
        l = _letters_from_obj(spec, letters)
        sums[l] = sums.get(l, 0) + (c if type(c) is int else json_int(c))
    coeffs = {l: c for l, c in sums.items() if c}
    return GroupRingElem(coeffs) if coeffs else ZERO_ELEM


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
