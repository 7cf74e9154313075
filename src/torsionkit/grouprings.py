"""Exact arithmetic in integral group rings Z[G].

Supported groups: finite cyclic Z/n and free products of finitely many
finite cyclic groups.  Elements are finite integer combinations of reduced
group words; all values are immutable and normalization is eager, so
equality is structural.

Validity.  A word is checked against its group where it comes in: the file
readers ``elem_from_obj`` and ``word_from_obj``, ``generator_word``, and the
public word functions ``word_multiply`` and ``word_inverse``, which validate
their operands on every call.  Over Z/n the readers check a document term
``[c, []]`` or ``[c, [[0, e]]]`` in place, as plain JSON ints (no bools)
with factor 0 and 0 < e < n, and read it straight into an exponent; every
other term takes the word path (``_word_from_obj``, then
``validate_word``), so a refused term gets the same error text either way.
``ring_mul`` and ``ring_mul_add`` check each operand word once per product,
not once per pair of terms, and raise ``InvalidWordError`` for a word that
is not reduced.  Over Z/n, for every n, that check is reading the exponent
e (0 <= e < n) off the word (``cyclic_terms``, which
``cyclofield.evaluate_rep`` shares), and elements multiply as sums indexed
by the exponent, a cyclic convolution.  Over a free product two words
concatenate when the seam letters lie in different factors and merge on a
stack when they share one.

Coefficient maps.  ``simpleops`` folds simple operations on entries in one
form: a map from group element to coefficient with no zero coefficient,
keyed by the exponent over Z/n and by the letter tuple over a free
product.  ``map_form`` is the reader (each word checked, as in a product)
and ``elem_from_map`` the writer, whose words g^k over Z/n come from a
bounded cache (``_power_word``, which ``ring_mul_add`` shares) rather than
being built for every term.  Each group kind has one multiply-add kernel,
``exponent_mul_add`` and ``letter_mul_add``, which adds into a non-empty
accumulator in place; ``map_mul_add`` picks it.  The free-product
``ring_mul_add`` reads its operands, runs ``letter_mul_add`` and writes
the result.
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

    def sort_key(self):
        return (len(self.letters), self.letters)


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


@dataclass(frozen=True, slots=True)
class GroupRingElem:
    """Element of Z[G]: terms sorted by word, no zero coefficients."""

    terms: tuple[tuple[GroupWord, int], ...] = ()

    def __init__(self, terms: tuple[tuple[GroupWord, int], ...] = ()) -> None:
        _set_terms(self, terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __neg__(self) -> "GroupRingElem":
        return GroupRingElem(tuple([(w, -c) for w, c in self.terms]))


_set_terms = GroupRingElem.__dict__["terms"].__set__


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
    if not a:
        return b
    if not b:
        return a
    acc: dict[GroupWord, int] = dict(a.terms)
    for w, c in b.terms:
        acc[w] = acc.get(w, 0) + c
    return elem_from_dict(acc)


def ring_sub(spec: GroupSpec, a: GroupRingElem, b: GroupRingElem) -> GroupRingElem:
    return ring_add(a, -b)


def cyclic_terms(n: int, terms) -> list[tuple[int, int]]:
    """(exponent, coefficient) per (word, coefficient) pair of ``terms`` over
    Z/n.  A word that is not g^e with 0 <= e < n raises."""
    out = []
    for w, c in terms:
        letters = w.letters
        if not letters:
            e = 0
        elif len(letters) == 1 and letters[0][0] == 0 and 0 < letters[0][1] < n:
            e = letters[0][1]
        else:
            raise InvalidWordError(f"not a reduced word of Z/{n}: {letters}")
        out.append((e, c))
    return out


def _convolve_into(n: int, sums: dict, a, b) -> dict:
    """Add a*b into ``sums`` by exponent over Z/n; a and b are
    (exponent, coefficient) pairs, and g^i * g^j = g^((i + j) % n)."""
    for i, ca in a:
        for j, cb in b:
            k = (i + j) % n
            sums[k] = sums.get(k, 0) + ca * cb
    return sums


def _cyclic_mul_add(n: int, acc: GroupRingElem, a: GroupRingElem, b: GroupRingElem):
    """acc + a*b over Z/n, summed by exponent."""
    sums = _convolve_into(
        n, dict(cyclic_terms(n, acc.terms)), cyclic_terms(n, a.terms), cyclic_terms(n, b.terms)
    )
    return GroupRingElem(tuple([(_power_word(k), c) for k, c in sorted(sums.items()) if c]))


# Coefficient maps: group element -> coefficient, no zero coefficient; the
# key is the exponent over Z/n and the letter tuple over a free product.


def map_form(spec: GroupSpec, terms) -> dict:
    """The (word, coefficient) pairs ``terms`` as a new coefficient map that
    the caller owns, each word checked: over Z/n by ``cyclic_terms``, over a
    free product by ``validate_word``."""
    if spec.kind == "cyclic":
        return dict(cyclic_terms(spec.factor_orders[0], terms))
    for w, _ in terms:
        validate_word(spec, w)
    return {w.letters: c for w, c in terms}


@lru_cache(maxsize=1024)
def _power_word(k: int) -> GroupWord:
    """g^k of factor 0, shared by the elements ``elem_from_map`` writes."""
    return GroupWord(((0, k),)) if k else IDENTITY_WORD


def _letter_order(term) -> tuple:
    return len(term[0]), term[0]


def elem_from_map(spec: GroupSpec, x: dict) -> GroupRingElem:
    """The element whose coefficient at each key of x is its value, terms
    sorted by word."""
    if not x:
        return ZERO_ELEM
    if spec.kind == "cyclic":
        return GroupRingElem(tuple([(_power_word(k), c) for k, c in sorted(x.items())]))
    return GroupRingElem(tuple([(GroupWord(l), c) for l, c in sorted(x.items(), key=_letter_order)]))


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
    if spec.kind == "cyclic":
        return _cyclic_mul_add(spec.factor_orders[0], acc, a, b)
    maps = map_form(spec, acc.terms), map_form(spec, a.terms), map_form(spec, b.terms)
    return elem_from_map(spec, letter_mul_add(spec.factor_orders, *maps))


def ring_mul(spec: GroupSpec, a: GroupRingElem, b: GroupRingElem) -> GroupRingElem:
    """Convolution product; the left factor's words multiply on the left."""
    return ring_mul_add(spec, ZERO_ELEM, a, b)


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


def word_from_obj(spec: GroupSpec, letters) -> GroupWord:
    """The word a document's letter list spells, checked against spec: over
    Z/n a plain ``[]`` or ``[[0, e]]`` is read at once, any other list goes
    through ``_word_from_obj`` and ``validate_word``."""
    if spec.kind == "cyclic":
        e = _plain_exponent(spec.factor_orders[0], letters)
        if e is not None:
            return GroupWord(((0, e),)) if e else IDENTITY_WORD
    w = _word_from_obj(letters)
    validate_word(spec, w)
    return w


def elem_from_obj(spec: GroupSpec, obj) -> GroupRingElem:
    """The element a document's term list spells, each word checked.

    Over Z/n a term ``[c, []]`` or ``[c, [[0, e]]]`` with plain ints c, e and
    0 < e < n is read straight into a map from exponent to coefficient; every
    other term goes through ``word_from_obj``, which refuses it with the word
    path's text or gives its exponent, and ``json_int``."""
    pairs = _json_pairs(obj, "term")
    if spec.kind != "cyclic":
        acc: dict[GroupWord, int] = {}
        for c, letters in pairs:
            w = word_from_obj(spec, letters)
            acc[w] = acc.get(w, 0) + json_int(c)
        return elem_from_dict(acc)
    n = spec.factor_orders[0]
    sums: dict[int, int] = {}
    for c, letters in pairs:
        e = _plain_exponent(n, letters) if type(c) is int else None
        if e is None:
            w = word_from_obj(spec, letters)
            e = w.letters[0][1] if w.letters else 0
            c = json_int(c)
        sums[e] = sums.get(e, 0) + c
    return elem_from_map(spec, {e: c for e, c in sums.items() if c})


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
