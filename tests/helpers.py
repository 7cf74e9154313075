"""Shared random generators and reference implementations for the test suite.

All generators are deterministic given an explicit random.Random instance;
sizes stay small so the exact arithmetic keeps every suite desk-scale.  The
references (``basis_change_by_matrices``, ``block_edit_reference``,
``reference_ends``) compute simple operations entry by entry on
``GroupRingElem``s, independently of the working copy in ``simpleops``;
``TermsElem`` is an element as a sorted tuple of (word, coefficient)
terms, with its own sum, product, document form and evaluation, the
reference the coefficient-map element is compared against;
``sequential_inverse`` inverts in Q(zeta_n) one conjugate at a time,
``reference_cyclo_str`` renders a value term by term, and
``right_looking_eliminate`` is the elimination ``torsion._eliminate``
replaced, which updates every later column at each pivot step, here with
the same pivot rule and on values of Q(zeta_n) through ``cyclo_mul_sub``,
the update the library made before it worked on integer terms.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from torsionkit.grouprings import (
    GroupRingElem,
    GroupSpec,
    GroupWord,
    ONE_ELEM,
    TRIVIAL_GROUP,
    ZERO_ELEM,
    _json_pairs,
    _word_from_obj,
    elem_from_dict,
    from_int,
    generator_elem,
    generator_word,
    json_int,
    monomial,
    ring_sub,
    validate_word,
    word_inverse,
    word_multiply,
)
from torsionkit.chaincomplex import (
    MAX_TOTAL_RANK,
    BasedComplex,
    based_complex,
    direct_sum,
    mat_compose,
    mat_identity,
    two_term_complex,
)
from torsionkit.cyclofield import (
    _check_same_modulus,
    _make,
    _poly_mul_add,
    _reduce_mod_phi,
    CycloNum,
    Representation,
    cyclo_add,
    cyclo_fraction,
    cyclo_int,
    cyclo_mul,
    cyclo_one,
    cyclo_zero,
    galois_conjugate,
    units,
    zeta,
)
from torsionkit.simpleops import MAX_CERT_OPS, DeckTransform, Expansion, HandleSlide, Retraction, apply_op

Z7 = GroupSpec.cyclic(7)


def random_word(spec: GroupSpec, rng: random.Random, allow_identity=False) -> GroupWord:
    if spec.kind == "cyclic":
        order = spec.factor_orders[0]
        lo = 0 if allow_identity or order == 1 else 1
        return generator_word(spec, 0, rng.randint(lo, max(order - 1, 0)))
    letters = []
    prev = -1
    for _ in range(rng.randint(1, 2)):
        f = rng.choice([i for i in range(spec.num_factors) if i != prev])
        letters.append((f, rng.randint(1, spec.order_of(f) - 1)))
        prev = f
    return GroupWord(tuple(letters))


def random_elem(spec: GroupSpec, rng: random.Random, terms=2, span=3):
    acc = {}
    for _ in range(rng.randint(1, terms)):
        w = random_word(spec, rng, allow_identity=True)
        acc[w] = acc.get(w, 0) + rng.randint(-span, span)
    return elem_from_dict(acc)


def unit_after_base_change_elem(spec: GroupSpec, rng: random.Random):
    """An element of Z[Z/p] whose image under every t -> zeta^d (d coprime
    to p) is nonzero: safe as a two-term differential in acyclicity tests."""
    p = spec.factor_orders[0]
    k = rng.randint(1, p - 1)
    kind = rng.randrange(4)
    t_k = generator_elem(spec, 0, k)
    if kind == 0:
        return ring_sub(spec, ONE_ELEM, t_k)  # 1 - t^k
    if kind == 1:
        return ring_sub(spec, from_int(2), t_k)  # 2 - t^k
    if kind == 2:
        return elem_from_dict({generator_word(spec, 0, k): rng.choice([-1, 1])})
    return elem_from_dict({GroupWord(): 1, generator_word(spec, 0, k): 1})  # 1 + t^k


def scramble(c: BasedComplex, rng: random.Random, steps=6, decks=True) -> BasedComplex:
    """Random slides (and optionally decks): torsion classes are preserved."""
    for _ in range(steps):
        degs = [d for d in c.degrees if c.rank(d) >= 2]
        if degs and (not decks or rng.random() < 0.6):
            d = rng.choice(degs)
            a, b = rng.sample(range(c.rank(d)), 2)
            coeff = elem_from_dict({random_word(c.spec, rng, True): rng.choice([-2, -1, 1, 2])})
            c = apply_op(c, HandleSlide(d, a, b, coeff))
        elif decks:
            degs = [d for d in c.degrees if c.rank(d)]
            d = rng.choice(degs)
            c = apply_op(c, DeckTransform(d, rng.randrange(c.rank(d)), random_word(c.spec, rng)))
    return c


def random_acyclic_complex(
    spec: GroupSpec,
    rng: random.Random,
    summands=3,
    degree_span=3,
    decks=True,
    scramble_steps=None,
) -> BasedComplex:
    """Direct sum of two-term complexes with unit-after-base-change entries,
    scrambled by simple operations.  Acyclic under every nontrivial twist."""
    parts = []
    for _ in range(rng.randint(1, summands)):
        d = rng.randint(-degree_span, degree_span)
        parts.append(two_term_complex(spec, d, unit_after_base_change_elem(spec, rng)))
    c = parts[0]
    for part in parts[1:]:
        c = direct_sum(c, part)
    if scramble_steps is None:
        scramble_steps = 2 * c.total_rank()
    return scramble(c, rng, steps=scramble_steps, decks=decks)


def random_trivial_class_complex(spec: GroupSpec, rng: random.Random, summands=3):
    """Scrambled sum of [Z[G] --(+-g)--> Z[G]] pieces: torsion class 1."""
    parts = []
    for _ in range(rng.randint(1, summands)):
        d = rng.randint(-2, 2)
        entry = elem_from_dict({random_word(spec, rng, True): rng.choice([-1, 1])})
        parts.append(two_term_complex(spec, d, entry))
    c = parts[0]
    for part in parts[1:]:
        c = direct_sum(c, part)
    return scramble(c, rng, steps=2 * c.total_rank())


def random_unimodular_matrix(rng: random.Random, size: int, steps=6):
    """Integer matrix with determinant +-1 (product of elementary ops)."""
    m = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(steps):
        i, j = rng.sample(range(size), 2) if size >= 2 else (0, 0)
        if i == j:
            continue
        k = rng.choice([-2, -1, 1, 2])
        for c in range(size):
            m[i][c] += k * m[j][c]
    if rng.random() < 0.5 and size:
        for c in range(size):
            m[0][c] = -m[0][c]
    return m


def random_acyclic_int_complex(rng: random.Random, max_size=3) -> BasedComplex:
    """Acyclic based complex over Z: sum of two-term unimodular blocks with
    integer slides mixed in."""
    parts = []
    for _ in range(rng.randint(1, 2)):
        size = rng.randint(1, max_size)
        u = random_unimodular_matrix(rng, size)
        d = rng.randint(-2, 2)
        mat = tuple(tuple(from_int(x) for x in row) for row in u)
        parts.append(based_complex(TRIVIAL_GROUP, d, (size, size), [mat]))
    c = parts[0]
    for part in parts[1:]:
        c = direct_sum(c, part)
    return scramble(c, rng, steps=c.total_rank(), decks=False)


def random_int_complex(rng: random.Random, max_rank=2, span=2) -> BasedComplex:
    """A (not necessarily acyclic) based complex over Z: random ranks with
    zero differentials, then integer slides to populate entries."""
    lo = rng.randint(-2, 0)
    ranks = [rng.randint(0, max_rank) for _ in range(rng.randint(2, 4))]
    if not any(ranks):
        ranks[0] = 1
    diffs = []
    for k in range(len(ranks) - 1):
        diffs.append(tuple((from_int(0),) * ranks[k] for _ in range(ranks[k + 1])))
    c = based_complex(TRIVIAL_GROUP, lo, ranks, diffs)
    return scramble(c, rng, steps=span * 2, decks=False)


def filtered_extension(a: BasedComplex, b: BasedComplex, rng: random.Random) -> BasedComplex:
    """Two-step filtered complex with graded pieces a (the subcomplex) and b.

    The connecting block is h = d_a.u - u.d_b for a random degree-0 map u,
    which automatically satisfies d_a.h + h.d_b = 0.
    """
    from torsionkit.chaincomplex import mat_compose
    from torsionkit.grouprings import ring_sub as _sub

    spec = a.spec
    lo = min(a.min_degree, b.min_degree)
    hi = max(a.max_degree, b.max_degree)
    u = {
        i: tuple(
            tuple(random_elem(spec, rng) for _ in range(b.rank(i)))
            for _ in range(a.rank(i))
        )
        for i in range(lo, hi + 1)
    }
    ranks = [a.rank(i) + b.rank(i) for i in range(lo, hi + 1)]
    labels = [a.degree_labels(i) + b.degree_labels(i) for i in range(lo, hi + 1)]
    diffs = []
    for i in range(lo, hi):
        term1 = mat_compose(spec, a.diff(i), u[i], b.rank(i))
        term2 = mat_compose(spec, u[i + 1], b.diff(i), b.rank(i))
        h = tuple(
            tuple(_sub(spec, x, y) for x, y in zip(r1, r2))
            for r1, r2 in zip(term1, term2)
        )
        rows = []
        for r in range(a.rank(i + 1)):
            rows.append(a.diff(i)[r] + (h[r] if h else ()))
        for r in range(b.rank(i + 1)):
            rows.append((from_int(0),) * a.rank(i) + b.diff(i)[r])
        diffs.append(tuple(rows))
    return based_complex(spec, lo, ranks, diffs, labels)


def iso_via_ops(c: BasedComplex, rng: random.Random, steps=5):
    """A chain isomorphism from c onto a slide/deck scramble of it.

    Returns (chain_map, end_complex); the map has trivial torsion class by
    construction (it is a composite of simple operations).
    """
    from torsionkit.chaincomplex import chain_map, mat_compose, mat_identity
    from torsionkit.grouprings import monomial, word_inverse

    spec = c.spec
    current = c
    mats = {i: mat_identity(c.rank(i)) for i in c.degrees}
    for _ in range(steps):
        degs = [d for d in current.degrees if current.rank(d) >= 1]
        if not degs:
            break
        slide_degs = [d for d in degs if current.rank(d) >= 2]
        if slide_degs and rng.random() < 0.6:
            d = rng.choice(slide_degs)
            al, be = rng.sample(range(current.rank(d)), 2)
            x = elem_from_dict({random_word(spec, rng, True): rng.choice([-2, -1, 1, 2])})
            op = HandleSlide(d, al, be, x)
            p = [list(row) for row in mat_identity(current.rank(d))]
            p[be][al] = ring_sub(spec, p[be][al], x)
            pm = tuple(tuple(row) for row in p)
        else:
            d = rng.choice(degs)
            idx = rng.randrange(current.rank(d))
            w = random_word(spec, rng)
            op = DeckTransform(d, idx, w)
            p = [list(row) for row in mat_identity(current.rank(d))]
            p[idx][idx] = monomial(word_inverse(spec, w))
            pm = tuple(tuple(row) for row in p)
        current = apply_op(current, op)
        mats[d] = mat_compose(spec, pm, mats.get(d, mat_identity(c.rank(d))),
                              c.rank(d))
    return chain_map(c, current, mats), current


def random_group_complex(spec: GroupSpec, rng: random.Random, max_rank=2) -> BasedComplex:
    """A (not necessarily acyclic) complex over Z[G]: two-term pieces with
    arbitrary entries at mixed degrees, direct-summed and scrambled."""
    parts = [two_term_complex(spec, rng.randint(-2, 2), random_elem(spec, rng))]
    for _ in range(rng.randint(0, max_rank)):
        parts.append(two_term_complex(spec, rng.randint(-2, 2), random_elem(spec, rng)))
    c = parts[0]
    for part in parts[1:]:
        c = direct_sum(c, part)
    return scramble(c, rng, steps=4)


def twisted_lens_cells(spec: GroupSpec, factor: int, twist: int, p: int, r: int) -> BasedComplex:
    """The lens cells on the generator g^twist of ``factor``: differentials
    (1 - g^(twist*r)), the norm element in g^twist, and (1 - g^twist).

    One complex per twist, under a fixed representation: the reference the
    free-product sweep, which twists the representation over one complex,
    is compared against.
    """

    def gen(e: int):
        return generator_elem(spec, factor, (e * twist) % p)

    top = ring_sub(spec, ONE_ELEM, gen(r))
    norm = elem_from_dict(
        {generator_word(spec, factor, (k * twist) % p): 1 for k in range(p)}
    )
    bottom = ring_sub(spec, ONE_ELEM, gen(1))
    return based_complex(
        spec,
        0,
        (1, 1, 1, 1),
        [((top,),), ((norm,),), ((bottom,),)],
        [("e3",), ("e2",), ("e1",), ("e0",)],
    )


def basis_change_by_matrices(c, op):
    """A slide c_a -> c_a + x*c_b or a deck c_i -> w*c_i as d_d . P on the
    outgoing side and P^-1 . d_(d-1) on the incoming side, where P holds the
    new basis in old coordinates."""
    spec, d = c.spec, op.degree
    p = [list(row) for row in mat_identity(c.rank(d))]
    q = [list(row) for row in mat_identity(c.rank(d))]
    if isinstance(op, HandleSlide):
        p[op.source][op.target] = op.coefficient
        q[op.source][op.target] = -op.coefficient
    else:
        p[op.index][op.index] = monomial(op.word)
        q[op.index][op.index] = monomial(word_inverse(spec, op.word))
    p, q = tuple(map(tuple, p)), tuple(map(tuple, q))
    diffs = [c.diff(i) for i in range(c.min_degree, c.max_degree)]
    if d < c.max_degree:
        diffs[d - c.min_degree] = mat_compose(spec, c.diff(d), p, c.rank(d))
    if d > c.min_degree:
        diffs[d - 1 - c.min_degree] = mat_compose(spec, q, c.diff(d - 1), c.rank(d - 1))
    return based_complex(spec, c.min_degree, c.ranks, diffs, c.labels)


def block_edit_reference(c, d, k, insert):
    """c with basis vector k of degrees d and d+1 inserted (pivot 1, labels
    u{d}_{k} and v{d+1}_{k}) or deleted, every entry of every differential
    over the window [min(lo, d), max(hi, d + 1)] written out."""
    step = 1 if insert else -1
    lo, hi = min(c.min_degree, d), max(c.max_degree, d + 1)

    def rank(i):
        return c.rank(i) + step * (i in (d, d + 1))

    def old_index(i, j):
        """The old index of basis vector j of degree i, None for a new one."""
        if i not in (d, d + 1) or j < k:
            return j
        if insert:
            return None if j == k else j - 1
        return j + 1

    diffs = []
    for i in range(lo, hi):
        old, rows = c.diff(i), []
        for r in range(rank(i + 1)):
            row = []
            for s in range(rank(i)):
                a, b = old_index(i + 1, r), old_index(i, s)
                if a is None or b is None:
                    row.append(ONE_ELEM if (i, r, s) == (d, k, k) else ZERO_ELEM)
                else:
                    row.append(old[a][b])
            rows.append(row)
        diffs.append(rows)
    labels = []
    for i in range(lo, hi + 1):
        ls = list(c.degree_labels(i))
        if i in (d, d + 1) and insert:
            ls.insert(k, f"u{d}_{k}" if i == d else f"v{d + 1}_{k}")
        elif i in (d, d + 1):
            del ls[k]
        labels.append(ls)
    return based_complex(c.spec, lo, [rank(i) for i in range(lo, hi + 1)], diffs, labels)


def reference_step(c, op):
    if isinstance(op, Expansion):
        return block_edit_reference(c, op.degree, op.position, insert=True)
    if isinstance(op, Retraction):
        return block_edit_reference(c, op.degree, op.position, insert=False)
    return basis_change_by_matrices(c, op)


def reference_ends(start, ops):
    """The complex after each prefix of ops, built by the references."""
    ends, c = [start], start
    for op in ops:
        c = reference_step(c, op)
        ends.append(c)
    return ends


def sequential_inverse(a: CycloNum) -> CycloNum:
    """1/a = (prod of sigma_u(a), u != 1) * den / norm, the product taken
    one conjugate at a time over the units in increasing order."""
    n = a.n
    ipart = CycloNum(n, a.nums, 1)
    conj_prod = cyclo_one(n)
    for u in units(n)[1:]:
        conj_prod = cyclo_mul(conj_prod, galois_conjugate(ipart, u))
    norm = cyclo_mul(ipart, conj_prod)
    assert not any(norm.nums[1:]) and norm.den == 1, "norm must be a plain integer"
    return cyclo_mul(conj_prod, cyclo_fraction(n, Fraction(a.den, norm.nums[0])))


def cyclo_mul_sub(p: CycloNum, a: CycloNum, f: CycloNum, b: CycloNum) -> CycloNum:
    """p*a - f*b, the update of a fraction-free elimination step on values
    of Q(zeta_n): both products go into one buffer over the least common
    denominator, then one reduction mod Phi_n."""
    _check_same_modulus(p, a)
    _check_same_modulus(f, b)
    _check_same_modulus(p, f)
    n = p.n
    da, db = p.den * a.den, f.den * b.den
    g = gcd(da, db)
    acc = [0] * (2 * len(p.nums) - 1)
    if p and a:
        _poly_mul_add(acc, p.nums, a.nums, db // g)
    if f and b:
        _poly_mul_add(acc, f.nums, b.nums, -(da // g))
    return _make(n, _reduce_mod_phi(n, acc), da // g * db)


def nonzero_coefficients(x: CycloNum) -> int:
    return sum(1 for c in x.nums if c)


def right_looking_eliminate(mat, rows: list[int], scan: list[int]):
    """One fraction-free row elimination of ``mat`` restricted to ``rows``,
    on values of Q(zeta_n).

    Columns are visited in ``scan`` order; of the remaining rows with a
    nonzero entry, the one whose entry has the fewest nonzero power-basis
    coefficients (the first on ties) becomes that column's pivot row, and
    every other one is replaced by p*row - f*(pivot row), which never
    divides.  Returns ``(cols, pivot_rows, factors)``: the pivot columns,
    which form a basis of the column space of the restricted matrix, the
    row each was found in, and a pair (p, 1 - k) for each pivot p that
    updated k != 1 rows.  An update multiplies its row, and so the
    determinant of what remains, by p; so when every row becomes a pivot
    row, as in an acyclic complex, the minor of ``mat`` on those rows and
    columns (both in pivot order) is the product of p^e over ``factors``.
    """
    work = {r: list(mat[r]) for r in rows}
    cols: list[int] = []
    pivot_rows: list[int] = []
    factors: list[tuple[CycloNum, int]] = []
    for t, j in enumerate(scan):
        candidates = [r for r in work if work[r][j]]
        if not candidates:
            continue
        pr = min(candidates, key=lambda r: nonzero_coefficients(work[r][j]))
        cols.append(j)
        pivot_rows.append(pr)
        wp = work.pop(pr)
        p = wp[j]
        k = 0
        for wr in work.values():
            f = wr[j]
            if f:
                for c in scan[t + 1:]:
                    if wr[c] or wp[c]:  # else p*0 - f*0 leaves the zero
                        wr[c] = cyclo_mul_sub(p, wr[c], f, wp[c])
                k += 1
        if k != 1:
            factors.append((p, 1 - k))
        if not work:
            break
    return cols, pivot_rows, factors


def reference_cyclo_str(a: CycloNum) -> str:
    """A value as a polynomial in z, one branch per case of each term: the
    magnitude |c|/den in lowest terms, a bare magnitude at z^0, a bare power
    of z for magnitude 1, and the first term's sign in front."""
    parts = []
    den = a.den
    for j, c in enumerate(a.nums):
        if not c:
            continue
        g = gcd(c, den)
        mag = f"{abs(c) // g}" if g == den else f"{abs(c) // g}/{den // g}"
        if j == 0:
            body = mag
        else:
            var = "z" if j == 1 else f"z^{j}"
            body = var if mag == "1" else f"{mag}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    poly = "".join(parts) if parts else "0"
    return f"{poly} (mod Phi_{a.n})"


# --- the tuple-of-terms element: the reference for GroupRingElem ---


@dataclass(frozen=True)
class TermsElem:
    """An element of Z[G] as (word, coefficient) terms with no zero
    coefficient, sorted by word: shorter words first, words of one length by
    their letters.  Equal elements have equal terms, and the terms come in
    the order of the element's document."""

    terms: tuple[tuple[GroupWord, int], ...] = ()


def _term_order(term) -> tuple:
    return len(term[0].letters), term[0].letters


def terms_from_dict(terms: dict[GroupWord, int]) -> TermsElem:
    return TermsElem(tuple(sorted(((w, c) for w, c in terms.items() if c), key=_term_order)))


def terms_of(x: GroupRingElem) -> TermsElem:
    """x as a ``TermsElem``."""
    return terms_from_dict({GroupWord(l): c for l, c in x.coeffs.items()})


def terms_add(a: TermsElem, b: TermsElem) -> TermsElem:
    acc = dict(a.terms)
    for w, c in b.terms:
        acc[w] = acc.get(w, 0) + c
    return terms_from_dict(acc)


def terms_neg(a: TermsElem) -> TermsElem:
    return TermsElem(tuple((w, -c) for w, c in a.terms))


def terms_mul_add(spec: GroupSpec, acc: TermsElem, a: TermsElem, b: TermsElem) -> TermsElem:
    """acc + a*b: one validated ``word_multiply`` per pair of terms, a's
    words on the left."""
    sums = dict(acc.terms)
    for wa, ca in a.terms:
        for wb, cb in b.terms:
            w = word_multiply(spec, wa, wb)
            sums[w] = sums.get(w, 0) + ca * cb
    return terms_from_dict(sums)


def terms_to_obj(a: TermsElem) -> list:
    return [[c, [[f, e] for f, e in w.letters]] for w, c in a.terms]


def terms_from_obj(spec: GroupSpec, obj) -> TermsElem:
    """The element a document's term list spells, by the word path alone:
    each term's letters become a ``GroupWord``, checked by
    ``validate_word``, and the coefficients are summed per word."""
    sums: dict[GroupWord, int] = {}
    for c, letters in _json_pairs(obj, "term"):
        w = _word_from_obj(letters)
        validate_word(spec, w)
        sums[w] = sums.get(w, 0) + json_int(c)
    return terms_from_dict(sums)


def terms_evaluate(rep: Representation, a: TermsElem) -> CycloNum:
    """rho(a) as the sum of c * zeta^k over the terms, each word checked."""
    n = rep.modulus
    acc = cyclo_zero(n)
    for w, c in a.terms:
        validate_word(rep.spec, w)
        k = sum(exp * rep.generator_exponents[f] for f, exp in w.letters)
        acc = cyclo_add(acc, cyclo_mul(cyclo_int(n, c), zeta(n, k % n)))
    return acc


# --- verify-cert as it read every certificate whole ---


# the command's document checks, as it made them before complex_from_obj
# and ops_from_obj held the caps


def _check_op_count(what: str, count: int) -> None:
    from torsionkit.cli import CliError

    if count > MAX_CERT_OPS:
        raise CliError(f"{what} = {count} exceeds the certificate cap {MAX_CERT_OPS}")


def _total_rank(doc) -> int | None:
    """The sum of a complex document's ranks; None for a malformed
    ``ranks``, which is left to complex_from_obj to report."""
    ranks = doc.get("ranks") if isinstance(doc, dict) else None
    if isinstance(ranks, list) and all(type(r) is int for r in ranks):
        return sum(r for r in ranks if r > 0)
    return None


def _check_total_rank(what: str, total: int | None) -> None:
    from torsionkit.cli import CliError

    if total is not None and total > MAX_TOTAL_RANK:
        raise CliError(f"{what}: total rank {total} exceeds the rank cap {MAX_TOTAL_RANK}")


def reference_verify_cert(args):
    """The ``verify-cert`` command as it ran before the recorded end was
    checked on its document: ``cert_from_obj`` reads start, end and ops, the
    replayed end is compared with the read end and, on a mismatch, searched
    with ``first_difference``; the fingerprints are taken of start and of
    the read end.  The document checks are the command's as they were then,
    made on the whole document before any part is read; the ``--rep``
    parsing and the report are the command's own helpers."""
    from torsionkit import cli
    from torsionkit.chaincomplex import first_difference
    from torsionkit.simpleops import InvalidOpError, OpLimitError, cert_from_obj, replay_end
    from torsionkit.torsion import fingerprint, fingerprints_equivalent

    path = args.cert_file
    doc = cli._read_json(path)
    if isinstance(doc, dict):
        _check_op_count("ops", len(doc["ops"]) if isinstance(doc.get("ops"), list) else 0)
        _check_total_rank(f"{path}: start", _total_rank(doc.get("start")))
        _check_total_rank(f"{path}: end", _total_rank(doc.get("end")))
    try:
        cert = cert_from_obj(doc)
    except ValueError as exc:
        raise cli.CliError(f"{path}: {exc}")
    cli._check_complex(cert.start, path)
    spec = cert.start.spec
    if args.rep:
        reps = []
        for text in args.rep:
            rep = cli.parse_rep_spec(text, spec)
            if rep in reps:
                raise cli.CliError(f"--rep {cli._rep_label(rep)} is given more than once")
            reps.append(rep)
    else:
        modulus = max(spec.factor_orders)
        cli._check_modulus("default modulus", modulus)
        reps = cli._default_reps(spec, modulus)
    inputs = {"cert_file": path, "reps": [cli._rep_label(r) for r in reps], "ops": len(cert.ops)}
    try:
        end = replay_end(cert)
    except OpLimitError as exc:
        raise cli.CliError(f"{path}: op {exc.step}: {exc.reason}")
    except InvalidOpError as exc:
        raise cli.CliError(f"invalid certificate: {exc}")
    if end != cert.end:
        where, replayed, recorded = first_difference(end, cert.end)
        results = {
            "replay": False,
            "fingerprints_agree": None,
            "mismatch": {**where, "replayed": replayed, "recorded": recorded},
        }
        return cli.Report("verify-cert", inputs, results, status=cli.CHECK_FAILED)
    fp_start, fp_end = fingerprint(cert.start, reps), fingerprint(cert.end, reps)
    agree = fingerprints_equivalent(fp_start, fp_end)

    def fp_rows(fp):
        return [{"rep": cli._rep_label(rep), "torsion_class": cli._class_str(cls)} for rep, cls in fp.entries]

    results = {
        "replay": True,
        "fingerprints_agree": agree,
        "fingerprint": fp_rows(fp_start),
        "end_fingerprint": fp_rows(fp_end),
    }
    return cli.Report("verify-cert", inputs, results, status=0 if agree else cli.CROSSCHECK_VIOLATION)


def run_main(argv, verify_cert=None):
    """``cli.main(argv)`` in-process as (status, stdout, stderr); with
    ``verify_cert`` given, that function runs as the verify-cert command."""
    import argparse
    import contextlib
    import io

    from torsionkit import cli

    action = next(a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction))
    sub = action.choices["verify-cert"]
    command = sub.get_default("func")
    out, err = io.StringIO(), io.StringIO()
    try:
        if verify_cert is not None:
            sub.set_defaults(func=verify_cert)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    finally:
        sub.set_defaults(func=command)
    return status, out.getvalue(), err.getvalue()
