"""Theta characteristics in genus 3, and the quadratic forms they label.

With the symplectic form on F2^6 fixed as omega(v, w) = lam_v.mu_w +
mu_v.lam_w, a quadratic form is its reduced characteristic [m'; m'']:

    q(w) = lam.mu + lam.m' + m''.mu        for w = (lam, mu),

and [m'; m''] is also the characteristic of the theta function attached
to q (:mod:`thetaquartic.thetaeval`).  So one type, :class:`Characteristic`,
is both: a reduced one is a form, and an integer one is an entrywise sum
of forms, whose theta function is the reduced one's times the sign of
:func:`reduce_characteristic`.  Characteristics sort by (m', m''): the
canonical order of the 64 forms, of the forms in an Aronhold system and
of the 288 systems.  The Arf invariant m'.m'' mod 2 (:func:`arf`) splits
the forms into 36 even and 28 odd ones.

All F2 arithmetic on forms goes through one table: :data:`PACKED_FORMS`
holds the 64 forms by their 6-bit packed index (:func:`pack`, also the
row of the theta tables), and ``_ARF`` their Arf invariants in the same
order.  The pointwise sum of an odd number of forms is the XOR of their
packed indices, so a form sum, an Arf parity, an azygetic triple and an
Aronhold system are XORs and lookups.  Integer sums of characteristics
(:func:`char_sum`) stay for the sign bookkeeping of non-reduced ones.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, product
from typing import Iterable


@dataclass(frozen=True, order=True)
class Characteristic:
    """An integer theta characteristic (m', m'') in Z^3 x Z^3, ordered by (m', m'').

    A reduced one, with entries in {0, 1}, is a quadratic form.
    Non-reduced characteristics arise as entrywise sums of reduced
    ones; the attached theta function differs from the reduced one only
    by the sign tracked in :func:`reduce_characteristic`.  Entries must
    be integers (``operator.index``): numpy integers pass, floats raise
    TypeError.
    """

    mp: tuple[int, int, int]
    mpp: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "mp", tuple(map(operator.index, self.mp)))
        object.__setattr__(self, "mpp", tuple(map(operator.index, self.mpp)))
        if len(self.mp) != 3 or len(self.mpp) != 3:
            raise ValueError("characteristic components must have length 3")

    def __add__(self, other: "Characteristic") -> "Characteristic":
        return Characteristic(
            tuple(a + b for a, b in zip(self.mp, other.mp)),
            tuple(a + b for a, b in zip(self.mpp, other.mpp)),
        )

    def bracket(self) -> str:
        """Render in the classical bracket style, e.g. ``[101|100]``."""
        return "[" + "".join(map(str, self.mp)) + "|" + "".join(map(str, self.mpp)) + "]"


def arf(m: Characteristic) -> int:
    """m'.m'' mod 2: the Arf invariant of a form, 0 for the 36 even and 1 for the 28 odd.

    For an integer characteristic it is the parity of its reduction.
    """
    return sum(a * b for a, b in zip(m.mp, m.mpp)) % 2


def char_sum(*items: Characteristic) -> Characteristic:
    """Entrywise integer sum of characteristics, not reduced."""
    return reduce(operator.add, items)


def reduce_characteristic(m: Characteristic) -> tuple[Characteristic, int]:
    """Reduce m = r + 2n to r in {0,1}^6 and the sign (-1)^(r'.n'').

    The attached theta function satisfies theta_m = sign * theta_r, so
    the sign is exactly what a non-reduced evaluation must carry.
    """
    r = Characteristic(tuple(x % 2 for x in m.mp), tuple(x % 2 for x in m.mpp))
    n_pp = tuple((m.mpp[i] - r.mpp[i]) // 2 for i in range(3))
    sign = -1 if sum(r.mp[i] * n_pp[i] for i in range(3)) % 2 else 1
    return r, sign


def all_forms() -> list[Characteristic]:
    """The 64 forms in (m', m'') order."""
    return [Characteristic(b[:3], b[3:]) for b in product((0, 1), repeat=6)]


def even_forms() -> list[Characteristic]:
    return [q for q in all_forms() if arf(q) == 0]


def odd_forms() -> list[Characteristic]:
    return [q for q in all_forms() if arf(q) == 1]


#: the 64 forms by packed index: bit i of the index is (m' + m'')[i]
PACKED_FORMS = tuple(Characteristic(b[:3], b[3:]) for b in (tuple(x >> i & 1 for i in range(6)) for x in range(64)))
#: _ARF[x] is the Arf invariant of PACKED_FORMS[x]: 1 for the 28 odd forms
_ARF = tuple(map(arf, PACKED_FORMS))
#: the packed index of each reduced characteristic, keyed by its bits m' + m''
_PACKED = {q.mp + q.mpp: x for x, q in enumerate(PACKED_FORMS)}


def pack(m: Characteristic) -> int:
    """The 6-bit packed index of a reduced characteristic: bit i is (m' + m'')[i].

    So the packed index of [m'; m''] is x + 8 y, with x and y the 3-bit
    codes of m' and m''.  The theta tables are indexed by it.  A
    non-reduced characteristic raises ValueError.
    """
    try:
        return _PACKED[m.mp + m.mpp]
    except KeyError:
        raise ValueError(f"only a reduced characteristic has a packed index, got {m.bracket()}") from None


def form_sum(*forms: Characteristic) -> Characteristic:
    """Pointwise sum of an odd number of quadratic forms: the form packed at the XOR of their packed indices.

    A sum of evenly many forms is a linear functional, not a quadratic
    form, so an even count is rejected, and a non-reduced characteristic
    is no form, so :func:`pack` refuses it.
    """
    if len(forms) % 2 == 0:
        raise ValueError("the sum of an even number of quadratic forms is not a quadratic form")
    return PACKED_FORMS[reduce(operator.xor, map(pack, forms))]


def is_azygetic_triple(q1: Characteristic, q2: Characteristic, q3: Characteristic) -> bool:
    """Whether the Arf sum a(q1)+a(q2)+a(q3)+a(q1+q2+q3) is 1: four ``_ARF`` lookups, the last at the XOR."""
    x, y, z = pack(q1), pack(q2), pack(q3)  # pack refuses a non-reduced one
    if len({x, y, z}) != 3:
        raise ValueError("azygeticity is only defined for three distinct forms")
    return _ARF[x] ^ _ARF[y] ^ _ARF[z] ^ _ARF[x ^ y ^ z] == 1


def is_aronhold(forms: Iterable[Characteristic]) -> bool:
    """Seven distinct odd forms with every one of the 35 sub-triples azygetic.

    For odd forms the Arf sum of a triple is 1 + a(q1+q2+q3), so a triple
    is azygetic iff its sum is even: one ``_ARF`` lookup at the XOR of the
    packed forms.  A non-reduced characteristic is not a form, so it is
    never a member.
    """
    try:
        packed = [pack(q) for q in forms]
    except ValueError:
        return False
    if len(packed) != 7 or len(set(packed)) != 7 or not all(_ARF[x] for x in packed):
        return False
    return not any(_ARF[x ^ y ^ z] for x, y, z in combinations(packed, 3))


@dataclass(frozen=True)
class AronholdSystem:
    """An ordered 7-tuple of odd forms, pairwise azygetic in triples.

    The ordering matters: positions 4..7 (1-based) play distinguished
    roles in the bitangent coefficient formulas.
    """

    forms: tuple[Characteristic, ...]

    def __post_init__(self):
        object.__setattr__(self, "forms", tuple(self.forms))
        if not is_aronhold(self.forms):
            raise ValueError("not an Aronhold system")

    def __iter__(self):
        return iter(self.forms)

    def __getitem__(self, i):
        return self.forms[i]


#: The classical ordered reference system of Weber's worked example.
REFERENCE_SYSTEM = AronholdSystem((
    Characteristic((1, 1, 1), (1, 1, 1)),
    Characteristic((0, 0, 1), (0, 1, 1)),
    Characteristic((0, 1, 1), (0, 0, 1)),
    Characteristic((1, 0, 1), (1, 0, 0)),
    Characteristic((1, 0, 0), (1, 0, 1)),
    Characteristic((1, 1, 0), (0, 1, 0)),
    Characteristic((0, 1, 0), (1, 1, 0)),
))


@lru_cache(maxsize=1)
def enumerate_aronhold() -> tuple[AronholdSystem, ...]:
    """All 288 Aronhold systems, as sets in a canonical order.

    Backtracking over the packed indices of the 28 odd forms in (m', m'')
    order.  Each step carries the pool of later forms that are azygetic
    with every pair of chosen ones; choosing a form keeps only the pool
    members azygetic with it and each earlier choice, one ``_ARF`` lookup
    per pair, and a branch stops when too few members remain to reach
    seven.  Each returned system has its forms sorted, and the tuple is
    sorted lexicographically on the sorted forms, so the output order is
    deterministic.  The enumeration runs once per process; later calls
    return the same tuple.
    """
    out: list[tuple[int, ...]] = []

    def extend(chosen: tuple[int, ...], pool: list[int]):
        # chosen and pool hold packed forms; pool is in (m', m'') order
        if len(chosen) == 7:
            out.append(chosen)
            return
        # a form followed by fewer than 6 - len(chosen) pool members cannot complete a system
        for i, c in enumerate(pool[: len(pool) + len(chosen) - 6]):
            extend(chosen + (c,), [d for d in pool[i + 1 :] if not any(_ARF[x ^ c ^ d] for x in chosen)])

    extend((), [pack(q) for q in odd_forms()])
    return tuple(AronholdSystem(tuple(PACKED_FORMS[x] for x in sel)) for sel in out)


@dataclass(frozen=True)
class DerivedForms:
    """The labelling of all 64 forms induced by an Aronhold system.

    ``pair[(i, j)]`` (1-based, i < j) are the 21 odd forms q_S+q_i+q_j;
    ``triple[(i, j, k)]`` are the 35 even forms q_i+q_j+q_k; together
    with the seven system forms and q_S these exhaust the 64 forms.
    """

    q_s: Characteristic
    pair: dict
    triple: dict


def derived_forms(system: AronholdSystem) -> DerivedForms:
    """The 21 remaining odd forms, the 35 even forms, and q_S."""
    forms = system.forms
    q_s = form_sum(*forms)  # q_S, the (even) sum of the seven forms
    pair = {(i, j): form_sum(q_s, forms[i - 1], forms[j - 1]) for i, j in combinations(range(1, 8), 2)}
    triple = {
        (i, j, k): form_sum(forms[i - 1], forms[j - 1], forms[k - 1]) for i, j, k in combinations(range(1, 8), 3)
    }
    odd_part = set(forms) | set(pair.values())
    even_part = {q_s} | set(triple.values())
    if len(odd_part) != 28 or len(even_part) != 36 or (odd_part & even_part):
        raise ValueError("derived forms do not exhaust the 64 quadratic forms")
    return DerivedForms(q_s=q_s, pair=pair, triple=triple)

