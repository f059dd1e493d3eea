"""Quadratic forms on the 6-dimensional symplectic F2-space.

The 64 quadratic forms on (F2^6, omega) split into 36 even and 28 odd
ones by the Arf invariant.  A form is identified with the column vector
[m'; m''] of its coordinates relative to the origin form q0, so that

    q(w) = lam.mu + lam.m' + m''.mu        for w = (lam, mu),

with the symplectic form fixed as omega(v, w) = lam_v.mu_w + mu_v.lam_w.
The same vector [m'; m''] is the reduced characteristic of the theta
function attached to q, which is what ties this module to the series
evaluation in :mod:`thetaquartic.thetaeval`.

Everything here is exact integer combinatorics: parity counts, azygetic
triples, Aronhold systems (seven odd forms, every sub-triple azygetic;
there are exactly 288 of them), and the sign bookkeeping for non-reduced
integer characteristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
from typing import Iterable

Bits = tuple[int, int, int]


def _check_bits(b) -> Bits:
    t = tuple(int(x) for x in b)
    if len(t) != 3 or any(x not in (0, 1) for x in t):
        raise ValueError(f"expected 3 bits, got {b!r}")
    return t


@dataclass(frozen=True)
class F2Vector:
    """A vector (lam, mu) in F2^3 x F2^3."""

    lam: Bits
    mu: Bits

    def __post_init__(self):
        object.__setattr__(self, "lam", _check_bits(self.lam))
        object.__setattr__(self, "mu", _check_bits(self.mu))

    def __add__(self, other: "F2Vector") -> "F2Vector":
        return F2Vector(
            tuple((a + b) % 2 for a, b in zip(self.lam, other.lam)),
            tuple((a + b) % 2 for a, b in zip(self.mu, other.mu)),
        )

    @property
    def key(self) -> tuple:
        return self.lam + self.mu


def all_vectors() -> list[F2Vector]:
    """The 64 vectors of F2^6 in lexicographic (lam, mu) order."""
    return [F2Vector(b[:3], b[3:]) for b in product((0, 1), repeat=6)]


def symplectic_form(v: F2Vector, w: F2Vector) -> int:
    """omega(v, w) = lam_v.mu_w + mu_v.lam_w mod 2."""
    s = sum(v.lam[i] * w.mu[i] + v.mu[i] * w.lam[i] for i in range(3))
    return s % 2


@dataclass(frozen=True)
class QuadForm:
    """A quadratic form, stored as its coordinate vector [m'; m'']."""

    coords: F2Vector

    @property
    def mp(self) -> Bits:
        return self.coords.lam

    @property
    def mpp(self) -> Bits:
        return self.coords.mu

    @property
    def key(self) -> tuple:
        return self.coords.key

    @cached_property
    def characteristic(self) -> "Characteristic":
        return Characteristic(self.mp, self.mpp)

    def bracket(self) -> str:
        """Render in the classical bracket style, e.g. ``[101|100]``."""
        return "[" + "".join(map(str, self.mp)) + "|" + "".join(map(str, self.mpp)) + "]"

    @classmethod
    def from_bits(cls, mp, mpp) -> "QuadForm":
        return cls(F2Vector(mp, mpp))


def eval_form(q: QuadForm, w: F2Vector) -> int:
    """q(w) = lam.mu + lam.m' + m''.mu mod 2."""
    s = sum(w.lam[i] * w.mu[i] + w.lam[i] * q.mp[i] + q.mpp[i] * w.mu[i] for i in range(3))
    return s % 2


def arf(q: QuadForm) -> int:
    """Arf invariant m'.m'' mod 2; 0 for the 36 even forms, 1 for the 28 odd."""
    return sum(a * b for a, b in zip(q.mp, q.mpp)) % 2


def form_sum(*forms: QuadForm) -> QuadForm:
    """Pointwise sum of an odd number of quadratic forms.

    A sum of evenly many forms is a linear functional, not a quadratic
    form, so an even count is rejected.
    """
    if len(forms) % 2 == 0:
        raise ValueError("the sum of an even number of quadratic forms is not a quadratic form")
    v = forms[0].coords
    for f in forms[1:]:
        v = v + f.coords
    return QuadForm(v)


def all_forms() -> list[QuadForm]:
    return [QuadForm(v) for v in all_vectors()]


def even_forms() -> list[QuadForm]:
    return [q for q in all_forms() if arf(q) == 0]


def odd_forms() -> list[QuadForm]:
    return [q for q in all_forms() if arf(q) == 1]


def is_azygetic_triple(q1: QuadForm, q2: QuadForm, q3: QuadForm) -> bool:
    """Whether the Arf sum a(q1)+a(q2)+a(q3)+a(q1+q2+q3) equals 1."""
    if len({q1, q2, q3}) != 3:
        raise ValueError("azygeticity is only defined for three distinct forms")
    total = arf(q1) + arf(q2) + arf(q3) + arf(form_sum(q1, q2, q3))
    return total % 2 == 1


def _pack(q: QuadForm) -> int:
    k = q.key
    return sum(b << i for i, b in enumerate(k))


def _unpack(x: int) -> F2Vector:
    bits = [(x >> i) & 1 for i in range(6)]
    return F2Vector(tuple(bits[:3]), tuple(bits[3:]))


#: _EVEN_LUT[x] is 1 iff the form packed as x is even; an odd triple is
#: azygetic iff the XOR of its packed forms is even
_EVEN_LUT = [1 if arf(QuadForm(_unpack(x))) == 0 else 0 for x in range(64)]


def is_aronhold(forms: Iterable[QuadForm]) -> bool:
    """Seven distinct odd forms with every one of the 35 sub-triples azygetic.

    For odd forms the Arf sum of a triple is 1 + a(q1+q2+q3), so a triple
    is azygetic iff its sum is even: one table lookup on the packed forms.
    """
    packed = [_pack(q) for q in forms]
    if len(packed) != 7 or len(set(packed)) != 7:
        return False
    if any(_EVEN_LUT[x] for x in packed):
        return False
    return all(_EVEN_LUT[x ^ y ^ z] for x, y, z in combinations(packed, 3))


@dataclass(frozen=True)
class AronholdSystem:
    """An ordered 7-tuple of odd forms, pairwise azygetic in triples.

    The ordering matters: positions 4..7 (1-based) play distinguished
    roles in the bitangent coefficient formulas.
    """

    forms: tuple[QuadForm, ...]

    def __post_init__(self):
        object.__setattr__(self, "forms", tuple(self.forms))
        if not is_aronhold(self.forms):
            raise ValueError("not an Aronhold system")

    def __iter__(self):
        return iter(self.forms)

    def __getitem__(self, i):
        return self.forms[i]

    def sum_form(self) -> QuadForm:
        """q_S, the (even) sum of the seven forms."""
        return form_sum(*self.forms)

    def as_set(self) -> frozenset:
        return frozenset(self.forms)


#: The classical ordered reference system of Weber's worked example.
REFERENCE_SYSTEM = AronholdSystem((
    QuadForm.from_bits((1, 1, 1), (1, 1, 1)),
    QuadForm.from_bits((0, 0, 1), (0, 1, 1)),
    QuadForm.from_bits((0, 1, 1), (0, 0, 1)),
    QuadForm.from_bits((1, 0, 1), (1, 0, 0)),
    QuadForm.from_bits((1, 0, 0), (1, 0, 1)),
    QuadForm.from_bits((1, 1, 0), (0, 1, 0)),
    QuadForm.from_bits((0, 1, 0), (1, 1, 0)),
))


@lru_cache(maxsize=1)
def enumerate_aronhold() -> tuple[AronholdSystem, ...]:
    """All 288 Aronhold systems, as sets in a canonical order.

    Backtracking over the 28 odd forms in key order.  Each step carries
    the pool of later forms that are azygetic with every pair of chosen
    ones; choosing a form keeps only the pool members azygetic with it
    and each earlier choice, one table lookup per pair, and a branch
    stops when too few members remain to reach seven.  Each returned
    system has its forms sorted, and the tuple is sorted
    lexicographically on the sorted keys, so the output order is
    deterministic.  The enumeration runs once per process; later calls
    return the same tuple.
    """
    odds = sorted(odd_forms(), key=lambda q: q.key)
    form_of = {_pack(q): q for q in odds}
    out: list[tuple[int, ...]] = []

    def extend(chosen: tuple[int, ...], pool: list[int]):
        # chosen and pool hold packed forms; pool is in key order
        if len(chosen) == 7:
            out.append(chosen)
            return
        # a form followed by fewer than 6 - len(chosen) pool members cannot complete a system
        for i, c in enumerate(pool[: len(pool) + len(chosen) - 6]):
            extend(chosen + (c,), [d for d in pool[i + 1 :] if all(_EVEN_LUT[x ^ c ^ d] for x in chosen)])

    extend((), list(form_of))
    return tuple(AronholdSystem(tuple(form_of[x] for x in sel)) for sel in out)


@dataclass(frozen=True)
class DerivedForms:
    """The labelling of all 64 forms induced by an Aronhold system.

    ``pair[(i, j)]`` (1-based, i < j) are the 21 odd forms q_S+q_i+q_j;
    ``triple[(i, j, k)]`` are the 35 even forms q_i+q_j+q_k; together
    with the seven system forms and q_S these exhaust the 64 forms.
    """

    q_s: QuadForm
    pair: dict
    triple: dict


def derived_forms(system: AronholdSystem) -> DerivedForms:
    """The 21 remaining odd forms, the 35 even forms, and q_S."""
    forms = system.forms
    q_s = system.sum_form()
    pair = {}
    for i, j in combinations(range(1, 8), 2):
        pair[(i, j)] = form_sum(q_s, forms[i - 1], forms[j - 1])
    triple = {}
    for i, j, k in combinations(range(1, 8), 3):
        triple[(i, j, k)] = form_sum(forms[i - 1], forms[j - 1], forms[k - 1])
    odd_part = set(forms) | set(pair.values())
    even_part = {q_s} | set(triple.values())
    if len(odd_part) != 28 or len(even_part) != 36 or (odd_part & even_part):
        raise ValueError("derived forms do not exhaust the 64 quadratic forms")
    return DerivedForms(q_s=q_s, pair=pair, triple=triple)


def complete_4tuple(q1: QuadForm, q2: QuadForm, q3: QuadForm, q4: QuadForm):
    """The two odd triples completing an azygetic 4-tuple to Aronhold systems.

    Each is one of the 288 systems of :func:`enumerate_aronhold` that
    contains the 4-tuple, less the 4-tuple, in that order and with forms
    in key order.
    """
    base = (q1, q2, q3, q4)
    if len(set(base)) != 4 or any(arf(q) != 1 for q in base):
        raise ValueError("need four distinct odd forms")
    if not all(is_azygetic_triple(*t) for t in combinations(base, 3)):
        raise ValueError("the 4-tuple is not azygetic")
    return tuple(
        tuple(q for q in system if q not in base)
        for system in enumerate_aronhold()
        if system.as_set().issuperset(base)
    )


@dataclass(frozen=True)
class Characteristic:
    """An integer theta characteristic (m', m'') in Z^3 x Z^3.

    Non-reduced characteristics arise as entrywise sums of reduced
    ones; the attached theta function differs from the reduced one only
    by the sign tracked in :func:`reduce_characteristic`.
    """

    mp: tuple[int, int, int]
    mpp: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "mp", tuple(int(x) for x in self.mp))
        object.__setattr__(self, "mpp", tuple(int(x) for x in self.mpp))
        if len(self.mp) != 3 or len(self.mpp) != 3:
            raise ValueError("characteristic components must have length 3")

    def __add__(self, other: "Characteristic") -> "Characteristic":
        return Characteristic(
            tuple(a + b for a, b in zip(self.mp, other.mp)),
            tuple(a + b for a, b in zip(self.mpp, other.mpp)),
        )

    def parity(self) -> int:
        """Parity of the reduced characteristic: 0 even, 1 odd."""
        return sum(a * b for a, b in zip(self.mp, self.mpp)) % 2

    def bracket(self) -> str:
        return "[" + "".join(map(str, self.mp)) + "|" + "".join(map(str, self.mpp)) + "]"

    def to_json(self) -> dict:
        return {"mp": list(self.mp), "mpp": list(self.mpp)}


def char_sum(*items) -> Characteristic:
    """Entrywise integer sum of characteristics (or forms, via their coords)."""
    chars = [it.characteristic if isinstance(it, QuadForm) else it for it in items]
    total = chars[0]
    for c in chars[1:]:
        total = total + c
    return total


def reduce_characteristic(m: Characteristic) -> tuple[Characteristic, int]:
    """Reduce m = r + 2n to r in {0,1}^6 and the sign (-1)^(r'.n'').

    The attached theta function satisfies theta_m = sign * theta_r, so
    the sign is exactly what a non-reduced evaluation must carry.
    """
    r = Characteristic(tuple(x % 2 for x in m.mp), tuple(x % 2 for x in m.mpp))
    n_pp = tuple((m.mpp[i] - r.mpp[i]) // 2 for i in range(3))
    sign = -1 if sum(r.mp[i] * n_pp[i] for i in range(3)) % 2 else 1
    return r, sign
