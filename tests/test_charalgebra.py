from itertools import combinations

import numpy as np
import pytest

from thetaquartic.charalgebra import (
    REFERENCE_SYSTEM,
    AronholdSystem,
    Characteristic,
    all_forms,
    arf,
    char_sum,
    derived_forms,
    enumerate_aronhold,
    even_forms,
    form_sum,
    is_aronhold,
    is_azygetic_triple,
    odd_forms,
    pack,
    reduce_characteristic,
)
from thetaquartic.invariants import complete_4tuple, jacobian_det

from conftest import ORIGIN_SUM_SYSTEM
from oracles import F2Vector, all_vectors, brute_force_aronhold_sets, eval_form, pack_form, symplectic_form

Q0 = Characteristic((0, 0, 0), (0, 0, 0))

# the reference Aronhold system in its classical printed order
N = REFERENCE_SYSTEM.forms


def test_forms_are_characteristics(tau_seed1):
    forms = odd_forms()
    fresh = [Characteristic(q.mp, q.mpp) for q in forms]
    assert forms == fresh
    assert [hash(q) for q in forms] == [hash(m) for m in fresh]
    # (m', m'') order: forms and fresh characteristics sort together, as their bit tuples do
    assert sorted(fresh[::-1] + forms) == [m for q in forms for m in (q, q)]
    assert sorted(fresh[::-1]) == sorted(fresh, key=lambda m: m.mp + m.mpp) == forms
    assert isinstance(jacobian_det(*forms[:3], tau_seed1), complex)


@pytest.mark.parametrize("mp, mpp", [
    ((2, 0, 0), (0, 0, 0)), ((-1, 0, 0), (0, 0, 0)), ((1, 0, 1), (0, 3, 0)),
    ((3, 1, 1), (1, 1, 1)),  # odd, and equal to the first form of the reference system mod 2
])
def test_pack_refuses_non_reduced(mp, mpp):
    m = Characteristic(mp, mpp)
    with pytest.raises(ValueError, match="reduced"):
        pack(m)
    assert not is_aronhold(N[:6] + (m,))
    with pytest.raises(ValueError, match="not an Aronhold system"):
        AronholdSystem(N[:6] + (m,))
    with pytest.raises(ValueError):
        complete_4tuple(m, *N[1:4])
    with pytest.raises(ValueError):
        is_azygetic_triple(m, N[1], N[2])


@pytest.mark.parametrize("mp, mpp", [((1.9, 0, 0), (0, 0, 0)), ((0, 0, 0), (0, 1.0, 0)), (("1", 0, 0), (0, 0, 0))])
def test_characteristic_refuses_non_integral_entries(mp, mpp):
    with pytest.raises(TypeError):
        Characteristic(mp, mpp)


def test_characteristic_takes_numpy_integers():
    m = Characteristic(np.array([1, 0, 1]), (np.int64(0), np.int8(1), np.uint8(1)))
    assert m == Characteristic((1, 0, 1), (0, 1, 1))
    assert all(type(x) is int for x in m.mp + m.mpp)


def test_symplectic_basis_pairing():
    e1 = F2Vector((1, 0, 0), (0, 0, 0))
    f1 = F2Vector((0, 0, 0), (1, 0, 0))
    assert symplectic_form(e1, f1) == 1


def test_symplectic_alternating():
    for v in all_vectors():
        assert symplectic_form(v, v) == 0


def test_symplectic_bilinear_nondegenerate():
    vectors = all_vectors()
    zero = F2Vector((0, 0, 0), (0, 0, 0))
    for v in vectors:
        if v == zero:
            continue
        assert any(symplectic_form(v, w) == 1 for w in vectors)


def test_origin_form_polarization_identity():
    # q0(v+w) - q0(v) - q0(w) = omega(v, w) over all 4096 pairs
    vectors = all_vectors()
    for v in vectors:
        for w in vectors:
            lhs = (eval_form(Q0, v + w) + eval_form(Q0, v) + eval_form(Q0, w)) % 2
            assert lhs == symplectic_form(v, w)


def test_polarization_identity_every_form():
    # same identity holds for every q: the m-linear terms cancel
    vectors = all_vectors()
    for q in all_forms():
        for v in vectors[::7]:
            for w in vectors[::5]:
                lhs = (eval_form(q, v + w) + eval_form(q, v) + eval_form(q, w)) % 2
                assert lhs == symplectic_form(v, w)


def test_eval_form_examples():
    assert eval_form(Q0, F2Vector((1, 0, 0), (0, 1, 0))) == 0
    q = Characteristic((1, 1, 1), (1, 1, 1))
    assert eval_form(q, F2Vector((1, 0, 0), (0, 0, 0))) == 1


def test_point_counts_by_parity():
    for q in all_forms():
        zeros = sum(1 for w in all_vectors() if eval_form(q, w) == 0)
        assert zeros == (36 if arf(q) == 0 else 28)


def test_arf_origin_and_counts():
    assert arf(Q0) == 0
    assert len(even_forms()) == 36
    assert len(odd_forms()) == 28


def test_arf_matches_basis_sum_definition():
    # a(q) = sum_i q(e_i) q(f_i), independent of the coordinate formula
    basis_e = [F2Vector(tuple(1 if j == i else 0 for j in range(3)), (0, 0, 0)) for i in range(3)]
    basis_f = [F2Vector((0, 0, 0), tuple(1 if j == i else 0 for j in range(3))) for i in range(3)]
    for q in all_forms():
        total = sum(eval_form(q, e) * eval_form(q, f) for e, f in zip(basis_e, basis_f)) % 2
        assert total == arf(q)


def test_reference_triple_azygetic():
    assert is_azygetic_triple(N[0], N[1], N[2])


def test_syzygetic_triple_rejected():
    # an odd triple is syzygetic exactly when its sum form is odd
    odds = odd_forms()
    found = None
    for t in combinations(odds, 3):
        if arf(form_sum(*t)) == 1:
            found = t
            break
    assert found is not None
    assert sum(arf(q) for q in found) % 2 == 1  # three odd forms
    assert not is_azygetic_triple(*found)


def test_azygetic_exhaustive_recount():
    # compare against a direct Arf-sum count over all odd triples
    odds = odd_forms()
    n_main = sum(1 for t in combinations(odds, 3) if is_azygetic_triple(*t))
    n_oracle = 0
    for t in combinations(odds, 3):
        total = sum(arf(q) for q in t) + arf(form_sum(*t))
        n_oracle += total % 2
    assert n_main == n_oracle


def test_azygetic_repeated_forms_error():
    with pytest.raises(ValueError):
        is_azygetic_triple(N[0], N[0], N[1])


def test_form_sum_even_count_rejected():
    with pytest.raises(ValueError):
        form_sum(N[0], N[1])


def test_is_aronhold_reference_systems():
    assert is_aronhold(N)
    assert is_aronhold(ORIGIN_SUM_SYSTEM.forms)
    assert not is_aronhold(N[:6] + (N[0],))


def _is_aronhold_by_arf_sums(forms) -> bool:
    """The definition: seven distinct odd forms, every triple's Arf sum odd."""
    forms = tuple(forms)
    if len(forms) != 7 or len(set(forms)) != 7 or any(arf(q) != 1 for q in forms):
        return False
    return all(is_azygetic_triple(*t) for t in combinations(forms, 3))


def test_is_aronhold_matches_arf_sum_definition():
    cases = [s.forms for s in enumerate_aronhold()]
    # every one-form swap of the reference system: even forms, odd forms, repeats
    cases += [N[:i] + (q,) + N[i + 1:] for i in range(7) for q in all_forms()]
    odds = odd_forms()
    rng = np.random.default_rng(17)
    cases += [tuple(odds[i] for i in rng.choice(28, 7, replace=False)) for _ in range(2000)]
    verdicts = [is_aronhold(c) for c in cases]
    assert verdicts == [_is_aronhold_by_arf_sums(c) for c in cases]
    assert sum(verdicts[:288]) == 288 and not all(verdicts[288:])


def test_origin_sum_system_sums_to_origin():
    assert ORIGIN_SUM_SYSTEM.sum_form() == Q0


def test_enumerate_288():
    systems = enumerate_aronhold()
    assert len(systems) == 288
    sets = [s.as_set() for s in systems]
    assert REFERENCE_SYSTEM.as_set() in sets
    assert ORIGIN_SUM_SYSTEM.as_set() in sets


def test_enumerate_systems_valid_and_even_sum():
    for system in enumerate_aronhold():
        assert is_aronhold(system.forms)
        assert arf(system.sum_form()) == 0


def test_enumerate_canonical_order():
    systems = enumerate_aronhold()
    keys = [tuple(q.mp + q.mpp for q in s) for s in systems]
    assert all(list(k) == sorted(k) for k in keys)
    assert keys == sorted(keys)


def test_enumerate_matches_brute_force():
    oracle = {frozenset(s) for s in brute_force_aronhold_sets()}
    main = {frozenset(pack_form(q) for q in s) for s in enumerate_aronhold()}
    assert main == oracle


def test_derived_forms_partition():
    der = derived_forms(REFERENCE_SYSTEM)
    odd_part = set(REFERENCE_SYSTEM.forms) | set(der.pair.values())
    even_part = {der.q_s} | set(der.triple.values())
    assert len(der.pair) == 21 and len(der.triple) == 35
    assert len(odd_part) == 28 and len(even_part) == 36
    assert all(arf(q) == 1 for q in der.pair.values())
    assert all(arf(q) == 0 for q in der.triple.values())
    assert arf(der.pair[(1, 2)]) == 1


def test_derived_forms_rejects_bad_input():
    class Fake:
        forms = N[:6] + (N[0],)

        def sum_form(self):
            return form_sum(*self.forms)

    with pytest.raises(ValueError):
        derived_forms(Fake())


def test_complete_4tuple_reference():
    completions = complete_4tuple(*N[:4])
    assert len(completions) == 2
    assert frozenset(N[4:]) in [frozenset(c) for c in completions]
    for c in completions:
        assert is_aronhold(N[:4] + c)


def test_complete_4tuple_always_two():
    for system in enumerate_aronhold():
        completions = complete_4tuple(*system.forms[:4])
        assert len({frozenset(c) for c in completions}) == 2
        assert frozenset(system.forms[4:]) in [frozenset(c) for c in completions]
        assert all(is_aronhold(system.forms[:4] + c) for c in completions)


def test_complete_4tuple_rejects_non_azygetic():
    odds = odd_forms()
    bad = None
    for t in combinations(odds, 4):
        if not all(is_azygetic_triple(*s) for s in combinations(t, 3)):
            bad = t
            break
    with pytest.raises(ValueError):
        complete_4tuple(*bad)


def test_reduce_characteristic_examples():
    m = Characteristic((1, 1, 1), (1, 1, 1)) + Characteristic((0, 0, 0), (2, 0, 0))
    reduced, sign = reduce_characteristic(m)
    assert reduced == Characteristic((1, 1, 1), (1, 1, 1))
    assert sign == -1

    already = Characteristic((0, 1, 1), (1, 0, 0))
    reduced, sign = reduce_characteristic(already)
    assert reduced == already and sign == 1


def test_reduce_characteristic_idempotent_and_composes():
    m = Characteristic((3, 1, 2), (2, 5, 1))
    reduced, sign = reduce_characteristic(m)
    again, sign2 = reduce_characteristic(reduced)
    assert again == reduced and sign2 == 1
    # adding 2n and reducing again composes the signs
    n = Characteristic((2, 0, 2), (0, 2, 4))
    shifted = m + n
    reduced3, sign3 = reduce_characteristic(shifted)
    assert reduced3 == reduced
    extra = -1 if sum(reduced.mp[i] * (n.mpp[i] // 2) for i in range(3)) % 2 else 1
    assert sign3 == sign * extra


def test_reduction_sign_product_entry_23():
    # the four constants entering the (2,3) coefficient of the
    # reference system carry reduction signs with product -1
    q4, q6 = N[3], N[5]
    q5, q7 = N[4], N[6]
    q3 = N[2]
    signs = []
    for c in (char_sum(q4, q5, q3), char_sum(q4, q7, q3), char_sum(q6, q5, q3), char_sum(q6, q7, q3)):
        signs.append(reduce_characteristic(c)[1])
    prod = 1
    for s in signs:
        prod *= s
    assert prod == -1


def test_characteristic_json_roundtrip():
    m = Characteristic((1, 0, 3), (-2, 1, 0))
    assert Characteristic(**m.to_json()) == m
    assert m.to_json() == {"mp": [1, 0, 3], "mpp": [-2, 1, 0]}


def test_bracket_rendering():
    assert N[0].bracket() == "[111|111]"
    assert N[3].bracket() == "[101|100]"


def test_aronhold_system_validates():
    with pytest.raises(ValueError):
        AronholdSystem(N[:6] + (N[0],))
