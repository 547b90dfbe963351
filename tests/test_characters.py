import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ffmult.characters import (DegreeTwist, DirichletCharacter, HayesCharacter,
                               UnitCharacter, _code, character_exponents, dirichlet_character,
                               dirichlet_characters, r_s_group,
                               short_interval_character, short_interval_characters,
                               top_coefficient_tuple, unit_group)
from ffmult.fields import build_field, is_prime
from ffmult.polys import Poly, poly_gcd

F2 = build_field(2, 1)
F3 = build_field(3, 1)


def monic_moduli(field, max_degree):
    for d in range(1, max_degree + 1):
        for idx in range(field.q ** d):
            low = Poly.from_index(field, idx).coeffs
            yield Poly(field, low + (0,) * (d - len(low)) + (1,))


def test_unit_group_examples():
    g = unit_group(F3, Poly.x(F3))
    assert g.orders == (2,)                      # (F_3[x]/x)^* = {1, 2}
    g2 = unit_group(F2, Poly.x(F2) ** 2)
    assert g2.orders == (2,)                     # {1, 1+x}, the residue indices 1 and 3
    assert set(g2.elements.tolist()) == {1, 3}


def test_unit_group_refuses_before_it_enumerates(monkeypatch):
    from ffmult import characters
    from ffmult.errors import BudgetError
    built = []
    real = characters.residues
    monkeypatch.setattr(characters, "residues",
                        lambda field, modulus, idx: built.append(modulus) or real(field, modulus, idx))
    tiny = build_field(3, 1, enumeration_budget=26)
    modulus = Poly(tiny, (1, 2, 0, 1))               # degree 3: 27 residues
    with pytest.raises(BudgetError, match="27"):
        unit_group(tiny, modulus)
    with pytest.raises(BudgetError):
        dirichlet_characters(modulus)
    assert built == []
    roomy = build_field(3, 1, enumeration_budget=27)
    # x^3 - x + 1 is irreducible over F_3: every nonzero residue is a unit,
    # and the residues mod its one prime are enumerated once
    assert unit_group(roomy, Poly(roomy, (1, 2, 0, 1))).size == 26
    assert built == [(1, 2, 0, 1)]


def test_dirichlet_count_and_principal():
    chars = dirichlet_characters(Poly.x(F3))
    assert len(chars) == 2
    assert chars[0].is_principal
    for h in (Poly.one(F3), Poly.constant(F3, 2), Poly(F3, (1, 1))):
        if poly_gcd(h, Poly.x(F3)) == Poly.one(F3):
            assert chars[0](h) == 1


def test_dirichlet_vanishes_off_units():
    for chi in dirichlet_characters(Poly.x(F2)):
        assert chi(Poly.x(F2)) == 0
        assert chi(Poly.x(F2) * Poly(F2, (1, 1))) == 0


def test_dirichlet_orthogonality_all_small_moduli():
    for F in (F2, F3):
        for modulus in monic_moduli(F, 2):
            chars = dirichlet_characters(modulus)
            residues = [Poly.from_index(F, i) for i in range(F.q ** int(modulus.degree))]
            phi = len(chars)
            for c1, c2 in itertools.product(chars, repeat=2):
                total = sum(c1(h) * c2(h).conjugate() for h in residues)
                expect = phi if c1 is c2 else 0
                assert abs(total - expect) < 1e-10


def test_dirichlet_multiplicative_on_residues_exact():
    rng = random.Random(2)
    modulus = Poly(F3, (1, 0, 1))
    for chi in dirichlet_characters(modulus):
        for _ in range(200):
            a = Poly.from_index(F3, rng.randrange(1, 81))
            b = Poly.from_index(F3, rng.randrange(1, 81))
            ta, tb, tab = chi.turns(a), chi.turns(b), chi.turns(a * b)
            if ta is None or tb is None:
                assert tab is None
            else:
                assert tab == (ta + tb) % 1


@pytest.mark.parametrize("pr", [(2, 1), (3, 1), (2, 2)])
def test_the_indexed_character_is_the_list_entry(pr, monkeypatch):
    # every index of every monic modulus of degree <= 3 and of every R_s,
    # s <= 3: the character built alone equals the list's entry
    from ffmult import characters
    field = build_field(*pr)
    for name in ("unit_group", "r_s_group"):     # decompose each group once
        memo, real = {}, getattr(characters, name)
        monkeypatch.setattr(characters, name, lambda field, key, memo=memo, real=real:
                            memo[key] if key in memo else memo.setdefault(key, real(field, key)))
    pairs = [(dirichlet_characters(g), lambda i, g=g: dirichlet_character(g, i))
             for g in monic_moduli(field, 3)]
    pairs += [(short_interval_characters(field, s),
               lambda i, s=s: short_interval_character(field, s, i)) for s in range(4)]
    for chars, build in pairs:
        for i, expected in enumerate(chars):
            one = build(i)
            assert type(one) is type(expected) and one.exponents == expected.exponents
            assert one.order == expected.order and (one.table == expected.table).all()
        with pytest.raises(ValueError, match="character index"):
            build(len(chars))
        with pytest.raises(ValueError, match="character index"):
            build(-1)


def test_character_exponents_are_the_product_order():
    structure = unit_group(F3, Poly(F3, (1, 0, 0, 1)))      # x^3 + 1 = (x + 1)^3 over F_3
    orders = structure.orders
    expected = list(itertools.product(*(range(d) for d in orders)))
    assert len(orders) > 1 and len(expected) == structure.size
    assert [character_exponents(structure, i) for i in range(structure.size)] == expected


def test_resolve_hayes_builds_one_character_of_each_family(monkeypatch):
    from ffmult import characters
    from ffmult.experiments import resolve_hayes
    built = []
    real = characters._character_table
    monkeypatch.setattr(characters, "_character_table", lambda structure, exponents, size:
                        built.append(structure) or real(structure, exponents, size))
    H = resolve_hayes(F3, {"dirichlet": {"modulus": [1, 0, 1], "index": 5},
                           "short": {"s": 3, "index": 20}})
    assert len(built) == 2
    assert H.dirichlet.exponents == dirichlet_characters(Poly(F3, (1, 0, 1)))[5].exponents
    assert H.short.exponents == short_interval_characters(F3, 3)[20].exponents


def test_a_character_mod_a_degree_13_modulus_takes_under_2_s_and_4_mib():
    # x^13 + x^4 + x^3 + x + 1 over F_2: the unit group Z/8191 took 8.8 s
    # and peaked at 9.7 MiB when its residues were boxed as Poly
    coeffs = (1, 1, 0, 1, 1) + (0,) * 8 + (1,)
    start = time.perf_counter()
    chi = dirichlet_character(Poly(build_field(2, 1), coeffs), 5)
    assert time.perf_counter() - start < 2.0
    assert chi.order == 8191 and chi.exponents == (5,)
    tracemalloc.start()
    try:
        dirichlet_character(Poly(build_field(2, 1), coeffs), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_r_s_group_law_full_check():
    # full associativity + inverses for q^s <= 81, sampled beyond, the op on
    # arrays of every triple
    for F, s in ((F2, 2), (F3, 2), (F2, 4)):
        g = r_s_group(F, s)
        assert g.size == F.q ** s
        els, op, identity = g.elements, g.op, g.identity
        if g.size <= 81:
            triples = itertools.product(els.tolist(), repeat=3)
        else:
            rng = random.Random(0)
            sample = [int(els[rng.randrange(len(els))]) for _ in range(12)]
            triples = itertools.product(sample, repeat=3)
        a, b, c = (np.array(v, dtype=np.int64) for v in zip(*triples))
        assert (op(op(a, b), c) == op(a, op(b, c))).all()
        a, b = (np.array(v, dtype=np.int64) for v in zip(*itertools.product(els.tolist(), repeat=2)))
        assert (op(a, b) == identity).reshape(g.size, g.size).any(axis=1).all()


def test_short_interval_character_count():
    assert len(short_interval_characters(F3, 0)) == 1
    assert len(short_interval_characters(F3, 2)) == 9
    assert len(short_interval_characters(F2, 3)) == 8


def test_short_interval_length_zero_is_constant_one():
    xi0 = short_interval_characters(F3, 0)[0]
    for idx in range(1, 81):
        assert xi0(Poly.from_index(F3, idx)) == 1


def test_short_interval_well_defined_on_top_coefficients():
    rng = random.Random(4)
    for xi in short_interval_characters(F3, 2):
        for _ in range(500):
            d = rng.randrange(2, 7)
            g = Poly(F3, tuple(rng.randrange(3) for _ in range(d)) + (rng.randrange(1, 3),))
            # same s+1 top coefficients: scale by a unit and shake low terms
            c = rng.randrange(1, 3)
            noise = Poly(F3, tuple(rng.randrange(3) for _ in range(max(d - 2, 0))))
            h = g.scalar_mul(c) + noise
            assert xi(h) == xi(g)


def test_short_interval_completely_multiplicative_exact():
    rng = random.Random(8)
    for F, s in ((F2, 3), (F3, 2)):
        for xi in short_interval_characters(F, s):
            for _ in range(500):
                a = Poly.from_index(F, rng.randrange(1, F.q ** 4))
                b = Poly.from_index(F, rng.randrange(1, F.q ** 4))
                assert xi.turns(a * b) == (xi.turns(a) + xi.turns(b)) % 1


def test_short_interval_units_map_to_one():
    for xi in short_interval_characters(F3, 2):
        for c in (1, 2):
            assert xi(Poly.constant(F3, c)) == 1


def test_top_coefficient_padding_below_s():
    # degree < s pads with zeros and stays well defined
    g = Poly(F3, (2,))
    assert top_coefficient_tuple(F3, g, 3) == (0, 0, 0)
    g2 = Poly(F3, (1, 2))
    assert top_coefficient_tuple(F3, g2, 3) == (2, 0, 0)


def test_effective_length():
    xis = short_interval_characters(F3, 2)
    lengths = sorted(xi.length for xi in xis)
    assert lengths[0] == 0 and max(lengths) == 2
    principal = [xi for xi in xis if xi.is_principal][0]
    assert principal.length == 0


def tuple_loop_length(xi):
    """The least s' with xi trivial on every tuple (0, ..., 0, tail) with
    s' leading zeros, by the tuples themselves."""
    for s_eff in range(xi.s + 1):
        if all(xi.table[_code(xi.field, (0,) * s_eff + tail)] == 0
               for tail in itertools.product(range(xi.field.q), repeat=xi.s - s_eff)):
            return s_eff
    return xi.s


@pytest.mark.parametrize("pr,top", [((2, 1), 4), ((3, 1), 3), ((2, 2), 2), ((5, 1), 2)])
def test_effective_length_is_the_tuple_loop(pr, top):
    field = build_field(*pr)
    for s in range(top + 1):
        for xi in short_interval_characters(field, s):
            assert xi.length == tuple_loop_length(xi), xi


def test_degree_twist():
    tw = DegreeTwist(Fraction(1, 2))
    assert tw(3) == -1 and tw(2) == 1
    assert DegreeTwist(0.25)(1) == 1j


def test_hayes_products():
    H = HayesCharacter(F2, twist=DegreeTwist(Fraction(1, 2)))
    assert H(Poly(F2, (1, 1, 0, 1))) == -1                  # degree 3
    trivial = HayesCharacter.trivial(F2)
    for idx in range(1, 64):
        assert trivial(Poly.from_index(F2, idx)) == 1
    chi = dirichlet_characters(Poly.x(F2))[0]
    Hx = HayesCharacter(F2, dirichlet=chi)
    assert Hx(Poly.x(F2)) == 0
    with pytest.raises(ValueError):
        Hx(Poly.zero(F2))


def test_hayes_multiplicativity_exact_turns():
    rng = random.Random(11)
    chi = dirichlet_characters(Poly(F3, (1, 0, 1)))[2]
    xi = short_interval_characters(F3, 2)[3]
    H = HayesCharacter(F3, dirichlet=chi, short=xi, twist=DegreeTwist(Fraction(1, 3)))
    for _ in range(500):
        a = Poly.from_index(F3, rng.randrange(1, 3 ** 4))
        b = Poly.from_index(F3, rng.randrange(1, 3 ** 4))
        ta, tb, tab = H.turns(a), H.turns(b), H.turns(a * b)
        if ta is None or tb is None:
            assert tab is None
        else:
            assert tab == (ta + tb) % 1


def test_unit_character():
    uc = UnitCharacter(F3, 1)
    assert uc(1) == 1 and uc(2) == -1
    assert uc.values_at([2, 5, 0]).tolist() == [-1, 1, 0]     # lc 2, lc 1, zero
    H = HayesCharacter(F3, unit=uc)
    assert H(Poly.constant(F3, 2)) == -1
    assert H(Poly(F3, (0, 2))) == -1          # lc = 2
    assert H(Poly(F3, (1, 1))) == 1


def test_descriptors_are_plain_records():
    chi = dirichlet_characters(Poly(F3, (1, 0, 1)))[1]
    xi = short_interval_characters(F3, 1)[1]
    H = HayesCharacter(F3, dirichlet=chi, short=xi, twist=DegreeTwist(Fraction(2, 3)))
    d = H.descriptor()
    assert d["dirichlet"]["modulus"] == [1, 0, 1]
    assert d["short"]["s"] == 1
    assert d["theta"] == "2/3"


def test_trivial_dirichlet_character():
    triv = DirichletCharacter.trivial(F2)
    assert triv(Poly.x(F2)) == 1 and triv.turns(Poly.x(F2)) == 0
    # the one character of the one-element group of residues mod 1
    assert triv.order == 1 and triv.table.tolist() == [0] and triv.is_principal
    assert triv.descriptor() == {"modulus": [1], "index": [], "orders": []}
    assert all(triv.exponent(Poly.from_index(F2, i)) == 0 for i in range(64))
    assert triv.exponents_at(np.arange(64)).tolist() == [0] * 64
    assert [c.exponents for c in dirichlet_characters(Poly.one(F3))] == [()]


def generator_dlog_table(field, index):
    """The unit character's table by its own least generator of F_q^* and a
    dlog loop: entry c is index * log_gen(c) mod q - 1, for c >= 1."""
    def order(c):
        x, t = c, 1
        while x != 1:
            x, t = field.mul(x, c), t + 1
        return t

    gen = next(c for c in range(1, field.q) if order(c) == field.q - 1)
    table, x = [0] * field.q, 1
    for t in range(field.q - 1):
        table[x] = index * t % (field.q - 1)
        x = field.mul(x, gen)
    return table[1:]


def test_unit_character_table_is_the_generator_dlog_table():
    # every field with q <= 512, at six indices each
    fields = [(p, r) for p in range(2, 513) if is_prime(p)
              for r in range(1, 10) if p ** r <= 512]
    assert len(fields) == 117
    for p, r in fields:
        field = build_field(p, r)
        for index in range(6):
            u = UnitCharacter(field, index)
            assert u.order == field.q - 1 and u.table[0] == -1
            assert u.table[1:].tolist() == generator_dlog_table(field, index % (field.q - 1))


def same_bits(got, expected) -> bool:
    return np.asarray(got, dtype=complex).tobytes() == np.asarray(expected, dtype=complex).tobytes()


@pytest.mark.parametrize("pr,n,moduli,top", [((2, 1), 6, 2, 3), ((3, 1), 5, 2, 3),
                                             ((2, 2), 3, 2, 2), ((5, 1), 3, 1, 2),
                                             ((7, 1), 2, 1, 1), ((3, 2), 2, 1, 1)])
def test_components_equal_their_hayes_products(pr, n, moduli, top):
    # one conversion: a component alone is its one-component Hayes product
    # bit for bit, and its array read is its scalar call bit for bit
    field = build_field(*pr)
    idx = np.arange(1, field.q ** n)
    polys = [Poly.from_index(field, i) for i in idx.tolist()]
    chis = [chi for chi_modulus in monic_moduli(field, moduli)
            for chi in dirichlet_characters(chi_modulus)]
    xis = [xi for s in range(top + 1) for xi in short_interval_characters(field, s)]
    units = [UnitCharacter(field, i) for i in range(field.q - 1)]
    cases = ([(chi, polys, HayesCharacter(field, dirichlet=chi)) for chi in chis]
             + [(xi, polys, HayesCharacter(field, short=xi)) for xi in xis]
             + [(u, [g.lc() for g in polys], HayesCharacter(field, unit=u)) for u in units])
    for part, args, H in cases:
        assert same_bits([part(a) for a in args], [H(g) for g in polys]), part
    for part, args, _ in cases:
        assert same_bits(part.values_at(idx), [part(a) for a in args]), part
