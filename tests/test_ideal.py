import itertools
import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from avcodes.gf import Field, ZERO, ONE
from avcodes.mindex import MonomialOrder, dominates
from avcodes.transform import Spectrum, index_space, dft, dft_partial, Word, omega_space
from avcodes.ideal import (Polynomial, vanishing_gb, check_set_basis, normal_form,
                           extend, IdealError, ReducedGroebnerBasis, PLAN_CACHE_SIZE,
                           _extension_plan, _is_sequential)
from avcodes.maps import PointSet, proper_transform
import scalar_reference as reference
from avcodes.golden import (RS_PSI, RS_G, RS_SEED, RS_EXTENSION, CROSS_PSI,
                            CROSS_SEED_KNOWN, CROSS_H22, HERM_PHI1, HERM_G_PHI1,
                            HCRS_SYS_PHI, HCRS_SYS_LEADS)


@pytest.fixture(scope="module")
def rs_gb(f8_module):
    psi = PointSet(f8_module, 1, RS_PSI)
    return psi, vanishing_gb(psi, MonomialOrder("lex"))


@pytest.fixture(scope="session")
def f8_module():
    from avcodes.gf import Field

    return Field(2, 3, (1, 1, 0, 1))


def test_rs_basis_matches_root_product(f8_module):
    f = f8_module
    psi = PointSet(f, 1, RS_PSI)
    gb, delta = vanishing_gb(psi, MonomialOrder("lex"))
    # oracle: multiply out prod (x - psi) independently
    poly = Polynomial(f, 1, {(0,): ONE})
    for (w,) in RS_PSI:
        poly = poly.mul(Polynomial(f, 1, {(1,): ONE, (0,): f.neg(w)}))
    assert len(gb) == 1
    assert gb.elements[0] == poly
    assert gb.elements[0] == Polynomial(f, 1, RS_G)
    assert delta.members == frozenset({(0,), (1,), (2,), (3,)})


def test_basis_vanishes_on_generators(hermitian):
    for g in hermitian.gb.elements:
        for p in hermitian.psi.points:
            assert g.eval(p) == ZERO


def test_delta_set_invariants(hermitian, hcrs):
    for code in (hermitian, hcrs):
        assert len(code.delta) == len(code.psi)
        assert code.delta.is_downward_closed()
        for d in code.delta.members:
            assert not any(dominates(d, aw) for aw in code.gb.leading)


def test_empty_point_set_rejected(f8_module):
    with pytest.raises(IdealError):
        vanishing_gb(PointSet(f8_module, 1, ()), MonomialOrder("lex"))


def test_full_grid_bases(f8_module, f9):
    omega = PointSet(f8_module, 1, tuple((w,) for w in f8_module.elements()))
    gb, delta = vanishing_gb(omega, MonomialOrder("lex"))
    assert [g.terms for g in gb.elements] == [{(8,): 0, (1,): 0}]
    assert delta.members == frozenset((a,) for a in range(8))
    grid = PointSet(f9, 2, tuple(omega_space(f9, 2)))
    gb2, delta2 = vanishing_gb(grid, MonomialOrder("grlex"))
    assert [g.terms for g in gb2.elements] == [{(9, 0): 0, (1, 0): 4},
                                               {(0, 9): 0, (0, 1): 4}]
    assert len(delta2) == 81


def test_erasure_basis_level_shape(f9):
    phi1 = PointSet(f9, 2, HERM_PHI1)
    gb, delta = vanishing_gb(phi1, MonomialOrder("weighted_grlex", (3, 4)))
    assert [g.terms for g in gb.elements] == [dict(t) for t in HERM_G_PHI1]
    assert delta.members == frozenset({(0, 0), (0, 1)})
    # the level-1 element is y times the level-0 element
    y = Polynomial(f9, 2, {(0, 1): ONE})
    assert gb.elements[1] == gb.elements[0].mul(y)


def test_normal_form(f8_module):
    f = f8_module
    psi = PointSet(f, 1, RS_PSI)
    gb, delta = vanishing_gb(psi, MonomialOrder("lex"))
    for d in delta.members:
        mono = Polynomial(f, 1, {d: ONE})
        assert normal_form(mono, gb) == mono
    # x^4 reduces to the tail of the basis element (characteristic 2)
    x4 = Polynomial(f, 1, {(4,): ONE})
    assert normal_form(x4, gb) == Polynomial(f, 1, {(1,): 3, (2,): 3, (3,): 2})
    assert normal_form(gb.elements[0], gb).is_zero()


def test_normal_form_idempotent_and_ideal_difference(f9, hermitian, rng):
    gb = hermitian.gb
    for _ in range(10):
        terms = {}
        for _ in range(6):
            e = (rng.randrange(0, 12), rng.randrange(0, 12))
            terms[e] = rng.randrange(-1, 8)
        poly = Polynomial(f9, 2, terms)
        nf = normal_form(poly, gb)
        assert normal_form(nf, gb) == nf
        assert all(d in hermitian.delta for d in nf.terms)
        diff = poly.sub(nf)
        for p in hermitian.psi.points:
            assert diff.eval(p) == ZERO


def test_extend_worked_example(f8_module):
    f = f8_module
    psi = PointSet(f, 1, RS_PSI)
    gb, delta = vanishing_gb(psi, MonomialOrder("lex"))
    out = extend(Spectrum(f, 1, dict(RS_SEED)), gb, index_space(f, 1))
    want = dict(RS_SEED)
    want.update(RS_EXTENSION)
    assert out.values == want
    # h_4 recurrence spelled out: a^3 a^3 + a^3 a^5 + a^2 * 1
    h4 = f.add(f.add(f.mul(3, 3), f.mul(3, 5)), f.mul(2, 0))
    assert h4 == 3


def test_extend_cross_wrap(f8_module):
    f = f8_module
    psi = PointSet(f, 2, CROSS_PSI)
    gb, delta = vanishing_gb(psi, MonomialOrder("lex"))
    seed = {d: CROSS_SEED_KNOWN.get(d, ZERO) for d in delta.members}
    out = extend(Spectrum(f, 2, seed), gb, [(2, 2)])
    assert out.values[(2, 2)] == CROSS_H22


def test_extend_multi_generator_consistency(hermitian, rng):
    # the located basis of the worked decode has three elements; indices
    # admitting several of them must agree (extend raises otherwise)
    from avcodes.golden import HERM_G_LOCATED, located_points

    loc = located_points(hermitian, HERM_G_LOCATED)
    gb, delta = vanishing_gb(loc, hermitian.order)
    space = index_space(hermitian.field, 2)
    multi = [a for a in space if a not in delta.members
             and sum(dominates(a, aw) for aw in gb.leading) >= 2]
    assert multi  # the consistency check is exercised
    for _ in range(5):
        seed = Spectrum(hermitian.field, 2,
                        {d: rng.randrange(-1, 8) for d in delta.members})
        extend(seed, gb, space)


def test_extend_rejects_bad_seed_domain(f8_module):
    psi = PointSet(f8_module, 1, RS_PSI)
    gb, _ = vanishing_gb(psi, MonomialOrder("lex"))
    with pytest.raises(IdealError):
        extend(Spectrum(f8_module, 1, {(0,): ONE}), gb, index_space(f8_module, 1))


def test_extend_detects_corrupt_basis(f8_module, f9, hermitian, rng):
    # flip one tail coefficient of the worked located basis: the
    # multi-generator consistency check must fail somewhere
    from avcodes.golden import HERM_G_LOCATED, located_points

    loc = located_points(hermitian, HERM_G_LOCATED)
    gb, delta = vanishing_gb(loc, hermitian.order)
    seed = Spectrum(f9, 2, {d: rng.randrange(0, 8) for d in delta.members})
    bad_elems = [Polynomial(f9, 2, dict(g.terms)) for g in gb.elements]
    tail_key = next(e for e in bad_elems[0].terms if e != gb.leading[0])
    bad_elems[0].terms[tail_key] = f9.add(bad_elems[0].terms[tail_key], ONE)
    bad = ReducedGroebnerBasis(f9, 2, gb.order, bad_elems, gb.leading, gb.delta)
    # the plan of the shape is built by the first call and reused by the
    # second, which must still check every recurrence
    # and must name the first failing index that the scalar checks name
    with pytest.raises(IdealError, match="inconsistent recurrences") as want:
        reference.extend(seed, bad, index_space(f9, 2))
    _extension_plan.cache_clear()
    for hits in (0, 1):
        with pytest.raises(IdealError, match="^%s$" % re.escape(str(want.value))):
            extend(seed, bad, index_space(f9, 2))
        assert _extension_plan.cache_info().hits == hits
    # cross pattern: dropping the only in-range element leaves indices with
    # no admissible generator
    f = f8_module
    psi = PointSet(f, 2, CROSS_PSI)
    gb_c, delta_c = vanishing_gb(psi, MonomialOrder("lex"))
    seed_c = Spectrum(f, 2, {d: rng.randrange(-1, 7) for d in delta_c.members})
    keep = [w for w, aw in enumerate(gb_c.leading) if any(x >= 8 for x in aw)]
    partial = ReducedGroebnerBasis(f, 2, gb_c.order,
                                   [gb_c.elements[w] for w in keep],
                                   [gb_c.leading[w] for w in keep], gb_c.delta)
    with pytest.raises(IdealError):
        extend(seed_c, partial, index_space(f, 2))


def test_prolongation_matches_full_transform(f8_module, f9, hermitian, rng):
    # extending the proper transform of a word equals the transform of the
    # zero-padded word (checked on the bundled point sets)
    cases = [
        (f8_module, 1, PointSet(f8_module, 1, RS_PSI), MonomialOrder("lex")),
        (f8_module, 2, PointSet(f8_module, 2, CROSS_PSI), MonomialOrder("lex")),
        (f9, 2, hermitian.psi, hermitian.order),
    ]
    for f, ndim, psi, order in cases:
        gb, delta = vanishing_gb(psi, order)
        c = Word(f, ndim, {p: rng.randrange(-1, f.q - 1) for p in psi.points})
        h = proper_transform(c, delta)
        ext = extend(h, gb, index_space(f, ndim))
        padded = Word(f, ndim, {w: c.values.get(w, ZERO) for w in omega_space(f, ndim)})
        assert ext.values == dft(padded).values


def test_check_set_basis_properties(hcrs):
    phi = PointSet(hcrs.field, 2, HCRS_SYS_PHI)
    gb = check_set_basis(phi, hcrs.b_list, hcrs.order)
    assert tuple(gb.leading) == HCRS_SYS_LEADS
    for g, aw in zip(gb.elements, gb.leading):
        assert g.coeff(aw) == ONE
        for e in g.terms:
            assert e == aw or e in hcrs.b_members
        for p in phi.points:
            assert g.eval(p) == ZERO
    assert gb.delta.members == hcrs.b_members


def test_check_set_basis_unsolvable(f9):
    # two points sharing x = 0 cannot carry the check set {1, x}
    pts = PointSet(f9, 2, ((-1, 0), (-1, 1)))
    with pytest.raises(IdealError):
        check_set_basis(pts, [(0, 0), (1, 0)], MonomialOrder("grlex"))


@pytest.mark.parametrize("q,ndim,pts,b_list,leads", [
    # B = {1, x^2}: the corner x alone gives recurrences that never reach
    # x^3..x^7; the border lead x^3 closes them
    (8, 1, ((0,), (1,)), [(0,), (2,)], [(1,), (3,)]),
    # B = {x^3}: x^4 = x wraps to the border lead x
    (4, 1, ((1,),), [(3,)], [(0,), (1,)]),
    # B = {y}: the corner 1 alone never ties the x-slices together
    (4, 2, ((0, 0),), [(0, 1)], [(0, 0), (0, 2), (1, 1)]),
])
def test_check_set_basis_off_a_closed_check_set(q, ndim, pts, b_list, leads):
    f = {4: Field(2, 2, (1, 1, 1)), 8: Field(2, 3, (1, 1, 0, 1))}[q]
    points = PointSet(f, ndim, pts)
    gb = check_set_basis(points, b_list, MonomialOrder("lex"))
    assert sorted(gb.leading) == leads
    # the recurrences from the B values reproduce the transform of every
    # word on the points
    word = Word(f, ndim, {p: j for j, p in enumerate(pts)})
    full = dft_partial(word, index_space(f, ndim))
    seed = Spectrum(f, ndim, {b: full.values[b] for b in b_list})
    assert extend(seed, gb, index_space(f, ndim)).values == full.values


def test_leading_monomial(f8_module, f9):
    g = Polynomial(f8_module, 1, RS_G)
    assert g.leading(MonomialOrder("lex")) == (4,)
    curve = Polynomial(f9, 2, {(0, 3): 0, (4, 0): 4, (0, 1): 0})
    assert curve.leading(MonomialOrder("weighted_grlex", (3, 4))) == (0, 3)
    const = Polynomial(f9, 2, {(0, 0): 5})
    assert const.leading(MonomialOrder("grlex")) == (0, 0)
    with pytest.raises(IdealError):
        Polynomial(f9, 2, {}).leading(MonomialOrder("grlex"))


def test_polynomial_text_roundtrip(f9, rng):
    for _ in range(20):
        terms = {}
        for _ in range(5):
            terms[(rng.randrange(0, 10), rng.randrange(0, 10))] = rng.randrange(-1, 8)
        poly = Polynomial(f9, 2, terms)
        assert Polynomial.parse(f9, 2, poly.text()) == poly
    assert Polynomial.parse(f9, 2, "0").is_zero()
    assert Polynomial.parse(f9, 2, "3*x1*x2^2 + 0").terms == {(1, 2): 3, (0, 0): 0}


def test_polynomial_arithmetic(f9, rng):
    a = Polynomial(f9, 2, {(1, 0): 2, (0, 1): 3})
    b = Polynomial(f9, 2, {(1, 0): 2})
    assert a.sub(a).is_zero()
    assert a.add(b).terms == {(1, 0): f9.add(2, 2), (0, 1): 3}
    prod = a.mul(b)
    assert prod.terms == {(2, 0): f9.mul(2, 2), (1, 1): f9.mul(3, 2)}
    pt = (4, 7)
    assert prod.eval(pt) == f9.mul(a.eval(pt), b.eval(pt))


PROPERTY_FIELDS = {4: Field(2, 2, (1, 1, 1)), 8: Field(2, 3, (1, 1, 0, 1)),
                   9: Field(3, 2, (2, 1, 1))}


BASIS_FIELDS = {**PROPERTY_FIELDS, 16: Field(2, 4, (1, 1, 0, 0, 1)),
                27: Field(3, 3, (1, 2, 0, 1))}


@st.composite
def point_sets(draw):
    f = BASIS_FIELDS[draw(st.sampled_from(sorted(BASIS_FIELDS)))]
    ndim = draw(st.sampled_from([1, 2]))
    coords = st.tuples(*[st.integers(-1, f.q - 2)] * ndim)
    pts = draw(st.lists(coords, min_size=1, max_size=min(f.q ** ndim, 12), unique=True))
    kind = draw(st.sampled_from(["lex", "grlex", "weighted_grlex"]))
    weights = None
    if kind == "weighted_grlex":
        weights = draw(st.lists(st.integers(1, 4), min_size=ndim, max_size=ndim))
    return PointSet(f, ndim, tuple(pts)), MonomialOrder(kind, weights)


@settings(max_examples=100, deadline=None)
@given(point_sets(), st.randoms(use_true_random=False))
def test_check_set_basis_agrees_with_vanishing_gb(case, rnd):
    # the family seeded on the delta set is the vanishing-ideal basis: the
    # same leads and elements inside A, and only the leads that carry a
    # component q on top
    pts, order = case
    f = pts.field
    gb, delta = vanishing_gb(pts, order)
    cs = check_set_basis(pts, order.sort(delta.members), order)
    inside = [(aw, g) for g, aw in zip(gb.elements, gb.leading) if max(aw) < f.q]
    assert list(zip(cs.leading, cs.elements)) == inside
    assert all(max(aw) == f.q for aw in gb.leading if aw not in cs.leading)
    # the delta set plus up to three other indices, in shuffled order:
    # dependent columns are skipped, every element still vanishes with
    # its tail inside B
    extra = [a for a in index_space(f, pts.ndim) if a not in delta]
    b_list = list(delta.members) + rnd.sample(extra, min(3, len(extra)))
    rnd.shuffle(b_list)
    cs = check_set_basis(pts, b_list, order)
    for g, aw in zip(cs.elements, cs.leading):
        assert g.coeff(aw) == ONE
        assert all(e == aw or e in b_list for e in g.terms)
        assert all(g.eval(p) == ZERO for p in pts)


def _extend_ops(seed, gb, target, fn=extend):
    before = gb.field.op_count
    out = fn(seed, gb, target)
    return out, gb.field.op_count - before


def test_extend_ops_independent_of_call_history(f8_module, hermitian, rng):
    from avcodes.golden import HERM_G_LOCATED, located_points

    f = f8_module
    loc = located_points(hermitian, HERM_G_LOCATED)
    gb_h, delta_h = vanishing_gb(loc, hermitian.order)
    seed_h = Spectrum(hermitian.field, 2, {d: rng.randrange(-1, 8) for d in delta_h.members})
    # B = {1, x^2} over GF(8): a worklist family
    gb_w = check_set_basis(PointSet(f, 1, ((0,), (1,))), [(0,), (2,)], MonomialOrder("lex"))
    assert not _is_sequential(gb_w)
    seed_w = Spectrum(f, 1, {(0,): 3, (2,): 5})
    counts = []
    for seed, gb in ((seed_h, gb_h), (seed_w, gb_w)):
        space = index_space(gb.field, gb.ndim)
        _extension_plan.cache_clear()
        first, built = _extend_ops(seed, gb, space)
        assert _extension_plan.cache_info().misses == 1
        again, cached = _extend_ops(seed, gb, space)
        assert _extension_plan.cache_info().hits == 1
        assert again.values == first.values and built == cached > 0
        counts.append(built)
    # a sequential sweep costs one mul and one add per tail term and one
    # neg per admissible recurrence, whatever the cache holds
    q = hermitian.field.q
    assert counts[0] == sum(2 * (len(g.terms) - 1) + 1
                          for a in index_space(hermitian.field, 2) if a not in delta_h
                          for g, aw in zip(gb_h.elements, gb_h.leading)
                          if all(x < q for x in aw) and dominates(a, aw))
    # one shape, other coefficients: the RS tail scaled by alpha is another
    # recurrence of the same support
    gb, delta = vanishing_gb(PointSet(f, 1, RS_PSI), MonomialOrder("lex"))
    g = gb.elements[0]
    scaled = Polynomial(f, 1, {e: c if e == (4,) else f.mul(c, 1) for e, c in g.terms.items()})
    gb2 = ReducedGroebnerBasis(f, 1, gb.order, [scaled], gb.leading, gb.delta)
    seed = Spectrum(f, 1, dict(RS_SEED))
    out1, ops1 = _extend_ops(seed, gb, index_space(f, 1))
    out2, ops2 = _extend_ops(seed, gb2, index_space(f, 1))
    assert out1.values != out2.values and ops1 == ops2


def test_extend_plan_key_holds_tails_outside_the_seed_set(f9, rng):
    # y^2 + c*g_(2,0) is another ideal element of lead (0,2), with the
    # non-seed x^2 in its tail: its plan must read that coefficient
    pts = PointSet(f9, 2, ((-1, -1), (0, -1), (-1, 0)))
    order = MonomialOrder("grlex")
    gb, delta = vanishing_gb(pts, order)
    assert gb.leading == [(2, 0), (1, 1), (0, 2)]
    mixed = gb.elements[2].add(gb.elements[0].scale(3))
    assert (2, 0) in mixed.terms and (2, 0) not in delta
    gb2 = ReducedGroebnerBasis(f9, 2, order, gb.elements[:2] + [mixed], gb.leading, delta)
    assert _is_sequential(gb2)
    c = Word(f9, 2, {p: rng.randrange(-1, 8) for p in pts.points})
    seed = proper_transform(c, delta)
    padded = Word(f9, 2, {w: c.values.get(w, ZERO) for w in omega_space(f9, 2)})
    space = index_space(f9, 2)
    assert extend(seed, gb, space).values == dft(padded).values
    assert extend(seed, gb2, space).values == dft(padded).values


def test_plan_cache_is_bounded():
    # tiny GF(4) shapes that differ only in their target
    f = PROPERTY_FIELDS[4]
    gb, delta = vanishing_gb(PointSet(f, 2, ((-1, 0), (1, 2))), MonomialOrder("grlex"))
    seed = Spectrum(f, 2, {d: ONE for d in delta.members})
    space = index_space(f, 2)
    targets = itertools.chain(*(itertools.permutations(space, k) for k in (1, 2, 3)))
    _extension_plan.cache_clear()
    for target in itertools.islice(targets, PLAN_CACHE_SIZE + 5):
        extend(seed, gb, target)
    info = _extension_plan.cache_info()
    assert info.misses == PLAN_CACHE_SIZE + 5
    assert info.currsize == info.maxsize == PLAN_CACHE_SIZE


PLAN_FIELDS = {**PROPERTY_FIELDS, 16: Field(2, 4, (1, 1, 0, 0, 1))}


@st.composite
def extension_cases(draw):
    """Random points over GF(4)..GF(16), N = 1 or 2, a random check set B
    inside their delta set and |B| of the points that carry it."""
    f = PLAN_FIELDS[draw(st.sampled_from(sorted(PLAN_FIELDS)))]
    ndim = draw(st.sampled_from([1, 2]))
    coords = st.tuples(*[st.integers(-1, f.q - 2)] * ndim)
    pts = draw(st.lists(coords, min_size=2, max_size=min(f.q ** ndim, 10), unique=True))
    order = MonomialOrder(draw(st.sampled_from(["lex", "grlex"])))
    psi = PointSet(f, ndim, tuple(pts))
    gb, delta = vanishing_gb(psi, order)
    members = order.sort(delta.members)
    b_list = draw(st.lists(st.sampled_from(members), min_size=1,
                           max_size=len(members) - 1, unique=True))
    phi_pts = draw(st.permutations(pts))[:len(b_list)]
    try:
        gb_b = check_set_basis(PointSet(f, ndim, tuple(phi_pts)), b_list, order)
    except IdealError:
        assume(False)
    word = draw(st.lists(st.integers(-1, f.q - 2), min_size=len(pts), max_size=len(pts)))
    return f, ndim, dict(zip(pts, word)), gb, delta, gb_b, b_list, phi_pts


def test_extend_plans_match_transform():
    worklist = []
    built = []

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(extension_cases())
    def check(case):
        f, ndim, values, gb, delta, gb_b, b_list, phi_pts = case
        space = index_space(f, ndim)
        c = Word(f, ndim, values)
        c_phi = Word(f, ndim, {p: values[p] for p in phi_pts})
        families = ((proper_transform(c, delta), gb, c), (dft_partial(c_phi, b_list), gb_b, c_phi))
        for seed, basis, word in families:
            padded = Word(f, ndim, {w: word.values.get(w, ZERO) for w in omega_space(f, ndim)})
            want = dft(padded).values
            misses = _extension_plan.cache_info().misses
            # builds the plan, or reuses one an earlier basis of its shape built
            assert extend(seed, basis, space).values == want
            info = _extension_plan.cache_info()
            built.append(info.misses > misses)
            assert extend(seed, basis, space).values == want  # reuses it
            assert _extension_plan.cache_info().hits == info.hits + 1
        worklist.append(not _is_sequential(gb_b))

    _extension_plan.cache_clear()
    check()
    # the check-set families include forward-referencing (worklist) ones,
    # and some first calls find their shape's plan already cached
    assert any(worklist) and not all(worklist)
    assert any(built) and not all(built)


REFERENCE_FIELDS = {**PLAN_FIELDS, 25: Field(5, 2, (2, 1, 1)), 27: Field(3, 3, (1, 2, 0, 1))}


def test_extend_matches_scalar_reference():
    """Values and exact op counts of extend against the scalar checks, on
    vanishing-ideal and check-set families over GF(4)..GF(27), N in
    {1, 2, 3} with q^N <= 729, with the plan built and reused."""
    worklist = []

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(REFERENCE_FIELDS)), st.sampled_from([1, 2, 3]),
           st.integers(0, 2 ** 32))
    def check(q, ndim, seed):
        assume(q ** ndim <= 729)
        f = REFERENCE_FIELDS[q]
        rnd = random.Random(seed)
        omega = omega_space(f, ndim)
        pts = rnd.sample(omega, rnd.randrange(2, min(10, len(omega)) + 1))
        order = MonomialOrder(rnd.choice(["lex", "grlex"]))
        gb, delta = vanishing_gb(PointSet(f, ndim, tuple(pts)), order)
        families = [gb]
        b_list = rnd.sample(order.sort(delta.members), rnd.randrange(1, len(delta)))
        try:
            families.append(check_set_basis(PointSet(f, ndim, tuple(pts[:len(b_list)])),
                                            b_list, order))
        except IdealError:
            pass
        space = index_space(f, ndim)
        for basis in families:
            worklist.append(not _is_sequential(basis))
            seed_h = Spectrum(f, ndim, {d: rnd.randrange(-1, q - 1) for d in basis.delta.members})
            target = rnd.sample(space, rnd.randrange(1, len(space) + 1))
            for tgt in (space, target):
                want, ops = _extend_ops(seed_h, basis, tgt, reference.extend)
                for _ in range(2):  # the plan is built, then reused
                    got, got_ops = _extend_ops(seed_h, basis, tgt)
                    assert got.values == want.values and got_ops == ops

    check()
    assert any(worklist) and not all(worklist)
