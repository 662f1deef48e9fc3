import itertools
import random
import re
import sys
import threading

import pytest
from hypothesis import assume, given, settings, strategies as st

from avcodes.gf import DENSE_Q, Field, FieldError, ZERO, ONE
from avcodes.mindex import MonomialOrder, dominates, semigroup_add
from avcodes.transform import (Spectrum, index_space, dft, dft_partial, Word, omega_space,
                               power_matrix)
from avcodes.ideal import (Polynomial, vanishing_gb, check_set_basis, normal_form, SumForms,
                           extend, IdealError, ReducedGroebnerBasis,
                           _extension_array, _extension_plan, _level_leads,
                           index_array)
from avcodes import ideal
from avcodes.maps import PointSet, canonical_iso, proper_transform
from avcodes.codes import code_from_config, preset
import scalar_reference as reference
from test_codes import HERM16, HERM64
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


@pytest.fixture
def plans(monkeypatch):
    """The bases whose extension plan is built, one entry per build."""
    built = []

    def spy(gb):
        built.append(gb)
        return _extension_plan(gb)

    monkeypatch.setattr(ideal, "_extension_plan", spy)
    return built


def test_rs_basis_matches_root_product(f8_module):
    f = f8_module
    psi = PointSet(f, 1, RS_PSI)
    gb, delta = vanishing_gb(psi, MonomialOrder("lex"))
    # oracle: multiply out prod (x - psi) independently, on coefficient
    # lists lowest degree first: p <- x p - psi p
    coeffs = [ONE]
    for (w,) in RS_PSI:
        coeffs = [f.add(a, f.mul(f.neg(w), b))
                  for a, b in zip([ZERO] + coeffs, coeffs + [ZERO])]
    poly = Polynomial(f, 1, {(k,): c for k, c in enumerate(coeffs)})
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
    y_g0 = {(a, b + 1): c for (a, b), c in gb.elements[0].terms.items()}
    assert gb.elements[1] == Polynomial(f9, 2, y_g0)


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
    assert normal_form(gb.elements[0], gb).terms == {}


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
        for p in hermitian.psi.points:
            assert poly.eval(p) == nf.eval(p)


def test_extend_worked_example(f8_module):
    f = f8_module
    psi = PointSet(f, 1, RS_PSI)
    gb, delta = vanishing_gb(psi, MonomialOrder("lex"))
    out = extend(Spectrum(f, 1, dict(RS_SEED)), gb)
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
    out = extend(Spectrum(f, 2, seed), gb)
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
        extend(seed, gb)


def test_extend_rejects_bad_seed_domain(f8_module):
    psi = PointSet(f8_module, 1, RS_PSI)
    gb, _ = vanishing_gb(psi, MonomialOrder("lex"))
    with pytest.raises(IdealError):
        extend(Spectrum(f8_module, 1, {(0,): ONE}), gb)


@pytest.mark.parametrize("entry", [extend, _extension_array])
def test_extend_rejects_a_seed_over_another_field(f8_module, hermitian, entry):
    # a GF(8) seed on the GF(9) basis used to extend to GF(9) values
    gb = hermitian.gb
    seed = {d: ONE for d in gb.delta.members}
    before = (f8_module.op_count, gb.field.op_count)
    with pytest.raises(IdealError, match=r"seed spectrum over Field\(p=2, m=3, q=8\) "
                                         r"\(polynomial \(1, 1, 0, 1\)\), basis over "
                                         r"Field\(p=3, m=2, q=9\) \(polynomial \(2, 1, 1\)\)"):
        entry(Spectrum(f8_module, 2, seed), gb)
    assert (f8_module.op_count, gb.field.op_count) == before
    # an equal field that is another object is the same field
    same = Field(3, 2, gb.field.primitive_poly)
    assert same is not gb.field
    want = entry(Spectrum(gb.field, 2, seed), gb)
    got = entry(Spectrum(same, 2, seed), gb)
    assert (got.values == want.values) if isinstance(got, Spectrum) else (got == want).all()


@pytest.mark.parametrize("bad", [100, True, 2.5])
@pytest.mark.parametrize("entry", [extend, canonical_iso])
def test_extend_rejects_bad_seed_values(f8_module, entry, bad):
    # 100 used to come back next to wrapped values, True was read as
    # alpha^1 and 2.5 ended in a TypeError
    psi = PointSet(f8_module, 1, RS_PSI)
    gb, _ = vanishing_gb(psi, MonomialOrder("lex"))
    seed = dict(RS_SEED)
    seed[(1,)] = bad
    h = Spectrum(f8_module, 1, seed)
    with pytest.raises(FieldError, match=r"seed spectrum at \(1,\)"):
        entry(h, gb, *(() if entry is extend else (psi,)))


def test_extend_detects_corrupt_basis(f8_module, f9, hermitian, rng, plans):
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
    # the plan of the basis is built by the first call and reused by the
    # second, which must still check every recurrence
    # and must name the first failing index that the scalar checks name
    with pytest.raises(IdealError, match="inconsistent recurrences") as want:
        reference.extend(seed, bad)
    for _ in range(2):
        with pytest.raises(IdealError, match="^%s$" % re.escape(str(want.value))):
            extend(seed, bad)
        assert plans == [bad]
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
        extend(seed_c, partial)


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
        ext = extend(h, gb)
        padded = Word(f, ndim, {w: c.values.get(w, ZERO) for w in omega_space(f, ndim)})
        assert ext.values == dft(padded).values


def test_check_set_basis_properties(hcrs):
    phi = PointSet(hcrs.field, 2, HCRS_SYS_PHI)
    gb = check_set_basis(phi, hcrs.b_list, hcrs.order)
    assert tuple(gb.leading) == HCRS_SYS_LEADS
    for g, aw in zip(gb.elements, gb.leading):
        assert g.terms[aw] == ONE
        for e in g.terms:
            assert e == aw or e in hcrs.b_members
        for p in phi.points:
            assert g.eval(p) == ZERO
    assert gb.delta.members == hcrs.b_members


def test_check_set_basis_rejects_a_non_integer_index(hermitian):
    # (0.5, 0) used to pass the range check and be cast to (0, 0); a bool
    # component is read as its int, as dft_partial reads it
    psi, order = hermitian.psi, hermitian.order
    for b in ((0.5, 0), (0, "1"), (0, None)):
        with pytest.raises(IdealError, match=r"^check index %s outside A$" % re.escape(str(b))):
            check_set_basis(psi, [b], order)
    f = PROPERTY_FIELDS[4]
    pts = PointSet(f, 2, ((0, 0), (1, 0)))
    got = check_set_basis(pts, [(0, 0), (True, 0)], MonomialOrder("lex"))
    want = check_set_basis(pts, [(0, 0), (1, 0)], MonomialOrder("lex"))
    assert got.elements == want.elements and got.leading == want.leading


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
    assert extend(seed, gb).values == full.values


@pytest.mark.parametrize("seed", range(2))
def test_level_leads_cover_the_minimal_indices(seed):
    # every minimal index of A \ B is a level lead or dominates one,
    # whether B is closed or not: check_set_basis needs no corner scan
    rnd = random.Random(seed)
    for _ in range(2400):
        q, ndim = rnd.randint(2, 5), rnd.randint(1, 3)
        space = list(itertools.product(range(q), repeat=ndim))
        members = set(rnd.sample(space, rnd.randint(0, len(space))))
        if rnd.random() < 0.5:
            members = {a for a in space if any(dominates(b, a) for b in members)}
        leads = _level_leads(members, q, ndim)
        for a in space:
            below = itertools.product(*(range(x + 1) for x in a))
            if a not in members and all(b == a or b in members for b in below):
                assert any(dominates(a, e) for e in leads), (q, sorted(members), a)


def test_leading_monomial(f8_module, f9):
    g = Polynomial(f8_module, 1, RS_G)
    assert g.leading(MonomialOrder("lex")) == (4,)
    curve = Polynomial(f9, 2, {(0, 3): 0, (4, 0): 4, (0, 1): 0})
    assert curve.leading(MonomialOrder("weighted_grlex", (3, 4))) == (0, 3)
    const = Polynomial(f9, 2, {(0, 0): 5})
    assert const.leading(MonomialOrder("grlex")) == (0, 0)
    with pytest.raises(IdealError):
        Polynomial(f9, 2, {}).leading(MonomialOrder("grlex"))


PROPERTY_FIELDS = {4: Field(2, 2, (1, 1, 1)), 8: Field(2, 3, (1, 1, 0, 1)),
                   9: Field(3, 2, (2, 1, 1))}


BASIS_FIELDS = {**PROPERTY_FIELDS, 16: Field(2, 4, (1, 1, 0, 0, 1)),
                27: Field(3, 3, (1, 2, 0, 1))}


@st.composite
def point_sets(draw, fields=BASIS_FIELDS):
    f = fields[draw(st.sampled_from(sorted(fields)))]
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
        assert g.terms[aw] == ONE
        assert all(e == aw or e in b_list for e in g.terms)
        assert all(g.eval(p) == ZERO for p in pts)


@settings(max_examples=100, deadline=None)
@given(point_sets(PROPERTY_FIELDS), st.data())
def test_normal_form_properties(case, data):
    # random polynomials, with exponents past q - 1 so that the x_i^q
    # leads divide too: the remainder lies on the delta set, is its own
    # remainder, and agrees with the polynomial on every point
    pts, order = case
    f = pts.field
    gb, delta = vanishing_gb(pts, order)
    exps = st.tuples(*[st.integers(0, 2 * f.q)] * pts.ndim)
    poly = Polynomial(f, pts.ndim, data.draw(
        st.dictionaries(exps, st.integers(-1, f.q - 2), max_size=8)))
    nf = normal_form(poly, gb)
    assert all(e in delta for e in nf.terms)
    assert normal_form(nf, gb) == nf
    assert all(poly.eval(p) == nf.eval(p) for p in pts)


def _delta_evals(gb, psi):
    """E_D of a point set: the exponent matrix of its basis's delta
    monomials, in increasing order, at its points."""
    return power_matrix(gb.field, index_array(gb.delta.sorted(gb.order), gb.ndim),
                        index_array(psi.points, gb.ndim))


def _assert_sum_forms_match_elimination(forms, gb, psi):
    # the form and lead of every pair of delta monomials, as division on
    # the basis gives them, equal the elimination's of the pair's sum
    n = len(forms.delta)
    slots, lead, _, _ = forms.block(n)
    keys = index_array([semigroup_add(a, b, gb.field.q)
                        for a in forms.delta for b in forms.delta], gb.ndim)
    want_forms, want_leads = reference.sum_forms(gb, psi, keys)
    assert (forms.forms[slots.ravel()] == want_forms).all()
    assert (lead.ravel() == want_leads).all()


@pytest.mark.parametrize("name", ["rs-like", "hermitian", "hcrs", "herm16"])
def test_sum_forms_match_elimination(name):
    # a fresh code: growing its forms over the whole block adds no field
    # operation, since they belong to the code like its basis
    code = code_from_config(HERM16) if name == "herm16" else preset(name)
    before = code.field.op_count
    code.sum_forms.block(code.n)
    assert code.field.op_count == before
    _assert_sum_forms_match_elimination(code.sum_forms, code.gb, code.psi)


@pytest.mark.parametrize("name", ["rs-like", "hermitian", "hcrs", "herm16"])
def test_sum_forms_share_the_code_e_d(name):
    # a code keeps one E_D, its d_rows, the matrix of the delta monomials
    # at the points, which the locator reads; its normal forms run over the
    # same delta order and hold no E_D of their own
    code = code_from_config(HERM16) if name == "herm16" else preset(name)
    assert not hasattr(code.sum_forms, "evals")
    assert code.sum_forms.delta == list(code.d_sorted)
    assert (code.d_rows == _delta_evals(code.gb, code.psi)).all()


@pytest.mark.parametrize("name", ["rs-like", "hermitian", "hcrs", "herm16"])
def test_sum_forms_grow_amortized(name):
    # grown one monomial at a time, the memo is reallocated a logarithmic
    # number of times (capacity doubling, not a copy per growth), and its
    # entries stay the elimination's
    code = code_from_config(HERM16) if name == "herm16" else preset(name)
    forms = SumForms(code.gb)
    capacities = set()
    for m in range(1, code.n + 1):
        forms.block(m)
        capacities.add(len(forms._buf[1]))
        assert len(forms._buf[1]) >= len(forms.leads)
    assert len(capacities) <= len(forms.leads).bit_length() + 1
    _assert_sum_forms_match_elimination(forms, code.gb, code.psi)


@settings(max_examples=100, deadline=None)
@given(point_sets())
def test_sum_forms_match_elimination_on_random_codes(case):
    pts, order = case
    gb, _ = vanishing_gb(pts, order)
    _assert_sum_forms_match_elimination(SumForms(gb), gb, pts)


def _extend_ops(seed, gb, fn=extend):
    before = gb.field.op_count
    out = fn(seed, gb)
    return out, gb.field.op_count - before


def test_extend_ops_independent_of_call_history(f8_module, hermitian, rng, plans):
    from avcodes.golden import HERM_G_LOCATED, located_points

    f = f8_module
    loc = located_points(hermitian, HERM_G_LOCATED)
    gb_h, delta_h = vanishing_gb(loc, hermitian.order)
    seed_h = Spectrum(hermitian.field, 2, {d: rng.randrange(-1, 8) for d in delta_h.members})
    # B = {1, x^2} over GF(8): a family with a tail past its lead
    gb_w = check_set_basis(PointSet(f, 1, ((0,), (1,))), [(0,), (2,)], MonomialOrder("lex"))
    assert not reference.tails_precede_leads(gb_w)
    seed_w = Spectrum(f, 1, {(0,): 3, (2,): 5})
    counts = []
    for seed, gb in ((seed_h, gb_h), (seed_w, gb_w)):
        first, built = _extend_ops(seed, gb)
        assert plans[-1] is gb
        again, kept = _extend_ops(seed, gb)
        assert plans[-1] is gb and len(plans) == len(counts) + 1
        assert again.values == first.values and built == kept > 0
        counts.append(built)
    # a vanishing-ideal basis costs one mul and one add per tail term and one
    # neg per admissible recurrence, whether the call built its plan or not
    q = hermitian.field.q
    assert counts[0] == sum(2 * (len(g.terms) - 1) + 1
                          for a in index_space(hermitian.field, 2) if a not in delta_h
                          for g, aw in zip(gb_h.elements, gb_h.leading)
                          if all(x < q for x in aw) and dominates(a, aw))
    # one schedule, other coefficients: the RS tail scaled by alpha is another
    # recurrence of the same support, read into its basis's own plan
    gb, delta = vanishing_gb(PointSet(f, 1, RS_PSI), MonomialOrder("lex"))
    g = gb.elements[0]
    scaled = Polynomial(f, 1, {e: c if e == (4,) else f.mul(c, 1) for e, c in g.terms.items()})
    gb2 = ReducedGroebnerBasis(f, 1, gb.order, [scaled], gb.leading, gb.delta)
    seed = Spectrum(f, 1, dict(RS_SEED))
    out1, ops1 = _extend_ops(seed, gb)
    out2, ops2 = _extend_ops(seed, gb2)
    assert out1.values != out2.values and ops1 == ops2


def test_a_basis_builds_its_plan_once(hermitian, rng, plans):
    """Two extends and a canonical_iso on one basis build one plan, on the
    first extension; a fresh equal basis builds its own and counts the
    same."""
    f, psi = hermitian.field, hermitian.psi
    gb, delta = vanishing_gb(psi, hermitian.order)
    assert plans == [] and gb._plan is None
    h = Spectrum(f, 2, {d: rng.randrange(-1, f.q - 1) for d in delta.members})
    first, ops = _extend_ops(h, gb)
    assert plans == [gb]
    again, again_ops = _extend_ops(h, gb)
    word = canonical_iso(h, gb, psi)
    assert plans == [gb]
    assert again.values == first.values and again_ops == ops > 0
    assert proper_transform(word, delta).values == h.values
    fresh, _ = vanishing_gb(psi, hermitian.order)
    assert fresh is not gb and fresh.elements == gb.elements and fresh._plan is None
    out, fresh_ops = _extend_ops(h, fresh)
    assert plans == [gb, fresh] and fresh._plan is not gb._plan
    assert out.values == first.values and fresh_ops == ops


def test_threads_build_one_plan_per_basis(hcrs, rng, plans):
    """Six threads whose first extensions on one fresh basis meet at a
    barrier, under a short switch interval, build its plan once and agree
    with the scalar oracle; three rounds, each on a fresh basis."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            gb, delta = vanishing_gb(hcrs.psi, hcrs.order)
            seeds = [Spectrum(hcrs.field, 2, {d: rng.randrange(-1, 8) for d in delta.members})
                     for _ in range(6)]
            got = [None] * len(seeds)
            start = threading.Barrier(len(seeds), timeout=30)

            def run(k):
                start.wait()
                got[k] = extend(seeds[k], gb)

            threads = [threading.Thread(target=run, args=(k,)) for k in range(len(seeds))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert plans.count(gb) == 1
            assert all(g.values == reference.extend(s, gb).values for g, s in zip(got, seeds))
    finally:
        sys.setswitchinterval(old)
    assert len(plans) == 3


def test_only_an_extension_builds_a_plan(rng, plans):
    """Building a code, vanishing_gb, systematic_basis, and every decode
    and encode under the generator's budget extend nothing, so they
    build no plan."""
    from avcodes.codes import PRESET_CONFIGS, encode_nonsystematic
    from avcodes.decoder import decode_info, decode_word, systematic_basis, systematic_encode
    from avcodes.golden import HERM_SYS_PHI
    from test_decoder import corrupt, random_info

    code = code_from_config(PRESET_CONFIGS["hermitian"])
    vanishing_gb(code.psi, code.order)
    phi = PointSet(code.field, 2, HERM_SYS_PHI)
    systematic_basis(phi, code)
    for n_erase, n_err in ((0, 0), (1, 0), (0, 2), (2, 2), (6, 0)):
        h = random_info(code, rng)
        cw = encode_nonsystematic(h, code)
        r, phi1 = corrupt(code, cw, n_erase, n_err, rng)
        assert decode_info(r, phi1, code).values == h.values
        assert decode_word(r, phi1, code).codeword.values == cw.values
    info = Word(code.field, 2, {p: rng.randrange(-1, 8) for p in code.psi.points
                                if p not in set(phi.points)})
    word = systematic_encode(info, phi, code)
    assert decode_word(word, phi, code).codeword.values == word.values
    assert plans == []


def test_extend_plan_key_holds_tails_outside_the_seed_set(f9, rng):
    # y^2 + c*g_(2,0) is another ideal element of lead (0,2), with the
    # non-seed x^2 in its tail: its basis's plan must read that coefficient
    pts = PointSet(f9, 2, ((-1, -1), (0, -1), (-1, 0)))
    order = MonomialOrder("grlex")
    gb, delta = vanishing_gb(pts, order)
    assert gb.leading == [(2, 0), (1, 1), (0, 2)]
    g0, g2 = gb.elements[0].terms, gb.elements[2].terms
    mixed = Polynomial(f9, 2, {e: f9.add(g2.get(e, ZERO), f9.mul(3, g0.get(e, ZERO)))
                               for e in {**g0, **g2}})
    assert (2, 0) in mixed.terms and (2, 0) not in delta
    gb2 = ReducedGroebnerBasis(f9, 2, order, gb.elements[:2] + [mixed], gb.leading, delta)
    assert reference.tails_precede_leads(gb2)
    c = Word(f9, 2, {p: rng.randrange(-1, 8) for p in pts.points})
    seed = proper_transform(c, delta)
    padded = Word(f9, 2, {w: c.values.get(w, ZERO) for w in omega_space(f9, 2)})
    assert extend(seed, gb).values == dft(padded).values
    assert extend(seed, gb2).values == dft(padded).values


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


def test_extend_plans_match_transform(plans):
    worklist = []

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
            built = len(plans)
            assert extend(seed, basis).values == want  # builds the basis's plan
            assert extend(seed, basis).values == want  # reuses it
            assert plans[built:] == [basis]
        worklist.append(not reference.tails_precede_leads(gb_b))

    check()
    # the check-set families include forward-referencing (worklist) ones
    assert any(worklist) and not all(worklist)


# GF(2^10) is above DENSE_Q: the scalar reference adds by Zech logarithms
REFERENCE_FIELDS = {**PLAN_FIELDS, 25: Field(5, 2, (2, 1, 1)), 27: Field(3, 3, (1, 2, 0, 1)),
                    1024: Field(2, 10, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1))}


def test_extend_matches_scalar_reference():
    """Values and exact op counts of extend against the scalar checks, on
    vanishing-ideal and check-set families over GF(4)..GF(27), N in
    {1, 2, 3} with q^N <= 729, and over GF(2^10) at N = 1, with the plan
    built and reused."""
    worklist = []
    zech = []

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(REFERENCE_FIELDS)), st.sampled_from([1, 2, 3]),
           st.integers(0, 2 ** 32))
    def check(q, ndim, seed):
        assume(q ** ndim <= 729 or (q, ndim) == (1024, 1))
        f = REFERENCE_FIELDS[q]
        zech.append(f.q > DENSE_Q)
        rnd = random.Random(seed)
        families = _random_families(f, ndim, rnd)
        for basis in families:
            worklist.append(not reference.tails_precede_leads(basis))
            seed_h = Spectrum(f, ndim, {d: rnd.randrange(-1, q - 1) for d in basis.delta.members})
            want, ops = _extend_ops(seed_h, basis, reference.extend)
            for _ in range(2):  # the plan is built, then reused
                got, got_ops = _extend_ops(seed_h, basis)
                assert got.values == want.values and got_ops == ops

    check()
    assert any(worklist) and not all(worklist)
    assert any(zech) and not all(zech)


def _assert_plan_matches_reference(gb):
    """The one worklist schedule of the basis's plan against the scalar
    oracle's two schedules, and the coefficients and count read into the
    plan; returns whether the family is a worklist one."""
    plan = _extension_plan(gb)
    _, _, tails, program, checks = reference._extension_plan(*reference.plan_args(gb))
    swept = _swept(plan, tails)
    assert len(swept) == len(program)
    assert {s: rec for s, *rec in swept} == {s: rec for s, *rec in program}
    got = _unpack(tails, plan.check_elems, plan.check_slots)
    assert got == checks
    # no check repeats the recurrence that set its value, and each
    # recurrence is counted once
    assert not set(swept) & set(got)
    assert plan.ops == sum(2 * len(tails[w]) + 1 for _, w, _ in program + checks)
    # each element's coefficients at its sorted tail exponents, padded
    # with zero, and minus them
    f = gb.field
    for g, tail, row, minus in zip(gb.elements, tails, plan.coeffs, plan.minus):
        want = [ONE] + [g.terms[d] for d in tail]
        assert f.np_codes(row) == want + [ZERO] * (len(row) - len(want))
        assert f.np_codes(minus) == [f.neg(c) for c in f.np_codes(row[1:])]
    return not reference.tails_precede_leads(gb)


def _unpack(tails, elems, slots):
    """Packed recurrences as (slot, element, reference slots), element w
    reading ``tails[w]``."""
    return [(int(row[0]), int(w), tuple(row[1:1 + len(tails[w])].tolist()))
            for row, w in zip(slots, elems)]


def _swept(plan, tails):
    """The recurrences that set the plan's values, level by level.  Each
    level reads only seeds and slots set at earlier levels, at least one
    of them at the level just before, and the levels set every slot of A
    outside the seeds once."""
    level = {s: 0 for _, s in plan.seeds}
    out = []
    for depth, (elems, slots) in enumerate(plan.levels, 1):
        recs = _unpack(tails, elems, slots)
        assert recs
        for _, _, refs in recs:
            assert all(r in level for r in refs)
            assert 1 + max(map(level.get, refs), default=0) == depth
        level.update((s, depth) for s, _, _ in recs)
        out.extend(recs)
    assert len(level) == len(plan.indices) == len(plan.seeds) + len(out)
    return out


def _preset_families(name):
    """The code's basis, the bases of located sets of 1..3 points and a
    check-set family on a systematic Phi (hcrs's golden one
    forward-references)."""
    from avcodes.decoder import check_systematic_support, systematic_basis

    code = code_from_config(HERM16) if name == "herm16" else preset(name)
    f, rnd = code.field, random.Random(7)
    families = [code.gb] + [vanishing_gb(PointSet(f, code.ndim, tuple(rnd.sample(code.psi.points, k))),
                                         code.order)[0] for k in (1, 2, 3)]
    phi = PointSet(f, code.ndim, HCRS_SYS_PHI) if name == "hcrs" else None
    while phi is None or not check_systematic_support(phi, code):
        phi = PointSet(f, code.ndim, tuple(rnd.sample(code.psi.points, len(code.b_list))))
    families.append(systematic_basis(phi, code))
    return families


def _random_families(f, ndim, rnd):
    """The basis of 2..10 random points of Omega under lex or grlex, and
    the check-set family on a random part of its delta set when the
    points carry one."""
    omega = omega_space(f, ndim)
    pts = rnd.sample(omega, rnd.randrange(2, min(10, len(omega)) + 1))
    order = MonomialOrder(rnd.choice(["lex", "grlex"]))
    gb, delta = vanishing_gb(PointSet(f, ndim, tuple(pts)), order)
    b_list = rnd.sample(order.sort(delta.members), rnd.randrange(1, len(delta)))
    try:
        return [gb, check_set_basis(PointSet(f, ndim, tuple(pts[:len(b_list)])), b_list, order)]
    except IdealError:
        return [gb]


def _random_plan_cases(assert_plan):
    """Run ``assert_plan(basis)`` on random families over GF(4)..GF(27),
    N in {1, 2, 3} with q^N <= 729; returns what it returned, one entry
    per plan."""
    out = []
    fields = {q: f for q, f in REFERENCE_FIELDS.items() if q <= 27}

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(fields)), st.sampled_from([1, 2, 3]), st.integers(0, 2 ** 32))
    def check(q, ndim, seed):
        assume(q ** ndim <= 729)
        f, rnd = fields[q], random.Random(seed)
        out.extend(map(assert_plan, _random_families(f, ndim, rnd)))

    check()
    return out


@pytest.mark.parametrize("name", ["rs-like", "hermitian", "hcrs", "herm16"])
def test_plans_match_the_scalar_schedule_on_presets(name):
    worklist = [_assert_plan_matches_reference(gb) for gb in _preset_families(name)]
    assert any(worklist) == (name == "hcrs")


@pytest.mark.parametrize("name", ["rs-like", "hermitian", "hcrs", "herm16"])
def test_program_reads_each_element_at_its_tail(name):
    """Every recurrence of a plan, swept or checked, reads its element at
    the exact tail: no seed exponent without a term in it."""
    for gb in _preset_families(name):
        plan = _extension_plan(gb)
        for elems, slots in plan.levels + ((plan.check_elems, plan.check_slots),):
            width = [1 + len(gb._tails[w]) for w in elems.tolist()]
            assert all((row[k:] == len(plan.indices)).all()
                       and (row[:k] < len(plan.indices)).all()
                       for row, k in zip(slots, width))


@pytest.mark.parametrize("name", ["rs-like", "hermitian", "hcrs", "herm16"])
def test_vanishing_basis_sweeps_all_of_a_for_any_target(name):
    """An extend gives all of A, with the scalar oracle's values and
    count, on the first call and the repeated one, on every preset
    family."""
    rnd = random.Random(name)
    for gb in _preset_families(name):
        seed = Spectrum(gb.field, gb.ndim, {d: rnd.randrange(-1, gb.field.q - 1)
                                            for d in gb.delta.members})
        want, ops = _extend_ops(seed, gb, reference.extend)
        assert set(want.values) == set(index_space(gb.field, gb.ndim))
        for _ in range(2):
            got, got_ops = _extend_ops(seed, gb)
            assert got.values == want.values and got_ops == ops


def test_extend_matches_scalar_reference_on_herm64():
    """The n = 512 GF(64) Hermitian code's basis over all of A, beyond the
    q^N <= 729 of the hypothesis sweep: values and the exact count
    against the scalar oracle."""
    code = code_from_config(HERM64)
    f, rnd = code.field, random.Random(64)
    seed = Spectrum(f, 2, {d: rnd.randrange(-1, f.q - 1) for d in code.gb.delta.members})
    want, ops = _extend_ops(seed, code.gb, reference.extend)
    got, got_ops = _extend_ops(seed, code.gb)
    assert got.values == want.values and got_ops == ops == 17920


@pytest.mark.parametrize("name,depth", [("hermitian", 3), ("herm16", 4), ("herm64", 8)])
def test_hermitian_basis_plan_depth(name, depth):
    """The dependency levels of a Hermitian code's basis over all of A,
    each one numpy product of the sweep."""
    configs = {"herm16": HERM16, "herm64": HERM64}
    code = code_from_config(configs[name]) if name in configs else preset(name)
    plan = _extension_plan(code.gb)
    assert len(plan.levels) == depth
    assert len(_swept(plan, reference.plan_args(code.gb)[-1])) == len(plan.indices) - code.n


def test_plans_match_the_scalar_schedule_on_random_bases():
    worklist = _random_plan_cases(_assert_plan_matches_reference)
    assert any(worklist) and not all(worklist)


def _assert_shortest_register(gb):
    """On a family whose tails precede its leads, where every reference
    precedes its index, each index is set by the first of its admissible
    recurrences in the order (tail terms, lead, element).  Returns the
    coefficients the sweep reads, None for any other family."""
    plan = _extension_plan(gb)
    if not reference.tails_precede_leads(gb):
        return None
    key = gb.order.key
    admissible = [w for w, aw in enumerate(gb.leading) if max(aw) < gb.field.q]
    width = {w: len(gb._tails[w]) for w in admissible}
    rank = sorted(admissible, key=lambda w: (width[w], key(gb.leading[w]), w))
    swept = _swept(plan, reference.plan_args(gb)[-1])
    for s, w, _ in swept:
        assert w == next(v for v in rank if dominates(plan.indices[s], gb.leading[v]))
    return sum(width[w] for _, w, _ in swept)


@pytest.mark.parametrize("name", ["rs-like", "hermitian", "hcrs", "herm16", "random"])
def test_program_takes_the_shortest_register(name):
    """The preset families and random bases of both kinds, read without
    the scalar oracle; the sweep's reads on herm16's Phi family are
    pinned."""
    if name == "random":
        reads = _random_plan_cases(_assert_shortest_register)
        assert any(r is None for r in reads) and not all(r is None for r in reads)
        return
    reads = [_assert_shortest_register(gb) for gb in _preset_families(name)]
    assert (None in reads) == (name == "hcrs")
    if name == "herm16":
        # the Phi family over all of A: its elements have 15, 15, 13, 13
        # and 2 tail terms, so y^4 of the curve equation y^4 + y + x^5
        # goes first and sets 192 of the 241 indices, and the 13-term
        # x^3 y^2 and x^2 y^3 elements go before the 15-term ones; the
        # first element in basis order, x^6 + ..., would make the sweep
        # read 3,249 coefficients.
        assert reads[-1] == 1065
