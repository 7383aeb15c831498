from itertools import combinations_with_replacement

import pytest

from nexakt.addcat import DomainError, PreconditionError, add_category
from nexakt.complexes import ComplexMorphism, ComplexSeq, complex_from_maps
from nexakt.frob import (Angle, SetupError, angle_cone, angle_from_n_exact,
                         check_frobenius_setup, complete_angle_morphism,
                         cosyzygy, make_angle, rotate_angle, stable_hom,
                         stable_hom_basis, standard_angle, suspension,
                         suspension_morphism, trivial_angle,
                         verify_angle_exact)
from nexakt import addcat, frob, reps, resolutions
from nexakt.presets import nakayama_algebra, nakayama_indecomposables
from nexakt.tilting import brute_force_nct_search
from nexakt.reps import (Morphism, all_injectives, direct_sum, hom_basis,
                         identity_morphism, projective_module, simple_module,
                         zero_module, zero_morphism)

from conftest import (are_isomorphic, complete_to_chain_map,
                      cosyzygy_projection, cyclic6_j2, direct_sum_complexes,
                      identity_complex_morphism, interval_complex,
                      named_modules, preprojective_a2, ref_angle_cone,
                      ref_continuation, ref_suspension_morphism, same_angle,
                      stably_equal, stably_isomorphic_objects)


@pytest.fixture
def pi2_mods(pi2):
    return named_modules(pi2)


def _pi2_ctx(alg, mods):
    """Pi_2 with M = add(P1 + P2 + S1), n = 2, from its named_modules."""
    m = add_category(alg, [mods["P1"], mods["P2"], mods["S1"]], seed=4)
    indecs = [mods["P1"], mods["P2"], mods["S1"], mods["S2"]]
    return check_frobenius_setup(alg, m, 2, indecs, seed=4)


@pytest.fixture
def ctx(pi2, pi2_mods):
    return _pi2_ctx(pi2, pi2_mods)


def test_setup_passes_for_pi2(ctx):
    assert ctx.n == 2
    assert ctx.nct_report.ok


def test_setup_rejects_non_selfinjective(a3):
    p = [projective_module(a3, v) for v in "012"]
    s1, s2 = simple_module(a3, "1"), simple_module(a3, "2")
    m = add_category(a3, p + [s2], seed=1)
    indecs = p + [s1, s2]
    with pytest.raises(SetupError):
        check_frobenius_setup(a3, m, 2, indecs, seed=1)


def test_setup_one_vertex_semisimple():
    from nexakt.fp import FieldSpec
    from nexakt.quivers import Quiver, build_algebra
    alg = build_algebra(Quiver.build(["*"], []), [], 1, FieldSpec(101))
    m = add_category(alg, [simple_module(alg, "*")], seed=0)
    ctx = check_frobenius_setup(alg, m, 3, [simple_module(alg, "*")], seed=0)
    assert ctx.nct_report.ok


def test_cosyzygies(ctx, pi2_mods):
    s1 = pi2_mods["S1"]
    assert are_isomorphic(cosyzygy(ctx, s1, 1), pi2_mods["S2"], seed=1)
    assert are_isomorphic(cosyzygy(ctx, s1, 2), s1, seed=1)
    assert cosyzygy(ctx, pi2_mods["P1"], 2).total_dim == 0


def test_cosyzygy_refuses_an_object_outside_add_m_and_a_negative_degree(ctx, pi2_mods):
    with pytest.raises(DomainError, match="cosyzygy input not in add"):
        cosyzygy(ctx, pi2_mods["S2"], 1)
    with pytest.raises(ValueError, match="negative cosyzygy degree"):
        cosyzygy(ctx, pi2_mods["S1"], -1)


def test_suspension_on_objects(ctx, pi2_mods):
    assert are_isomorphic(suspension(ctx, pi2_mods["S1"]), pi2_mods["S1"], seed=2)
    assert suspension(ctx, pi2_mods["P1"]).total_dim == 0
    assert suspension(ctx, zero_module(ctx.algebra)).total_dim == 0


def test_stable_hom_dimensions(ctx, pi2_mods):
    dim_end, ideal, reps = stable_hom_basis(ctx, pi2_mods["S1"], pi2_mods["S1"])
    assert dim_end == 1 and not ideal
    dim_p1, _, _ = stable_hom_basis(ctx, pi2_mods["P1"], pi2_mods["P1"])
    assert dim_p1 == 0
    dim_s1s2, _, _ = stable_hom_basis(ctx, pi2_mods["S1"], pi2_mods["S2"])
    assert dim_s1s2 == 0


def test_suspension_preserves_stable_ranks(ctx):
    # Sigma is an equivalence: stable hom dims match after suspension
    # (projectives suspend to zero and have zero stable homs, so the
    # equality is meaningful and holds across all generator pairs)
    for g in ctx.m.generators:
        for h in ctx.m.generators:
            d1, _, _ = stable_hom_basis(ctx, g, h)
            d2, _, _ = stable_hom_basis(ctx, suspension(ctx, g),
                                        suspension(ctx, h))
            assert d1 == d2


def coresolution_sequence(ctx, pi2_mods):
    """S1 >-> P2 -> P1 ->> S1 as a verified 2-exact sequence."""
    from nexakt.resolutions import min_injective_coresolution
    s1 = pi2_mods["S1"]
    cores = min_injective_coresolution(s1, 2)
    proj = cosyzygy_projection(s1, 2)
    return complex_from_maps(0, [cores.maps[0], cores.maps[1], proj])


def test_angle_from_n_exact(ctx, pi2_mods):
    x = coresolution_sequence(ctx, pi2_mods)
    angle = angle_from_n_exact(ctx, x)
    dims = [o.dim_vector() for o in angle.objects]
    assert dims == [(1, 0), (1, 1), (1, 1), (1, 0)]
    ok, table = verify_angle_exact(ctx, angle)
    assert ok


def test_angle_from_n_exact_refuses_the_zero_complex(ctx, pi2_mods):
    # S1 -> S1 -> S1 -> S1 with zero maps is not exact, so it induces no
    # angle
    zero = zero_morphism(pi2_mods["S1"], pi2_mods["S1"])
    with pytest.raises(PreconditionError, match="not admissible n-exact"):
        angle_from_n_exact(ctx, complex_from_maps(0, [zero, zero, zero]))


def test_angle_from_padded_n_exact(ctx, pi2_mods):
    # padding with a contractible summand still induces a verified angle
    from nexakt.complexes import pad_complex
    x = coresolution_sequence(ctx, pi2_mods)
    pad = pad_complex(interval_complex(1, pi2_mods["P1"]), 0, 3)
    angle = angle_from_n_exact(ctx, direct_sum_complexes(x, pad))
    ok, _ = verify_angle_exact(ctx, angle)
    assert ok


def test_standard_angle_socle_inclusion(ctx, pi2_mods):
    alpha0 = hom_basis(pi2_mods["S1"], pi2_mods["P2"])[0]
    angle = standard_angle(ctx, alpha0)
    ok, _ = verify_angle_exact(ctx, angle)
    assert ok
    # stably the angle agrees with S1 -> P2 -> P1 -> S1 -> Sigma S1
    assert stably_isomorphic_objects(ctx, angle.objects[3], pi2_mods["S1"])


def test_standard_angle_on_identity(ctx, pi2_mods):
    angle = standard_angle(ctx, identity_morphism(pi2_mods["S1"]))
    ok, _ = verify_angle_exact(ctx, angle)
    assert ok
    # middle objects are stably zero
    for obj in angle.objects[2:-1]:
        assert stably_isomorphic_objects(ctx, obj, zero_module(ctx.algebra))


def test_standard_angle_on_projective_map(ctx, pi2_mods):
    maps = hom_basis(pi2_mods["P2"], pi2_mods["P1"])
    alpha0 = maps[0]
    angle = standard_angle(ctx, alpha0)
    ok, _ = verify_angle_exact(ctx, angle)
    assert ok
    # Sigma P2 = 0, so the closing lands in the zero module
    assert angle.closing.target.total_dim == 0


def _cyclic6_ctx(p=101):
    """C_6/J^2 over F_p with M = add(Lambda + S0 + S2 + S4), n = 2."""
    alg, gens = cyclic6_j2(p)
    return check_frobenius_setup(alg, add_category(alg, gens, seed=0), 2,
                                 nakayama_indecomposables(alg), seed=0)


def test_standard_angles_pass_the_checked_constructor(ctx):
    # every standard angle on a Hom-basis map between two generators is
    # accepted by make_angle and has exact stable Hom sequences
    count = 0
    for c in (ctx, _cyclic6_ctx()):
        gens = c.m.generators
        for g in gens:
            for h in gens:
                for alpha0 in hom_basis(g, h):
                    a = standard_angle(c, alpha0)
                    make_angle(c, a.objects, a.maps, a.closing)
                    assert verify_angle_exact(c, a)[0]
                    count += 1
    assert count == 28


def _angle_nodes(c, a):
    """The objects verify_angle_exact reads: those of a, their Sigma and
    Sigma^2 X^0."""
    return list(a.objects) + [suspension(c, x) for x in a.objects] \
        + [suspension(c, suspension(c, a.objects[0]))]


def _stable_hom_table(c, a):
    """verify_angle_exact's table, recomputed from stable_hom for every
    generator and node, injective ones included, with Sigma of each map
    lifted in full (ref_suspension_morphism): each rank is that of the
    composites h.then(u) in the stable quotient."""
    nodes = _angle_nodes(c, a)
    chain = a.all_maps() + [ref_suspension_morphism(c, u) for u in a.all_maps()]
    table = []
    for gi, g in enumerate(c.m.generators):
        spaces = [stable_hom(c, g, node) for node in nodes]
        ranks = [spaces[k + 1].rank([h.then(u) for h in spaces[k].hom])
                 for k, u in enumerate(chain)]
        for i in range(1, len(nodes) - 1):
            table.append({"generator": gi, "position": i,
                          "stable_dim": spaces[i].dim, "rank_in": ranks[i - 1],
                          "rank_out": ranks[i],
                          "exact": spaces[i].dim - ranks[i] == ranks[i - 1]})
    return table


def test_standard_angle_tables_match_stable_hom(ctx, monkeypatch):
    # the 28 standard angles above and their rotations: the exactness
    # table equals the one read off stable_hom, and a projective-injective
    # generator has only zero rows; the pushout complexes and chain map of
    # each standard angle pass the checked constructors.  An injective
    # node is stably zero too: verify_angle_exact reads no stable Hom(G,
    # node) for it, and its rows are zero and exact
    read = []
    sh = frob.stable_hom
    monkeypatch.setattr(frob, "stable_hom",
                        lambda c, x, y: read.append(y.key) or sh(c, x, y))
    count = zero_rows = node_rows = 0
    for c in (ctx, _cyclic6_ctx()):
        gens = c.m.generators
        injective = [any(are_isomorphic(g, i, 3) for i in all_injectives(c.algebra))
                     for g in gens]
        for g in gens:
            for h in gens:
                for alpha0 in hom_basis(g, h):
                    a = standard_angle(c, alpha0)
                    f = a.pushout_map
                    x, y = (ComplexSeq(z.lo, z.terms, z.diffs)
                            for z in (f.source, f.target))
                    ComplexMorphism(x, y, f.components)
                    for angle in (a, rotate_angle(c, a)):
                        read.clear()
                        ok, table = verify_angle_exact(c, angle)
                        nodes = _angle_nodes(c, angle)
                        zero = {z.key for z in nodes if frob._injective(z)}
                        assert not zero & set(read)
                        assert ok and table == _stable_hom_table(c, angle)
                        for row in table:
                            if injective[row["generator"]]:
                                zero_rows += 1
                            elif nodes[row["position"]].key in zero:
                                node_rows += 1
                            else:
                                continue
                            assert (row["stable_dim"], row["rank_in"],
                                    row["rank_out"], row["exact"]) == (0, 0, 0, True)
                    count += 1
    # 2n + 3 = 7 rows for each of the 280 pairs of an angle or rotation
    # and a projective-injective generator; 780 rows of the other
    # generators sit at an injective node
    assert (count, zero_rows, node_rows) == (28, 280 * 7, 780)


def test_injectivity_is_read_off_the_stored_envelope(monkeypatch):
    # every verify_angle_exact asks _injective of every node, then of every
    # generator; _injective reads the envelope in place in the stored
    # coresolution, so once it is stored no envelope is built and no
    # coresolution copied
    c = _cyclic6_ctx()
    gens = c.m.generators
    a = standard_angle(c, hom_basis(gens[6], gens[5])[0])
    angles = [a, rotate_angle(c, a), standard_angle(c, hom_basis(gens[7], gens[1])[0])]
    tables = [verify_angle_exact(_cyclic6_ctx(), b) for b in angles]
    seen = []
    injective = frob._injective
    monkeypatch.setattr(frob, "_injective",
                        lambda x: seen.append(x) or injective(x))
    for i, b in enumerate(angles):
        seen.clear()
        assert verify_angle_exact(c, b) == tables[i]
        nodes = _angle_nodes(c, b)
        assert len(seen) == len(nodes) + len(gens)
        assert all(x.same_as(y) for x, y in zip(seen, nodes))
        assert all(x is g for x, g in zip(seen[len(nodes):], gens))
    reads = []
    for name in ("_cut", "injective_envelope"):
        monkeypatch.setattr(resolutions, name, lambda *args, name=name,
                            read=getattr(resolutions, name): reads.append(name)
                            or read(*args))
    # the projectives of a selfinjective algebra are injective, S_0, S_2
    # and S_4 are not
    assert [injective(g) for g in gens] == [True] * 6 + [False] * 3
    assert all(frob._envelope(x) is resolutions._injective_chain(x, 1).maps[0]
               for x in gens)
    assert reads == []


def test_standard_angle_refuses_endpoints_outside_add_m(ctx, pi2_mods):
    s2 = pi2_mods["S2"]
    for alpha0 in (hom_basis(s2, pi2_mods["P1"])[0],
                   hom_basis(pi2_mods["P2"], s2)[0]):
        with pytest.raises(DomainError):
            standard_angle(ctx, alpha0)


def test_trivial_angle_verifies(ctx, pi2_mods):
    angle = trivial_angle(ctx, pi2_mods["S1"])
    ok, _ = verify_angle_exact(ctx, angle)
    assert ok


def test_broken_angle_fails(ctx, pi2_mods):
    x = coresolution_sequence(ctx, pi2_mods)
    angle = angle_from_n_exact(ctx, x)
    broken = type(angle)(angle.objects, angle.maps,
                         zero_morphism(angle.objects[-1], angle.closing.target),
                         angle.pushout_map)
    ok, _ = verify_angle_exact(ctx, broken)
    assert not ok


@pytest.mark.parametrize("k", [0, 1, 2])
def test_make_angle_names_the_composite_that_is_not_stably_zero(ctx, pi2_mods, k):
    # S1 -> S1 -> S1 -> S1 -> Sigma S1 (Sigma S1 = S1 on Pi_2, n = 2) with
    # one nonzero map, at position k + 1, is an angle: every consecutive
    # composite is zero.  Replacing map k by the identity makes composite
    # k a stable isomorphism of S1, and make_angle refuses naming k.
    s1 = pi2_mods["S1"]
    sx0 = suspension(ctx, s1)
    iso = [identity_morphism(s1)] * 3 + hom_basis(s1, sx0)[:1]
    zero = [zero_morphism(s1, s1)] * 3 + [zero_morphism(s1, sx0)]
    chain = [iso[i] if i == k + 1 else zero[i] for i in range(4)]
    make_angle(ctx, [s1] * 4, chain[:3], chain[3])
    chain[k] = iso[k]
    with pytest.raises(ValueError, match=f"composite at {k} not stably zero"):
        make_angle(ctx, [s1] * 4, chain[:3], chain[3])


def test_make_angle_refuses_a_map_between_the_wrong_objects(ctx, pi2_mods):
    # the reproducer: map 0 starts at P1, not at object 0 = S1.  make_angle
    # returned an Angle, and verify_angle_exact raised a bare
    # "non-composable morphisms"; the refusal now names the position
    s1, p1 = pi2_mods["S1"], pi2_mods["P1"]
    sx0 = suspension(ctx, s1)
    maps = [zero_morphism(p1, s1)] + [zero_morphism(s1, s1)] * 2
    with pytest.raises(ValueError, match="angle map 0 does not run from object 0 "
                                         "to object 1"):
        make_angle(ctx, [s1] * 4, maps, zero_morphism(s1, sx0))
    maps = [zero_morphism(s1, s1), zero_morphism(s1, p1), zero_morphism(s1, s1)]
    with pytest.raises(ValueError, match="angle map 1 does not run"):
        make_angle(ctx, [s1] * 4, maps, zero_morphism(s1, sx0))
    # a closing map that starts elsewhere than object n + 1 = 3
    maps = [zero_morphism(s1, s1)] * 3
    with pytest.raises(ValueError, match="closing morphism must start at object 3"):
        make_angle(ctx, [s1] * 4, maps, zero_morphism(p1, sx0))
    # endpoints are compared by content: S1 built again is object 0
    again = simple_module(ctx.algebra, "1")
    make_angle(ctx, [s1] * 4, [zero_morphism(again, s1)] + maps[1:],
               zero_morphism(s1, sx0))


def test_rotation_of_trivial_angle(ctx, pi2_mods):
    angle = trivial_angle(ctx, pi2_mods["S1"])
    rot = rotate_angle(ctx, angle)
    ok, _ = verify_angle_exact(ctx, rot)
    assert ok


def test_rotation_of_standard_angle(ctx, pi2_mods):
    alpha0 = hom_basis(pi2_mods["S1"], pi2_mods["P2"])[0]
    angle = standard_angle(ctx, alpha0)
    rot = rotate_angle(ctx, angle)
    ok, _ = verify_angle_exact(ctx, rot)
    assert ok


def test_rotation_solves_no_hom_space_of_a_consecutive_composite(ctx, monkeypatch):
    # make_angle tests each consecutive composite u through the ideal rows
    # of stable Hom(u.source, u.target) alone, Hom(E, u.target) for the
    # envelope u.source -> E, so rotating a standard angle and checking the
    # rotation solves Hom(u.source, u.target) for no composite make_angle
    # asks about, that is none with a source that is not injective
    # (frob._injective).  Of the 21 composites of the 7 rotated standard
    # angles, 4 have such a source; counted once per content pair within
    # each angle, they are 3
    solved = []
    solve = reps._solve_hom
    monkeypatch.setattr(reps, "_solve_hom",
                        lambda m, n: solved.append((m.key, n.key)) or solve(m, n))
    gens = ctx.m.generators
    unread = 0
    for alpha0 in (f for g in gens for h in gens for f in hom_basis(g, h)):
        angle = standard_angle(ctx, alpha0)
        solved.clear()
        rot = rotate_angle(ctx, angle)
        make_angle(ctx, rot.objects, rot.maps, rot.closing)
        chain = rot.all_maps()
        pairs = {(u.source.key, u.target.key)
                 for u in map(Morphism.then, chain, chain[1:])
                 if not frob._injective(u.source)}
        assert not pairs & set(solved)
        unread += len(pairs)
    assert unread == 3


def test_rotation_reads_no_stable_hom_out_of_an_injective(ctx, monkeypatch):
    # a map out of an injective is stably zero, so make_angle asks no
    # stable Hom space for a consecutive composite with an injective
    # source (its envelope, a mono, reaches its dimension vector).  Of the
    # 21 composites of the 7 rotated standard angles, 17 have one, among
    # them P1 + P2 in a basis other than its envelope's
    read = []
    sh = frob.stable_hom
    monkeypatch.setattr(frob, "stable_hom",
                        lambda c, x, y: read.append(x.key) or sh(c, x, y))
    gens = ctx.m.generators
    angles = composites = 0
    for alpha0 in (f for g in gens for h in gens for f in hom_basis(g, h)):
        angle = standard_angle(ctx, alpha0)
        read.clear()
        rot = rotate_angle(ctx, angle)
        make_angle(ctx, rot.objects, rot.maps, rot.closing)
        chain = rot.all_maps()
        injective = {u.source.key for u in map(Morphism.then, chain, chain[1:])
                     if frob._envelope(u.source).target.dim_vector()
                     == u.source.dim_vector()}
        assert not injective & set(read)
        angles += 1
        composites += sum(f.source.key in injective for f in chain[:-1])
    assert (angles, composites) == (7, 17)


def test_make_angle_reads_no_stable_hom_into_an_injective(ctx, pi2_mods,
                                                          monkeypatch):
    # a map into an injective is stably zero too, so make_angle asks no
    # stable Hom space for a consecutive composite with an injective
    # target.  Of the 42 composites of the 7 standard angles and their
    # rotations, 9 have an injective target and a source that is not
    # injective, and none is read.  The zero angle S1 -> S1 -> S1 -> S1 ->
    # Sigma S1 has no injective end, so each of its 3 composites is read
    gens = ctx.m.generators
    angles = []
    for alpha0 in (f for g in gens for h in gens for f in hom_basis(g, h)):
        a = standard_angle(ctx, alpha0)
        angles += [a, rotate_angle(ctx, a)]
    s1 = pi2_mods["S1"]
    angles.append(Angle([s1] * 4, [zero_morphism(s1, s1)] * 3,
                        zero_morphism(s1, suspension(ctx, s1))))
    read = []
    sh = frob.stable_hom
    monkeypatch.setattr(frob, "stable_hom",
                        lambda c, x, y: read.append(y.key) or sh(c, x, y))
    composites = into = 0
    for angle in angles:
        make_angle(ctx, angle.objects, angle.maps, angle.closing)
        chain = angle.all_maps()
        us = list(map(Morphism.then, chain, chain[1:]))
        injective = {u.target.key for u in us if frob._injective(u.target)}
        assert not injective & set(read)
        composites += len(us)
        into += sum(u.target.key in injective and not frob._injective(u.source)
                    for u in us)
    assert (composites, into, len(read)) == (45, 9, 3)


def test_four_fold_rotation_suspends(ctx, pi2_mods):
    alpha0 = hom_basis(pi2_mods["S1"], pi2_mods["P2"])[0]
    angle = standard_angle(ctx, alpha0)
    rot = angle
    for _ in range(4):
        rot = rotate_angle(ctx, rot)
    for orig, shifted in zip(angle.objects, rot.objects):
        assert stably_isomorphic_objects(ctx, suspension(ctx, orig), shifted)


def test_completion_by_identity(ctx, pi2_mods):
    alpha0 = hom_basis(pi2_mods["S1"], pi2_mods["P2"])[0]
    a = standard_angle(ctx, alpha0)
    phi = complete_angle_morphism(ctx, a, a,
                                  identity_morphism(a.objects[0]),
                                  identity_morphism(a.objects[1]))
    assert len(phi.components) == ctx.n + 2
    # squares commute stably
    for k in range(ctx.n + 1):
        lhs = phi.components[k].then(a.all_maps()[k])
        rhs = a.all_maps()[k].then(phi.components[k + 1])
        assert stably_equal(lhs, rhs)


def test_completion_rejects_noncommuting_square(ctx, pi2_mods):
    # against b starting with the identity of S1, the square
    # (id, 0) has stably nonzero defect -id_{S1}
    a = standard_angle(ctx, hom_basis(pi2_mods["S1"], pi2_mods["P2"])[0])
    b = standard_angle(ctx, identity_morphism(pi2_mods["S1"]))
    with pytest.raises(PreconditionError):
        complete_angle_morphism(ctx, a, b,
                                identity_morphism(pi2_mods["S1"]),
                                zero_morphism(a.objects[1], b.objects[1]))


def test_angle_cone_of_identity(ctx, pi2_mods):
    alpha0 = hom_basis(pi2_mods["S1"], pi2_mods["P2"])[0]
    a = standard_angle(ctx, alpha0)
    phi = complete_angle_morphism(ctx, a, a,
                                  identity_morphism(a.objects[0]),
                                  identity_morphism(a.objects[1]))
    cone, table = angle_cone(ctx, phi)
    assert cone.n == ctx.n
    assert all(rec["exact"] for rec in table)


def test_suspension_morphism_of_identity(ctx, pi2_mods):
    s1 = pi2_mods["S1"]
    sid = suspension_morphism(ctx, identity_morphism(s1))
    assert stably_equal(sid, identity_morphism(suspension(ctx, s1)))


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_suspension_morphism_matches_the_full_lift(p, monkeypatch):
    # Sigma of every Hom-basis map between two generators, and between two
    # sums of two generators, of Pi_2 and C_6/J^2 equals the full lift
    # (ref_suspension_morphism): the same Sigma objects and entries.  A map
    # with an end whose Sigma is zero returns the zero map and solves no
    # factorization (reps.factor_through, as _lift_along reads it); of the
    # 2,240 maps, 1,620 take that path
    calls = []
    factor = addcat.factor_through
    monkeypatch.setattr(addcat, "factor_through",
                        lambda f, g: calls.append(g) or factor(f, g))
    alg = preprojective_a2(p)
    maps = zero_path = 0
    for c in (_pi2_ctx(alg, named_modules(alg)), _cyclic6_ctx(p)):
        gens = list(c.m.generators)
        sums = [direct_sum([g, h]).module
                for g, h in combinations_with_replacement(gens, 2)]
        for objs in (gens, sums):
            for x in objs:
                for y in objs:
                    zero = suspension(c, x).is_zero() or suspension(c, y).is_zero()
                    for f in hom_basis(x, y):
                        calls.clear()
                        got = suspension_morphism(c, f)
                        assert (not calls) == zero
                        want = ref_suspension_morphism(c, f)
                        assert got.source is want.source
                        assert got.target is want.target
                        assert got.vectorize() == want.vectorize()
                        maps += 1
                        zero_path += zero
    assert (maps, zero_path) == (2240, 1620)


def test_identity_cone_with_projective_injective_x0():
    # Hom(I^2(X^0), Y^2) = 0 for X^0 = P_0, which is its own envelope; the
    # zero h^2 must still be kept for the step at degree 2
    ctx = _cyclic6_ctx()
    gens = ctx.m.generators
    a = standard_angle(ctx, hom_basis(gens[0], gens[6])[0])   # P_0 -> S_0
    phi = complete_angle_morphism(ctx, a, a,
                                  identity_morphism(a.objects[0]),
                                  identity_morphism(a.objects[1]))
    _, table = angle_cone(ctx, phi)
    assert all(rec["exact"] for rec in table)


def _standard_completions(ctx):
    """The standard angle a of each of the first two Hom-basis maps alpha0
    between the generators and two sums, with its completion (id, id)
    against a and its completions (id, u), for u the first Hom-basis map
    X^1 -> G of each generator G, against the standard angle of alpha0
    followed by u."""
    gens = list(ctx.m.generators)
    objs = gens + [direct_sum(gens[:2]).module, direct_sum(gens[-2:]).module]
    for src in objs:
        for tgt in objs:
            for alpha in hom_basis(src, tgt)[:2]:
                a = standard_angle(ctx, alpha)
                x0 = identity_morphism(a.objects[0])
                by_u = [complete_angle_morphism(
                            ctx, a, standard_angle(ctx, alpha.then(u)), x0, u)
                        for g in gens for u in hom_basis(a.objects[1], g)[:1]]
                yield a, complete_angle_morphism(
                    ctx, a, a, x0, identity_morphism(a.objects[1])), by_u


def _lifted_maps(ctx):
    """Every map the lifting solvers return on _standard_completions:
    Sigma on each angle map, and the components of each completion."""
    out = []
    for a, by_id, by_u in _standard_completions(ctx):
        out += [suspension_morphism(ctx, u) for u in a.all_maps()]
        for phi in [by_id] + by_u:
            out += phi.components + [phi.suspended0]
    return out


def _nakayama_ctx(m, bound, n, p, entries):
    """C_m/J^bound over F_p at n with M the Nakayama list entries given,
    all of them when entries is None."""
    alg = nakayama_algebra(m, bound, cyclic=True, p=p)
    indecs = nakayama_indecomposables(alg)
    gens = indecs if entries is None else [indecs[i] for i in entries]
    return check_frobenius_setup(alg, add_category(alg, gens), n, indecs)


# angles at odd n, where the closing sign (-1)^n is -1: triangles (n = 1)
# on C_3/J^2 and C_4/J^3 with M every indecomposable, and C_3/J^5 at n = 3
# with M the first of its three 3-CT modules that pass the set-up, the
# Nakayama list entries 0, 3, 4, 9, 14; with the number of Hom-basis maps
# between generators
ODD_N_CASES = [pytest.param(3, 2, 1, 101, None, 15, id="c3-j2-n1"),
               pytest.param(4, 3, 1, 101, None, 56, id="c4-j3-n1")] + [
    pytest.param(3, 5, 3, p, (0, 3, 4, 9, 14), 30, id=f"c3-j5-n3-p{p}")
    for p in (2, 101, 2**31 - 1)]


def _generator_maps(c):
    gens = c.m.generators
    return [f for g in gens for h in gens for f in hom_basis(g, h)]


def _identity_completion(c, a):
    return complete_angle_morphism(c, a, a, identity_morphism(a.objects[0]),
                                   identity_morphism(a.objects[1]))


@pytest.mark.parametrize("m, bound, n, p, entries, count", ODD_N_CASES)
def test_angles_verify_at_odd_n(m, bound, n, p, entries, count):
    # for every Hom-basis map between generators: its standard angle, the
    # rotation, the rotation of the rotation and the identity cone verify
    c = _nakayama_ctx(m, bound, n, p, entries)
    maps = _generator_maps(c)
    assert len(maps) == count
    for alpha0 in maps:
        a = standard_angle(c, alpha0)
        r = rotate_angle(c, a)
        for angle in (a, r, rotate_angle(c, r)):
            assert verify_angle_exact(c, angle)[0]
        cone, table = angle_cone(c, _identity_completion(c, a))
        assert cone.n == n and all(rec["exact"] for rec in table)


def _assert_continuation_matches_the_reference(c, a):
    # _continued(a, k) is the first n + 3 + k nodes and n + 2 + k maps of
    # the reference, and the rotation its window one step on, closed by
    # (-1)^n Sigma alpha^0
    n = c.n
    nodes, chain = ref_continuation(c, a)
    for k in range(n + 3):
        got_nodes, got_maps = frob._continued(c, a, k)
        assert len(got_nodes) == n + 3 + k and len(got_maps) == n + 2 + k
        assert all(x is y for x, y in zip(got_nodes, nodes))
        assert all(f.source is g.source and f.target is g.target
                   and f.vectorize() == g.vectorize()
                   for f, g in zip(got_maps, chain))
    sign = -1 if n % 2 else 1
    assert same_angle(rotate_angle(c, a), Angle(
        nodes[1:n + 3], chain[1:n + 2], chain[n + 2].scale(sign)))


@pytest.mark.parametrize("m, bound, n, p, entries, count", ODD_N_CASES)
def test_identity_cones_and_continuations_match_the_references(
        m, bound, n, p, entries, count):
    c = _nakayama_ctx(m, bound, n, p, entries)
    for alpha0 in _generator_maps(c):
        a = standard_angle(c, alpha0)
        _assert_continuation_matches_the_reference(c, a)
        phi = _identity_completion(c, a)
        assert same_angle(angle_cone(c, phi)[0], ref_angle_cone(c, phi))


@pytest.mark.parametrize("make, count", [
    (_cyclic6_ctx, 7),
    (lambda: _nakayama_ctx(3, 5, 3, 101, (0, 3, 4, 9, 14)), 8)],
    ids=["c6-j2-n2", "c3-j5-n3"])
def test_angle_cone_builds_only_the_terms_it_keeps(make, count, monkeypatch):
    # a warm identity cone builds the n + 3 sums C^0 .. C^{n+2}, C^0 again
    # for the glue and the sum its stack reads, and n + 5 block maps: the
    # n + 2 differentials, one block per summand of C^0 and the stack; no
    # term outside degrees 0 .. n + 2 is built and then dropped
    from nexakt import complexes
    c = make()
    calls = {"direct_sum": 0, "block_morphism": 0}
    for name in calls:
        made = getattr(reps, name)

        def spy(*args, _made=made, _name=name):
            calls[_name] += 1
            return _made(*args)

        for module in (reps, complexes, frob):
            monkeypatch.setattr(module, name, spy)
    for alpha0 in _generator_maps(c)[:6]:
        phi = _identity_completion(c, standard_angle(c, alpha0))
        angle_cone(c, phi)
        calls.update(direct_sum=0, block_morphism=0)
        cone, table = angle_cone(c, phi)
        assert calls == {"direct_sum": count, "block_morphism": count}
        assert all(rec["exact"] for rec in table)


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_completion_cones_match_the_reference(p):
    # the cones of the (id, id) and (id, u) completions of the
    # _lifted_maps angles on Pi_2 and C_6/J^2 verify and match the
    # reference object for object and entry for entry; 91 and 124 (id, u)
    # cones at each prime
    alg = preprojective_a2(p)
    counts = []
    for c in (_pi2_ctx(alg, named_modules(alg)), _cyclic6_ctx(p)):
        cones = 0
        for a, by_id, by_u in _standard_completions(c):
            _assert_continuation_matches_the_reference(c, a)
            for phi in [by_id] + by_u:
                assert same_angle(angle_cone(c, phi)[0], ref_angle_cone(c, phi))
            cones += len(by_u)
        counts.append(cones)
    assert counts == [91, 124]


def test_lifted_maps_are_pinned(ctx, pi2_mods):
    # one sha256 over every map that Sigma, angle completion, n-exact
    # closing, n-pushout factorization, contraction and comparison
    # homotopies return; the solvers must keep their linear systems, so
    # every returned map keeps its entries
    import hashlib
    from conftest import linear_a3_j2
    from nexakt.addcat import comparison_homotopy, contract, n_cokernel
    from nexakt.complexes import pad_complex
    from nexakt.pushout import n_pushout, pushout_factorization
    maps = _lifted_maps(ctx)
    maps.append(angle_from_n_exact(
        ctx, coresolution_sequence(ctx, pi2_mods)).closing)
    a3 = linear_a3_j2()
    p0, p1, p2 = (projective_module(a3, v) for v in "012")
    s0, s2 = simple_module(a3, "0"), simple_module(a3, "2")
    m3 = add_category(a3, [p0, p1, p2, s2], seed=1)
    upper = complex_from_maps(0, [hom_basis(s0, p1)[0], hom_basis(p1, p2)[0]])
    for f0 in (zero_morphism(s0, zero_module(a3)), hom_basis(s0, p1)[0]):
        _, f = n_pushout(upper, f0, m3)
        p, h = pushout_factorization(f, f)
        maps += list(p.components.values()) + list(h.components.values())
    for c in (p2, p1):
        h = contract(pad_complex(interval_complex(0, c), 0, 3), m3)
        maps += list(h.components.values())
    d0 = hom_basis(s0, p1)[0]
    tail = n_cokernel(d0, m3, 2)
    x = ComplexSeq(0, [s0] + list(tail.terms), [d0] + list(tail.diffs))
    y = direct_sum_complexes(
        x, pad_complex(interval_complex(1, p2), 0, 3))
    corner = Morphism(s0, y.term(0), identity_morphism(s0).components)
    fwd = complete_to_chain_map(x, y, corner)
    back = complete_to_chain_map(
        y, x, Morphism(y.term(0), s0, identity_morphism(s0).components))
    h = comparison_homotopy(fwd.then(back), identity_complex_morphism(x))
    maps += [fwd.component(k) for k in x.degrees()]
    maps += [back.component(k) for k in x.degrees()]
    maps += list(h.components.values())
    digest = hashlib.sha256()
    for f in maps:
        digest.update(repr((f.source.dim_vector(), f.target.dim_vector(),
                            f.vectorize())).encode())
    assert len(maps) == LIFTED_MAP_COUNT
    assert digest.hexdigest() == LIFTED_MAPS_SHA256


LIFTED_MAP_COUNT = 784
LIFTED_MAPS_SHA256 = \
    "9cc0ceff031be84b2165a21a36f9ef2ed241ceb97d8e4a4f43ea04cac16a4297"


def test_trivial_angle_refuses_an_object_outside_add_m(ctx, pi2_mods):
    with pytest.raises(DomainError, match="angle object 0 not in add"):
        trivial_angle(ctx, pi2_mods["S2"])


def test_setup_refuses_a_subcategory_that_is_not_n_cluster_tilting(pi2, pi2_mods):
    # add(P1 + P2) misses S1, which has no Ext^1 into it
    m = add_category(pi2, [pi2_mods["P1"], pi2_mods["P2"]], seed=4)
    indecs = [pi2_mods[k] for k in ("P1", "P2", "S1", "S2")]
    with pytest.raises(SetupError, match="subcategory is not n-cluster-tilting"):
        check_frobenius_setup(pi2, m, 2, indecs, seed=4)


def test_setup_refuses_the_2ct_modules_of_c5_j3():
    # C_5/J^3 has five 2-CT modules (the search's hits), and none is closed
    # under Omega^{-2} and Omega^2: the set-up refuses each, naming the
    # closure that fails and its first generator
    alg = nakayama_algebra(5, 3, cyclic=True)
    indecs = nakayama_indecomposables(alg)
    hits = brute_force_nct_search(alg, 2, indecs)
    failures = []
    for hit in hits:
        m = add_category(alg, [indecs[i] for i in hit])
        with pytest.raises(SetupError) as err:
            check_frobenius_setup(alg, m, 2, indecs)
        failures.append(str(err.value))
    assert failures == ["cosyzygy closure fails at generator 0",
                        "syzygy closure fails at generator 0",
                        "cosyzygy closure fails at generator 0",
                        "cosyzygy closure fails at generator 1",
                        "cosyzygy closure fails at generator 1"]


def _stable_hom_basis_by_rank(c, m1, m2):
    """The reference: each map of the ideal, then of Hom, kept when it
    raises the rank of the coordinate rows kept before it."""
    sh = stable_hom(c, m1, m2)
    basis, rows = [], []
    for f in sh.ideal + sh.hom:
        if reps.rows_rank(rows + [f.vectorize()], m1.algebra.p) > len(rows):
            basis.append(f)
            rows.append(f.vectorize())
    return sh.dim, basis[:sh.ideal_rank], basis[sh.ideal_rank:]


def test_stable_hom_basis_matches_the_rank_loop(ctx):
    # every pair of indecomposables, a generator sum and the zero module,
    # on Pi_2 and on the cyclic Nakayama algebra with six vertices
    pairs = 0
    for c in (ctx, _cyclic6_ctx()):
        mods = list(nakayama_indecomposables(c.algebra))
        mods += [direct_sum(c.m.generators[-2:]).module, zero_module(c.algebra)]
        for m1 in mods:
            for m2 in mods:
                dim, ideal, rest = stable_hom_basis(c, m1, m2)
                want_dim, want_ideal, want_rest = _stable_hom_basis_by_rank(c, m1, m2)
                assert dim == want_dim
                assert [f.vectorize() for f in ideal + rest] == \
                    [f.vectorize() for f in want_ideal + want_rest]
                assert len(ideal) == len(want_ideal)
                pairs += 1
    assert pairs == 6 * 6 + 14 * 14


def test_own_constructions_run_no_checked_constructor(ctx, pi2_mods, a3,
                                                      monkeypatch):
    # n-(co)kernel ladders, a padding, a mapping cone, solved chain maps,
    # the n-pushout factorization and the trivial, induced, rotated and
    # cone angles hold by construction: none runs ComplexSeq(...),
    # ComplexMorphism(...), verify_homotopy or make_angle, and reps imports
    # no solver: kernels and cokernels read their actions with no solve.
    # The inputs are built first, and the results pass the checked
    # constructors afterwards
    from nexakt import complexes, pushout
    from nexakt.addcat import n_cokernel, n_kernel
    from nexakt.complexes import (chain_map_space, mapping_cone, pad_complex,
                                  verify_homotopy)
    from nexakt.pushout import n_pushout, pushout_factorization
    from nexakt.reps import cokernel_morphism
    p0, p1, p2 = (projective_module(a3, v) for v in "012")
    s0, s2 = simple_module(a3, "0"), simple_module(a3, "2")
    m3 = add_category(a3, [p0, p1, p2, s2], seed=1)
    d0 = hom_basis(s0, p1)[0]
    upper = complex_from_maps(0, [d0, hom_basis(p1, p2)[0]])
    exact = coresolution_sequence(ctx, pi2_mods)
    s1 = pi2_mods["S1"]

    def refuse(*args):
        raise AssertionError("a checked constructor ran")

    for cls in (ComplexSeq, ComplexMorphism):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    for mod in (complexes, pushout):
        if hasattr(mod, "verify_homotopy"):
            monkeypatch.setattr(mod, "verify_homotopy", refuse)
    monkeypatch.setattr(frob, "make_angle", refuse)
    assert not {"solve_linear", "kernel_basis"} & set(vars(reps))
    cokernels = [cokernel_morphism(f)[1]
                 for f in (d0, upper.diff(1), hom_basis(p2, s2)[0])]
    _, f = n_pushout(upper, d0, m3)
    complexes_built = [n_cokernel(d0, m3, 2), n_kernel(hom_basis(p2, s2)[0], m3, 2),
                       pad_complex(upper, -1, 3), mapping_cone(f)]
    chain_maps = chain_map_space(upper, upper)
    p, h = pushout_factorization(f, f)
    a = standard_angle(ctx, hom_basis(s1, pi2_mods["P2"])[0])
    phi = complete_angle_morphism(ctx, a, a, identity_morphism(a.objects[0]),
                                  identity_morphism(a.objects[1]))
    angles = [trivial_angle(ctx, s1), angle_from_n_exact(ctx, exact),
              rotate_angle(ctx, a), angle_cone(ctx, phi)[0]]
    monkeypatch.undo()
    for x in complexes_built:
        ComplexSeq(x.lo, x.terms, x.diffs)
    assert len(chain_maps) == 1
    for g in chain_maps + [f, p]:
        ComplexMorphism(g.source, g.target, g.components)
    assert verify_homotopy(f.then(p), f, h)
    for angle in angles:
        make_angle(ctx, angle.objects, angle.maps, angle.closing)
    for proj in cokernels:
        Morphism(proj.source, proj.target, proj.components)


def test_make_angle_refuses_each_malformed_input(ctx, pi2_mods):
    s1, s2, p1 = pi2_mods["S1"], pi2_mods["S2"], pi2_mods["P1"]
    sx0 = suspension(ctx, s1)
    maps = [zero_morphism(s1, s1)] * 3
    with pytest.raises(ValueError, match=r"n\+2 objects and n\+1 morphisms"):
        make_angle(ctx, [s1] * 3, maps, zero_morphism(s1, sx0))
    with pytest.raises(DomainError, match="angle object 0 not in add"):
        make_angle(ctx, [s2] + [s1] * 3,
                   [zero_morphism(s2, s1)] + maps[1:], zero_morphism(s1, sx0))
    with pytest.raises(ValueError, match=r"must land in Sigma X\^0"):
        make_angle(ctx, [s1] * 4, maps, zero_morphism(s1, p1))


def test_completion_refuses_a_rotated_angle(ctx, pi2_mods):
    # a rotated angle keeps no pushout map to factor through
    a = standard_angle(ctx, hom_basis(pi2_mods["S1"], pi2_mods["P2"])[0])
    r = rotate_angle(ctx, a)
    assert r.pushout_map is None
    with pytest.raises(PreconditionError, match="pushout provenance"):
        complete_angle_morphism(ctx, r, r, identity_morphism(r.objects[0]),
                                identity_morphism(r.objects[1]))
