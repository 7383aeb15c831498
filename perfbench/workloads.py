"""The benchmark's workloads: set-up, seeded request lists, execution and
known-answer oracles.

Each workload class has a ``name`` and three methods: ``setup(workdir)``
returns the state the requests run against; ``requests(seed, pass_no)``
returns the request list of one pass, plain JSON-serialisable data made
from the seed and the pass number; and ``run(state, request, workdir)``
executes one request, raises on failure and may return a (label, value)
pair to report, such as a certificate digest.  Executing a request builds
fresh modules from the set-up's generators and calls nexakt's public API.
The library is reached through its module attributes at call time
(``addcat.n_cokernel``, not a name bound at import), so that a traced run
sees every call.

Oracles raise ``WrongAnswer``.  They use only the request itself, facts
about the chosen algebras that hold independently of nexakt (for
radical-square-zero Nakayama algebras an indecomposable is determined by
its dimension vector), and plain F_p arithmetic written here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from collections import Counter, namedtuple

from nexakt import (addcat, cli, complexes, fileio, frob, presets, pushout,
                    quivers, reps, resolutions, tilting)
from nexakt.fp import FieldSpec, Mat


class WrongAnswer(AssertionError):
    """A request returned, but its answer differs from the known one."""


def request_digest(requests) -> str:
    text = json.dumps(requests, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- plain F_p arithmetic for the oracles ---------------------------------


def _composite(f, g, p):
    """Entries of f followed by g, vertex by vertex, computed from the raw
    matrices: (g_v * f_v) for every vertex v."""
    out = {}
    for v, b in f.components.items():
        a = g.components[v]
        n, k, m = a.rows, a.cols, b.cols
        out[v] = tuple(sum(a.entries[i * k + t] * b.entries[t * m + j]
                           for t in range(k)) % p
                       for i in range(n) for j in range(m))
    return out


def _require_zero_composite(f, g, p, what):
    if any(any(x) for x in _composite(f, g, p).values()):
        raise WrongAnswer(f"{what}: composite of consecutive maps is nonzero")


def _require_commuting_square(top, right, left, bottom, p, what):
    """top then right == left then bottom."""
    if _composite(top, right, p) != _composite(left, bottom, p):
        raise WrongAnswer(f"{what}: square does not commute")


# -- helpers shared by the library-request workloads ------------------------


def _twisted(m, rng):
    """An isomorphic copy of m: at every vertex the basis vectors are
    shuffled and scaled by random nonzero scalars.

    A request's modules are sums of a few fixed generators, so without this
    every pass would hand nexakt modules of the same content, and a
    content-keyed cache would answer the later passes from the first.  The
    change moves entries but keeps their number and makes no zero nonzero,
    so the work stays that of the sums themselves.  (A dense change of
    basis also gives new content, but it makes the matrices dense and
    costlier, and it meets defect (c) of the known-defects probe.)"""
    p = m.algebra.p
    change = {}
    for v, d in m.dims.items():
        order = list(range(d))
        rng.shuffle(order)
        change[v] = (order, [rng.randrange(1, p) for _ in range(d)])
    action = {}
    for a in m.algebra.quiver.arrows:
        mat = m.action[a.name]
        (to_row, row_scale), (to_col, col_scale) = (change[a.target],
                                                    change[a.source])
        new = [0] * (mat.rows * mat.cols)
        for i in range(mat.rows):
            for j in range(mat.cols):
                x = mat.entries[i * mat.cols + j]
                if x:
                    new[to_row[i] * mat.cols + to_col[j]] = (
                        x * row_scale[i] * pow(col_scale[j], p - 2, p) % p)
        action[a.name] = Mat(mat.rows, mat.cols, tuple(new), p)
    return reps.Module(m.algebra, dict(m.dims), action)


def _sum(mods, picks, rng):
    """The direct sum of the picked modules, in a random basis."""
    return _twisted(reps.direct_sum([mods[i] for i in picks])[0], rng)


def _random_morphism(src, tgt, coeff_seed, p):
    """A seeded random element of Hom(src, tgt)."""
    basis = reps.hom_basis(src, tgt)
    rng = random.Random(coeff_seed)
    coeffs = [rng.randrange(p) for _ in basis]
    return reps.assemble_from_span(basis, coeffs, src, tgt)


def _picks(rng, pool_size, count):
    return [rng.randrange(pool_size) for _ in range(count)]


def _dims_multiset(pairs):
    out = Counter()
    for dims, count in pairs:
        out[tuple(dims)] += count
    return out


# -- nct-search -------------------------------------------------------------


class NctSearch:
    """`nexakt search nct` through the CLI on K A_{nm+1}/J^2, p = 101."""

    name = "nct-search"
    P = 101
    CASES = ((2, 1), (3, 1), (2, 2), (3, 2))

    @staticmethod
    def expected_dims(n, m):
        """Dimension vectors of Lambda + S_n + ... + S_nm over the sink-first
        linear quiver 0 <- 1 <- ... <- nm: P_0 = S_0, P_i has top i and
        socle i-1."""
        k = n * m + 1

        def unit(*ones):
            return [1 if v in ones else 0 for v in range(k)]

        return ([unit(0)] + [unit(i, i - 1) for i in range(1, k)]
                + [unit(j * n) for j in range(1, m + 1)])

    def setup(self, workdir):
        state = {}
        for n, m in self.CASES:
            alg, _ = presets.gen_linear_An_J2(n, m, p=self.P)
            path = os.path.join(workdir, f"a{n * m + 1}-j2-n{n}.json")
            fileio.dump_algebra(alg, path)
            dims = [list(x.dim_vector())
                    for x in presets.nakayama_indecomposables(alg)]
            hit = []
            for vec in self.expected_dims(n, m):
                where = [i for i, d in enumerate(dims) if d == vec]
                if len(where) != 1:
                    raise RuntimeError(f"indecomposable {vec} not unique")
                hit.append(where[0])
            state[(n, m)] = (path, dims, sorted(hit))
        return state

    def requests(self, seed, pass_no):
        # The seed is the CLI's --seed.  Every pass repeats the same four
        # searches; each loads its algebra from file anew.  The order of the
        # searches stays fixed: it moves the peak RSS by 5%.
        return [{"kind": "search", "n": n, "m": m, "cli_seed": seed}
                for n, m in self.CASES]

    def run(self, state, request, workdir):
        n, m = request["n"], request["m"]
        path, dims, hit = state[(n, m)]
        out = os.path.join(workdir, f"certs-n{n}-m{m}")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["search", "nct", "--algebra", path,
                             "--n", str(n), "--out", out,
                             "--seed", str(request["cli_seed"])])
        if code != 0:
            raise WrongAnswer(f"search exited {code}")
        with open(os.path.join(out, "search-nct.cert.json"), "rb") as fh:
            raw = fh.read()
        cert = json.loads(raw)
        if cert["witnesses"]["indecomposables"] != dims:
            raise WrongAnswer("certificate lists other indecomposables")
        if cert["verdict"] != 1 or cert["witnesses"]["hits"] != [hit]:
            raise WrongAnswer(f"hits {cert['witnesses']['hits']} != [{hit}]")
        return (f"cert sha256 A_{n * m + 1}/J^2 n={n}",
                hashlib.sha256(raw).hexdigest())


# -- addm-certify ---------------------------------------------------------


AddmState = namedtuple("AddmState", "cat gens indecs lam")


def addm_setup(p):
    """K A_9/J^2 and its 2-CT subcategory
    add(Lambda + S_2 + S_4 + S_6 + S_8)."""
    alg, gens = presets.gen_linear_An_J2(2, 4, p=p)
    cat = addcat.add_category(alg, gens, seed=0)
    return AddmState(cat, gens, presets.nakayama_indecomposables(alg),
                     reps.regular_module(alg))


class AddmCertify:
    """Library requests on add(M) over K A_9/J^2 at p = 65537."""

    name = "addm-certify"
    P = 65537
    # One block of the request mix; a pass is BLOCKS blocks plus the two
    # approximations of Lambda.
    BLOCK = ("n_cokernel", "n_cokernel", "n_kernel", "n_kernel",
             "n_pushout", "n_pushout", "left_approx", "left_approx",
             "right_approx", "right_approx", "ext_compare", "ext_compare",
             "ext_compare", "strong_projectivity")
    BLOCKS = 7

    def setup(self, workdir):
        return addm_setup(self.P)

    def requests(self, seed, pass_no):
        # The summands of each object are one fixed draw (sizes cycle per
        # kind); the seed and the pass order them and draw every basis and
        # morphism.  Over F_65537 a random morphism is generic, so every
        # pass asks for the same amount of work on new module content, and
        # pass times compare across seeds.  With seeded summands, one pass
        # took from 4.8 s to 6.5 s over seeds 1-4.
        shapes = random.Random(0)
        rng = random.Random(f"{seed}:{pass_no}")
        made = Counter()
        out = []
        n_gens, n_indecs = 13, 17      # 9 P + S_2..S_8; 9 P + 8 S
        for block in range(self.BLOCKS):
            for kind in self.BLOCK:
                c = made[kind]
                made[kind] += 1
                req = {"kind": kind, "coeffs": rng.randrange(2 ** 31),
                       "basis": rng.randrange(2 ** 31)}
                if kind in ("n_cokernel", "n_kernel", "n_pushout"):
                    req["src"] = _picks(shapes, n_gens, 1 + c % 4)
                    req["tgt"] = _picks(shapes, n_gens, 1 + (c // 4) % 4)
                    if kind == "n_pushout":
                        req["via"] = _picks(shapes, n_gens, 1 + (c + 2) % 4)
                elif kind in ("left_approx", "right_approx"):
                    req["x"] = _picks(shapes, n_indecs, 1 + c % 4)
                elif kind == "ext_compare":
                    req["a"] = _picks(shapes, n_indecs, 1 + c % 2)
                    req["b"] = _picks(shapes, n_gens, 1 + (c // 2) % 2)
                else:
                    req["src"] = _picks(shapes, n_gens, 1 + c % 2)
                    req["tgt"] = _picks(shapes, n_gens, 1 + (c // 2) % 2)
                for key in ("src", "tgt", "via", "x", "a", "b"):
                    if key in req:
                        rng.shuffle(req[key])
                out.append(req)
            if block == self.BLOCKS // 2:
                out.append({"kind": "left_approx_lambda",
                            "basis": rng.randrange(2 ** 31)})
        out.append({"kind": "right_approx_lambda",
                    "basis": rng.randrange(2 ** 31)})
        return out

    def run(self, st, req, workdir):
        p, cat, kind = self.P, st.cat, req["kind"]
        basis = random.Random(req["basis"])
        if kind in ("n_cokernel", "n_kernel", "n_pushout"):
            src = _sum(st.gens, req["src"], basis)
            tgt = _sum(st.gens, req["tgt"], basis)
            d = _random_morphism(src, tgt, req["coeffs"], p)
        if kind == "n_cokernel":
            seq = addcat.n_cokernel(d, cat, 2)
            _require_zero_composite(d, seq.diff(1), p, kind)
            _require_zero_composite(seq.diff(1), seq.diff(2), p, kind)
        elif kind == "n_kernel":
            seq = addcat.n_kernel(d, cat, 2)
            _require_zero_composite(seq.diff(0), seq.diff(1), p, kind)
            _require_zero_composite(seq.diff(1), d, p, kind)
        elif kind == "n_pushout":
            x = complexes.complex_from_maps(
                0, [d, addcat.weak_cokernel(d, cat)])
            via = _sum(st.gens, req["via"], basis)
            f0 = _random_morphism(src, via, req["coeffs"] + 1, p)
            y, f = pushout.n_pushout(x, f0, cat)
            _require_zero_composite(y.diff(0), y.diff(1), p, kind)
            for k in range(2):
                _require_commuting_square(x.diff(k), f.component(k + 1),
                                          f.component(k), y.diff(k), p, kind)
        elif kind in ("left_approx", "right_approx",
                      "left_approx_lambda", "right_approx_lambda"):
            x = (_twisted(st.lam, basis) if kind.endswith("lambda")
                 else _sum(st.indecs, req["x"], basis))
            if kind.startswith("left"):
                f = addcat.minimal_left_approximation(x, cat)
                end = f.source
            else:
                f = addcat.minimal_right_approximation(x, cat)
                end = f.target
            if end.dims != x.dims:
                raise WrongAnswer(f"{kind}: approximation of another module")
        elif kind == "ext_compare":
            a = _sum(st.indecs, req["a"], basis)
            b = _sum(st.gens, req["b"], basis)
            via_m = tilting.ext_via_approx_resolution(a, b, cat, 1, 2)
            direct = resolutions.ext_dim(a, b, 1)
            if via_m != direct:
                raise WrongAnswer(f"Ext^1 via add(M) {via_m} != {direct}")
        elif kind == "strong_projectivity":
            src = _sum(st.gens, req["src"], basis)
            tgt = _sum(st.gens, req["tgt"], basis)
            f = _random_morphism(src, tgt, req["coeffs"], p)
            ok, _ = tilting.strong_projectivity_check(
                _twisted(st.lam, basis), f, cat)
            if ok is not True:
                raise WrongAnswer("Lambda reported not strongly projective")
        else:
            raise ValueError(f"unknown request kind {kind}")
        return None


# -- frobenius-angles -------------------------------------------------------


def cyclic_nakayama_j2(k, p):
    """Selfinjective Nakayama algebra: cyclic quiver i -> i+1 (mod k),
    every path of length two zero."""
    vertices = [str(i) for i in range(k)]
    q = quivers.Quiver.build(
        vertices, [(f"a{i}", str(i), str((i + 1) % k)) for i in range(k)])
    rels = [quivers.Relation(
        ((1, quivers.PathWord((f"a{i}", f"a{(i + 1) % k}"))),))
        for i in range(k)]
    return quivers.build_algebra(q, rels, 2, FieldSpec(p))


FrobState = namedtuple("FrobState", "ctx gens")


def frob_setup(p):
    """n = 2, M = add(Lambda + S_0 + S_2 + S_4) on 6 vertices."""
    alg = cyclic_nakayama_j2(6, p)
    gens = ([reps.projective_module(alg, str(v)) for v in range(6)]
            + [reps.simple_module(alg, str(v)) for v in (0, 2, 4)])
    cat = addcat.add_category(alg, gens, seed=0)
    ctx = frob.check_frobenius_setup(
        alg, cat, 2, presets.nakayama_indecomposables(alg), seed=0)
    return FrobState(ctx, gens)


FROB_PROJECTIVES = range(6)     # generator indices of P_0..P_5
FROB_SIMPLES = (6, 7, 8)        # generator indices of S_0, S_2, S_4


def _frob_identity_cone(st, alpha):
    ctx = st.ctx
    a = frob.standard_angle(ctx, alpha)
    phi = frob.complete_angle_morphism(
        ctx, a, a, reps.identity_morphism(a.objects[0]),
        reps.identity_morphism(a.objects[1]))
    _, table = frob.angle_cone(ctx, phi)
    if not all(row["exact"] for row in table):
        raise WrongAnswer("cone verification table has an inexact row")


class FrobeniusAngles:
    """Standard angles and rotations on the selfinjective Nakayama algebra
    with 6 vertices and J^2 = 0, p = 101, n = 2.  Identity cones belong
    here too, but some of them fail at the seed commit, so they run in
    the known-defects probe."""

    name = "frobenius-angles"
    P = 101
    KINDS = ("angle", "rotate")
    PASS = 48

    def setup(self, workdir):
        return frob_setup(self.P)

    @staticmethod
    def rotate(gen, r):
        """Generator index after turning every vertex by 2r: P_i -> P_{i+2r},
        S_0 -> S_2 -> S_4 -> S_0.  This maps the algebra and M onto
        themselves, so a request and its rotations cost the same."""
        return (gen + 2 * r) % 6 if gen < 6 else 6 + (gen - 6 + r) % 3

    def requests(self, seed, pass_no):
        # The sum shapes are one fixed draw; the seed and the pass turn each
        # request by a symmetry and draw its basis and coefficients.  So
        # every pass asks for the same amount of work on new module content,
        # and a pass time compares across seeds.
        shapes = random.Random(0)
        rng = random.Random(f"{seed}:{pass_no}")
        out = []
        for i in range(self.PASS):
            c = i // 2
            src = _picks(shapes, 9, 1 + c % 3)
            tgt = _picks(shapes, 9, 1 + (c // 3) % 3)
            r = rng.randrange(3)
            out.append({"kind": self.KINDS[i % 2],
                        "src": [self.rotate(g, r) for g in src],
                        "tgt": [self.rotate(g, r) for g in tgt],
                        "coeffs": rng.randrange(2 ** 31),
                        "basis": rng.randrange(2 ** 31)})
        return out

    def run(self, st, req, workdir):
        basis = random.Random(req["basis"])
        src = _sum(st.gens, req["src"], basis)
        tgt = _sum(st.gens, req["tgt"], basis)
        alpha = _random_morphism(src, tgt, req["coeffs"], self.P)
        angle = frob.standard_angle(st.ctx, alpha)
        if req["kind"] == "rotate":
            angle = frob.rotate_angle(st.ctx, angle)
        ok, _ = frob.verify_angle_exact(st.ctx, angle)
        if ok is not True:
            raise WrongAnswer(f"{req['kind']}: angle not exact")
        return None


# -- the known-defects probe -----------------------------------------------


class KnownDefects:
    """Request kinds that fail at the seed commit, kept out of the timed
    workloads so that those contain no failing request.

    - split_indecomposables at p = 65537 on K A_9/J^2: `_fitting_split`
      tries only the shift t = 0 above p = 1024, so sums come back whole.
    - identity cones on the frobenius-angles algebra: KeyError in
      `complete_angle_morphism` whenever Hom(I^1(X^0), X^2) = 0, because
      h^2 is then never stored.  That holds for every projective-injective
      X^0 (cone_projective_x0) and for some other X^0 (cone_other_x0).
    - injective envelopes of modules whose socle contains a vector s with
      s.s = 0 (envelope_isotropic_socle): `_map_into_injective` uses the
      socle vector itself as the functional, so such an envelope is not
      injective.  Over F_101 (where 10^2 = -1) the module is P_2 + P_3 of
      the frobenius-angles algebra, with socle (1, c), c^2 = -1, at
      vertex 3.  It is injective, so its envelope must be an isomorphism.
    """

    name = "known-defects"
    COUNT = 12

    def setup(self, workdir):
        return addm_setup(AddmCertify.P), frob_setup(FrobeniusAngles.P)

    def requests(self, seed, pass_no):
        rng = random.Random(f"{seed}:{pass_no}")
        out = []
        for c in range(self.COUNT):
            out.append({"kind": "split_indecomposables",
                        "x": _picks(rng, 17, 2 + c % 3),
                        "split_seed": rng.randrange(2 ** 31),
                        "basis": rng.randrange(2 ** 31)})
        for c in range(2 * self.COUNT):
            src = [rng.choice(FROB_PROJECTIVES) for _ in range(1 + c % 3)]
            kind = "cone_projective_x0"
            if c % 2:
                src[0] = rng.choice(FROB_SIMPLES)
                kind = "cone_other_x0"
            out.append({"kind": kind, "src": src,
                        "tgt": _picks(rng, 9, 1 + (c // 3) % 3),
                        "coeffs": rng.randrange(2 ** 31),
                        "basis": rng.randrange(2 ** 31)})
        for c in range(self.COUNT):
            out.append({"kind": "envelope_isotropic_socle",
                        "root": (10, 91)[c % 2],
                        "scale": rng.randrange(1, FrobeniusAngles.P)})
        return out

    @staticmethod
    def isotropic_module(alg, root, scale):
        """P_2 + P_3 on 0 -> 1 -> ... -> 5 -> 0, in a basis where the socle
        at vertex 3 is spanned by (1, root)."""
        p = alg.p
        return reps.Module(alg, {"2": 1, "3": 2, "4": 1}, {
            "a2": Mat(2, 1, (scale, scale * root % p), p),
            "a3": Mat(1, 2, (-root % p, 1), p)})

    def run(self, state, req, workdir):
        addm, frb = state
        if req["kind"] == "envelope_isotropic_socle":
            x = self.isotropic_module(frb.ctx.algebra, req["root"],
                                      req["scale"])
            env = resolutions.injective_envelope(x)
            if env.target.dims != x.dims:
                raise WrongAnswer("envelope of an injective module is not "
                                  "an isomorphism")
            return None
        basis = random.Random(req["basis"])
        if req["kind"] == "split_indecomposables":
            x = _sum(addm.indecs, req["x"], basis)
            parts = reps.split_indecomposables(x, req["split_seed"])
            got = _dims_multiset((m.dim_vector(), c) for m, c in parts)
            want = _dims_multiset((addm.indecs[i].dim_vector(), 1)
                                  for i in req["x"])
            if got != want:
                raise WrongAnswer(f"decomposition {sorted(got.items())} "
                                  f"!= {sorted(want.items())}")
            return None
        src = _sum(frb.gens, req["src"], basis)
        tgt = _sum(frb.gens, req["tgt"], basis)
        alpha = _random_morphism(src, tgt, req["coeffs"], FrobeniusAngles.P)
        _frob_identity_cone(frb, alpha)
        return None


WORKLOADS = {w.name: w for w in (NctSearch, AddmCertify, FrobeniusAngles,
                                 KnownDefects)}
