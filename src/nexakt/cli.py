"""Command-line workbench: each entry of ``COMMANDS`` runs a check and
emits a canonical JSON certificate.  Exit codes: 0 = pass, 1 = fail
(certificate written), 2 = usage or input error.  Certificates are
byte-identical across runs with the same inputs and seed; wall-clock
timing goes to stderr and is kept out of them."""

from __future__ import annotations

import argparse
import sys
import time
from functools import cache, partial
from pathlib import Path

from . import __version__
from .addcat import (DomainError, HypothesisError, PreconditionError,
                     add_category, contravariant_fragment, indecomposables,
                     n_cokernel, n_kernel, verify_n_cokernel, verify_n_exact,
                     verify_n_kernel)
from .certs import Certificate, canonical_json, content_hash, emit_certificate
from .complexes import mapping_cone
from .fileio import (InputError, algebra_from_dict, algebra_to_dict,
                     complex_from_dict, generators_from_dict, load_generators,
                     load_json, load_module, module_to_dict, morphism_to_dict,
                     morphism_with_endpoints_from_dict)
from .fp import FieldSpec
from .frob import (SetupError, angle_cone, check_frobenius_setup,
                   complete_angle_morphism, cosyzygy, rotate_angle,
                   standard_angle, verify_angle_exact)
from .presets import (gen_auslander_linear_A, gen_linear_An_J2,
                      gen_preprojective_A, nakayama_indecomposables)
from .pushout import n_pushout
from .quivers import AdmissibilityError, BoundError, QuiverError
from .reps import (FITTING_RETRIES, _isomorphic_to_indecomposable, hom_basis,
                   identity_morphism, projective_module, simple_module)
from .resolutions import ext_dim
from .tilting import (brute_force_nct_search, check_n_cluster_tilting,
                      ext_via_approx_resolution)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return 0 if exc.code in (0, None) else 2
    if getattr(args, "check", None) is None:
        parser.print_help()
        return 2
    started = time.monotonic()
    try:
        return _run_check(args)
    except (InputError, QuiverError, AdmissibilityError, BoundError,
            DomainError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        elapsed = (time.monotonic() - started) * 1000.0
        print(f"elapsed: {elapsed:.1f} ms", file=sys.stderr)


def _run_check(args) -> int:
    """Load, check, certify; HypothesisError or SetupError make a fail."""
    name = args.cert_name + (f"-{args.preset}" if "preset" in args else "")
    cert = Certificate(name, {}, args.seed)
    ins = _load_inputs(args, cert)
    try:
        result = args.check(args, ins)
    except (HypothesisError, SetupError) as exc:
        kind = type(exc).__name__
        params = {k: getattr(args, k) for k in ("n", "k", "p")
                  if getattr(args, k, None) is not None}
        result = params, False, {"failure": {
            "exception": kind, "message": str(exc),
            "degree": getattr(exc, "degree", None)}}, f"{kind}: {exc}"
    cert.params, cert.verdict, cert.witnesses, summary = result
    return _finish(args, cert, bool(cert.verdict), summary)


def _load_inputs(args, cert: Certificate) -> argparse.Namespace:
    """Read each input file once, embed it in the certificate, check an
    --indecs file and the --m generators as lists of indecomposables and
    build add(M).  Demo presets embed their algebra via ins.embed."""
    ins = argparse.Namespace(seed=cert.seed, embed=cert.add_input)
    if "algebra" not in args:
        return ins
    ins.algebra_json = load_json(args.algebra)
    ins.alg = alg = algebra_from_dict(ins.algebra_json)
    cert.add_input("algebra", ins.algebra_json)
    for dest, parse in (("morphism", morphism_with_endpoints_from_dict),
                        ("complex", complex_from_dict),
                        ("alpha", morphism_with_endpoints_from_dict)):
        if dest in args:
            data = load_json(getattr(args, dest))
            setattr(ins, dest, parse(data, alg))
            cert.add_input(dest, data)
    if "indecs" in args:
        if args.indecs == "nakayama":
            ins.indecs = nakayama_indecomposables(alg)
        else:
            data = load_json(args.indecs)
            ins.indecs = _checked("--indecs", generators_from_dict(data, alg),
                                  cert.seed)
            cert.add_input("indecs", data)
    if "m" not in args:
        return ins
    named = {}
    for name, _, path in (item.partition("=") for item in args.module):
        if not path:
            raise InputError(f"--module expects NAME=FILE, got {name!r}")
        named[name] = load_module(path, alg)
    for dest in [d for d in ("a", "b") if d in args]:
        value = getattr(args, dest)
        mod = named[value] if value in named else load_module(value, alg)
        setattr(ins, dest, mod)
        cert.add_input(dest, module_to_dict(mod))
    # --m is a generators file or a comma-separated list of --module names
    if "," in args.m or args.m in named:
        try:
            gens = [named[n] for n in args.m.split(",")]
        except KeyError as exc:
            raise InputError(f"--m references unloaded module {exc}") from None
    else:
        gens = load_generators(args.m, alg)
    cert.add_input("generators", [module_to_dict(g) for g in gens])
    ins.cat = add_category(alg, _checked("--m", gens, cert.seed))
    return ins


def _checked(flag, modules, seed):
    try:
        return indecomposables(modules, seed)
    except DomainError as exc:
        raise DomainError(f"{flag} {exc}") from None


def _finish(args, cert: Certificate, passed: bool, summary: str) -> int:
    path = emit_certificate(cert, Path(args.out) / f"{cert.check}.cert.json")
    if args.format == "json":
        print(canonical_json(cert.to_dict()))
    else:
        print(f"{'PASS' if passed else 'FAIL'} {cert.check}: {summary} "
              f"[certificate: {path}]")
    return 0 if passed else 1


def _dims(modules):
    return [list(x.dim_vector()) for x in modules]


def _check_algebra(args, ins):
    roundtrip = (canonical_json(algebra_to_dict(ins.alg))
                 == canonical_json(ins.algebra_json))
    return {"path": str(args.algebra)}, True, {
        "dimension": ins.alg.dim, "vertices": len(ins.alg.quiver.vertices),
        "arrows": len(ins.alg.quiver.arrows), "canonical_roundtrip": roundtrip,
        "basis_words": [list(w.arrows) for w in ins.alg.basis],
    }, f"dimension {ins.alg.dim}, canonical={roundtrip}"


def _check_nct(args, ins):
    report = check_n_cluster_tilting(ins.cat, args.n, ins.indecs,
                                     seed=ins.seed)
    return {"n": args.n}, report.ok, report.to_dict(), report.verdict


def _ladder_check(build, verify, label, note):
    """ncoker/nkernel: the minimal ladder on --morphism, certified."""
    def check(args, ins):
        seq = build(ins.morphism, ins.cat, args.n)
        frag = verify(ins.morphism, seq, ins.cat)
        return {"n": args.n}, frag.ok, {
            "terms": _dims(seq.terms),
            "differentials": [morphism_to_dict(d) for d in seq.diffs],
            "exactness": frag.to_dict(), "note": note,
        }, f"{label} dims {[t.total_dim for t in seq.terms]}"
    return check


def _check_npushout(args, ins):
    y, f = n_pushout(ins.complex, ins.morphism, ins.cat)
    frag = contravariant_fragment(list(mapping_cone(f).diffs),
                                  ins.cat.generators)
    return {}, frag.ok, {
        "pushout_terms": _dims(y.terms), "cone_exactness": frag.to_dict(),
    }, f"pushout dims {[t.total_dim for t in y.terms]}"


def _check_nexact(args, ins):
    result = verify_n_exact(ins.complex, ins.cat, args.n)
    return ({"n": args.n}, result.ok, result.to_dict(),
            "n-exact" if result.ok else "not n-exact")


def _check_ext(args, ins):
    # first: it refuses a k outside 1..n-1 before computing anything
    via_approx = ext_via_approx_resolution(ins.a, ins.b, ins.cat, args.k,
                                           args.n)
    via_res = ext_dim(ins.a, ins.b, args.k)
    return {"n": args.n, "k": args.k}, via_res == via_approx, {
        "ext_via_projective_resolution": via_res,
        "ext_via_approx_resolution": via_approx,
    }, f"Ext^{args.k} = {via_res} vs {via_approx}"


def _angle_payload(angle, table):
    return {
        "objects": [{"dims": list(o.dim_vector()),
                     "sha256": content_hash(module_to_dict(o))}
                    for o in angle.objects],
        "morphisms": [morphism_to_dict(u) for u in angle.all_maps()],
        "closing_target": list(angle.closing.target.dim_vector()),
        "stable_rank_table": table,
    }


def _identity_cone(ctx, angle):
    """The cone of the identity on an angle (raises unless it verifies)."""
    return angle_cone(ctx, complete_angle_morphism(
        ctx, angle, angle, identity_morphism(angle.objects[0]),
        identity_morphism(angle.objects[1])))


def _check_frobenius(args, ins):
    """frobenius setup; angle/rotate/cone on the standard angle of --alpha."""
    ctx = check_frobenius_setup(ins.alg, ins.cat, args.n, ins.indecs,
                                seed=ins.seed)
    if args.subcommand == "setup":
        return {"n": args.n}, True, {
            "nct": ctx.nct_report.to_dict(), "retry_bound": FITTING_RETRIES,
            "note": "selfinjectivity and (co)syzygy closure verified",
        }, "Frobenius structure verified"
    angle = standard_angle(ctx, ins.alpha)
    if args.subcommand == "cone":
        cone, table = _identity_cone(ctx, angle)
        return ({"n": args.n}, True, _angle_payload(cone, table),
                "identity cone verified")
    label = "standard angle"
    if args.subcommand == "rotate":
        angle, label = rotate_angle(ctx, angle), "rotation"
    ok, table = verify_angle_exact(ctx, angle)
    return ({"n": args.n}, ok, _angle_payload(angle, table),
            f"{label} {'verified' if ok else 'failed'}")


def _check_search(args, ins):
    hits = brute_force_nct_search(ins.alg, args.n, ins.indecs, seed=ins.seed)
    return ({"n": args.n}, len(hits),
            {"indecomposables": _dims(ins.indecs), "hits": hits},
            f"{len(hits)} n-CT subset(s)")


def _demo_j2(n, m, args, ins):
    """K A_{nm+1}/J^2: the one n-CT module is Lambda + S_n + ... + S_nm."""
    n = n if args.n is None else args.n
    alg, expected = gen_linear_An_J2(n, m, p=args.p)
    ins.embed("algebra", algebra_to_dict(alg))
    indecs = nakayama_indecomposables(alg)
    hits = brute_force_nct_search(alg, n, indecs, seed=ins.seed)
    unique = len(hits) == 1
    matches = unique and len(hits[0]) == len(expected) and all(
        any(_isomorphic_to_indecomposable(g, indecs[i]) for i in hits[0])
        for g in expected)
    return {"n": n, "m": m, "p": args.p}, matches, {
        "indecomposables": _dims(indecs), "hits": hits, "unique": unique,
        "expected": _dims(expected), "matches_expected": matches,
    }, (f"unique {n}-CT module found: Lambda + "
        + " + ".join(f"S_{j * n}" for j in range(1, m + 1))
        if matches else "uniqueness FAILED")


def _demo_preproj(args, ins):
    """Preprojective A_2: mho^2(S_1) = S_1; angle, rotation and cone verify."""
    alg = gen_preprojective_A(2, p=args.p)
    ins.embed("algebra", algebra_to_dict(alg))
    n = 2 if args.n is None else args.n
    s1, p2 = simple_module(alg, "1"), projective_module(alg, "2")
    cat = add_category(alg, [projective_module(alg, "1"), p2, s1],
                       seed=ins.seed)
    ctx = check_frobenius_setup(alg, cat, n, nakayama_indecomposables(alg),
                                seed=ins.seed)
    periodic = _isomorphic_to_indecomposable(cosyzygy(ctx, s1, 2), s1)
    angle = standard_angle(ctx, hom_basis(s1, p2)[0])
    ok_angle, table = verify_angle_exact(ctx, angle)
    ok_rot, _ = verify_angle_exact(ctx, rotate_angle(ctx, angle))
    cone, cone_table = _identity_cone(ctx, angle)
    ok = periodic and ok_angle and ok_rot
    return {"n": n, "p": args.p}, ok, {
        "cosyzygy_periodic": periodic, "rotation_ok": ok_rot,
        "standard_angle": _angle_payload(angle, table),
        "identity_cone": _angle_payload(cone, cone_table),
    }, ("Frobenius 2-exact structure with mho^2(S1) = S1" if ok
        else "Frobenius demo FAILED")


def _demo_auslander(args, ins):
    """The Auslander algebra of A_2 presents K A_3/J^2; one 2-CT module."""
    aus = gen_auslander_linear_A(2, p=args.p)
    ins.embed("algebra", algebra_to_dict(aus))
    lam, _ = gen_linear_An_J2(2, 1, p=args.p)
    blocks = [sorted(len(a.block_indices(v, w)) for v in a.quiver.vertices
                     for w in a.quiver.vertices) for a in (aus, lam)]
    same = aus.dim == lam.dim and blocks[0] == blocks[1]
    hits = brute_force_nct_search(aus, 2, nakayama_indecomposables(aus),
                                  seed=ins.seed)
    ok = same and len(hits) == 1
    return {"p": args.p}, ok, {
        "dimension": aus.dim, "isomorphic_presentation_to_a3_j2": same,
        "hits": hits,
    }, ("Auslander algebra of A_2 presents K A_3/J^2" if ok
        else "auslander demo FAILED")


_DEMOS = {"a3-j2": partial(_demo_j2, 2, 1), "a4-j2": partial(_demo_j2, 3, 1),
          "a5-j2": partial(_demo_j2, 2, 2), "preproj-a2": _demo_preproj,
          "auslander-a2": _demo_auslander}


def _opt(flag, help=None, **kw):
    return flag, dict(kw, help=help)


# argparse types; argparse reports their ValueError as a usage error
def positive_int(text):
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def prime(text):
    return FieldSpec(int(text)).p


_file = partial(_opt, required=True)
_ALGEBRA, _M = _file("--algebra"), _file("--m")
_N = _opt("--n", type=positive_int, required=True)
_INDECS = _opt("--indecs", "'nakayama' (complete) or a generators file; a "
               "file gives verdicts relative to its list", default="nakayama")
_FROBENIUS = [_ALGEBRA, _M, _N, _INDECS]
_ALPHA = _file("--alpha", "morphism file with embedded endpoints")
_COMMON = [_opt("--seed", "seed", type=int, default=0),
           _opt("--out", "certificate directory", default="certs"),
           _opt("--format", choices=("json", "text"), default="text"),
           _opt("--module", "load a module file under a name; names may "
                "then be used in --m lists and --a/--b", action="append",
                default=[], metavar="NAME=FILE")]
_GROUPS = {"algebra": "algebra file operations",
           "nct": "n-cluster-tilting checks", "ext": "Ext computations",
           "frobenius": "Frobenius/(n+2)-angle checks",
           "search": "exhaustive searches"}

# (words, help, arguments, check); a check returns (params, verdict,
# witnesses, summary).  _load_inputs embeds the input-file arguments.
COMMANDS = (
    ("algebra check", "validate an algebra definition", [_ALGEBRA],
     _check_algebra),
    ("nct check", None, [_ALGEBRA, _file("--m", "generators file"), _N,
                         _INDECS], _check_nct),
    ("ncoker", "construct and certify an n-cokernel",
     [_ALGEBRA, _file("--morphism", "d0 morphism file"), _M, _N],
     _ladder_check(n_cokernel, verify_n_cokernel, "tail",
                   "n-cokernels are unique only up to homotopy; this names "
                   "the representative built by the minimal ladder")),
    ("nkernel", "construct and certify an n-kernel",
     [_ALGEBRA, _file("--morphism", "d^n morphism file"), _M, _N],
     _ladder_check(n_kernel, verify_n_kernel, "head",
                   "representative built by the minimal dual ladder")),
    ("npushout", "construct and certify an n-pushout",
     [_ALGEBRA, _file("--complex"), _file("--morphism", "f0 morphism file"),
      _M], _check_npushout),
    ("verify-nexact", "verify an n-exact sequence",
     [_ALGEBRA, _file("--complex"), _M, _N], _check_nexact),
    ("ext compare", None, [_ALGEBRA, _file("--a", "module file (source)"),
                           _file("--b", "module file (target)"), _M, _N,
                           _opt("--k", type=int, default=1)], _check_ext),
    ("frobenius setup", None, _FROBENIUS, _check_frobenius),
    ("frobenius angle", None, _FROBENIUS + [_ALPHA], _check_frobenius),
    ("frobenius rotate", None, _FROBENIUS + [_ALPHA], _check_frobenius),
    ("frobenius cone", None, _FROBENIUS + [_ALPHA], _check_frobenius),
    ("search nct", None, [_ALGEBRA, _N, _INDECS],
     _check_search),
    ("demo", "run a named preset end to end",
     [("preset", {"choices": tuple(_DEMOS)}),
      _opt("--n", type=positive_int), _opt("--p", type=prime, default=101)],
     lambda args, ins: _DEMOS[args.preset](args, ins)),
)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser for COMMANDS, built once per process (parse_args leaves
    it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="nexakt",
        description="certified higher homological algebra over F_p")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    groups = {}
    for words, help_, arguments, check in COMMANDS:
        group, _, leaf = words.rpartition(" ")
        if group and group not in groups:
            groups[group] = sub.add_parser(
                group, help=_GROUPS[group]).add_subparsers(dest="subcommand")
        # a help keyword, even None, would list the command in its group
        p = groups.get(group, sub).add_parser(
            leaf, **({"help": help_} if help_ else {}))
        for flag, kw in arguments + _COMMON:
            p.add_argument(flag, **kw)
        p.set_defaults(check=check, cert_name=words.replace(" ", "-"))
    return parser


if __name__ == "__main__":
    sys.exit(main())
