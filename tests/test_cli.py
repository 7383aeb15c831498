import hashlib
import json
import shlex
from pathlib import Path

import pytest

from nexakt.certs import canonical_json
from nexakt.cli import _build_parser, main
from nexakt.fileio import (algebra_to_dict, complex_to_dict, dump_algebra,
                           load_algebra, module_from_dict, module_to_dict,
                           morphism_with_endpoints_to_dict)
from nexakt.presets import (gen_auslander_linear_A, gen_linear_An_J2,
                            gen_preprojective_A, nakayama_indecomposables)
from nexakt.reps import (direct_sum, hom_basis, projective_module,
                         simple_module)


@pytest.fixture
def files(tmp_path, a3):
    """Fixture files for the A3/J^2 setup."""
    alg, expected = gen_linear_An_J2(2, 1)
    paths = {}
    paths["algebra"] = tmp_path / "a3.json"
    dump_algebra(alg, paths["algebra"])
    mods = {
        "P0": projective_module(alg, "0"),
        "P1": projective_module(alg, "1"),
        "P2": projective_module(alg, "2"),
        "S0": simple_module(alg, "0"),
        "S2": simple_module(alg, "2"),
    }
    paths["m3"] = tmp_path / "m3.json"
    paths["m3"].write_text(canonical_json(
        {"generators": [module_to_dict(mods[k]) for k in ("P0", "P1", "P2", "S2")]}))
    paths["bad_m"] = tmp_path / "bad_m.json"
    s1 = simple_module(alg, "1")
    paths["bad_m"].write_text(canonical_json(
        {"generators": [module_to_dict(mods[k]) for k in ("P0", "P1", "P2")]
         + [module_to_dict(s1)]}))
    d0 = hom_basis(mods["S0"], mods["P1"])[0]
    paths["d0"] = tmp_path / "d0.json"
    paths["d0"].write_text(canonical_json(morphism_with_endpoints_to_dict(d0)))
    d1 = hom_basis(mods["P1"], mods["P2"])[0]
    d2 = hom_basis(mods["P2"], mods["S2"])[0]
    from nexakt.complexes import complex_from_maps, ComplexSeq
    good = complex_from_maps(0, [d0, d1, d2])
    paths["good_complex"] = tmp_path / "good.json"
    paths["good_complex"].write_text(canonical_json(complex_to_dict(good)))
    from nexakt.reps import zero_morphism
    broken = ComplexSeq(0, list(good.terms),
                        [d0, d1, zero_morphism(mods["P2"], mods["S2"])])
    paths["broken_complex"] = tmp_path / "broken.json"
    paths["broken_complex"].write_text(canonical_json(complex_to_dict(broken)))
    paths["upper"] = tmp_path / "upper.json"
    upper = complex_from_maps(0, [d0, d1])
    paths["upper"].write_text(canonical_json(complex_to_dict(upper)))
    paths["s1"] = tmp_path / "s1.json"
    paths["s1"].write_text(canonical_json(module_to_dict(s1)))
    paths["s0"] = tmp_path / "s0.json"
    paths["s0"].write_text(canonical_json(module_to_dict(mods["S0"])))
    paths["out"] = tmp_path / "certs"
    return paths


def run(*argv):
    return main([str(a) for a in argv])


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# Certificate digests recorded with the per-command CLI bodies that the
# command table replaced (seed 0); passing runs must reproduce them byte
# for byte.  The pins at p = 2^31 - 1 were recorded before the F_p layer
# shared one in-place row reduction.
DEMO_SHA256 = {
    ("a3-j2", 2): "71288479765eb1a81b51ab5695cc790afb9382bdadc909e7cbefe706572a9858",
    ("a4-j2", 2): "8644cf966ba40dfc8301b70d86a7f0103bd1a10f6e3bb76fba5eeca82f4849a2",
    ("a5-j2", 2): "f9c83fc972be7469817efa00327fd67575a1a5a7fa38237d1f76f919fbcba851",
    ("preproj-a2", 2): "b1e6367c067c4bcf0309d16d4d8f5a16b4726d948a61780517a2bd94759871cf",
    ("auslander-a2", 2): "69a2d6dd6dea03978dcd6ed39606d13b0641ea83f23060bd9cc7221e5eb2dac4",
    ("a3-j2", 5): "782d96830e318ccf38d6a67667a24536a2aeb6c901fe86e830b0028d8c730a67",
    ("a4-j2", 5): "f706bdd8e02c44f2924f471bfa914ae99d1d65ac6b6b20ad44dc46e883f32dcf",
    ("a5-j2", 5): "5812d0ca0535b264d7dfbad654cd8a9049d9e1ebe9330d801615153bc0f7db56",
    ("preproj-a2", 5): "617a52291bbd3ca0c2ada09f0e27c2a41efcdc18aa4e1ed284c545c0a1c922a6",
    ("auslander-a2", 5): "d62c394662530e52f6de3224c20eb9dd86a1992f9e3b077e5f2334a419291dec",
    ("a3-j2", 101): "cd83cf4a4859559d5ae4e187fde79d04a690f14c2585f6e7cead9a707c20b100",
    ("a4-j2", 101): "2ae134c5537cf29302062c45a89ecb6587169f997450b7672211dd0958c88b32",
    ("a5-j2", 101): "2f6bc8f1bfde393989995cc3b2a8e3651c45a43e7c975c60e940bf4e85d2f28f",
    ("preproj-a2", 101): "6d6adcd36af9478bae9d293129006b37fbdeb3417256cfc95b446eada7794bfd",
    ("auslander-a2", 101): "5e4e3c38324d429dd02804adebe4b643c928ef1eb862b345c8b9511d70061b74",
    ("a3-j2", 2147483647): "0b65b64bd73176e0d7ba67cf486bfa8446306521edcb4fcbcf0cd08754eb5cdc",
    ("a4-j2", 2147483647): "13e2f2a456ef8a64f241c34bfbc55c6ff6bdf41e8e1f4bef6afbb85cabc2cb97",
    ("a5-j2", 2147483647): "229683343561ac88b463eb7ab14a4490f063b838b2a119a727b9ac93b42c96fb",
    ("preproj-a2", 2147483647): "2037414e1e960b691f966c7d50524e11c72862a0c46bcfcaddde577512389858",
    ("auslander-a2", 2147483647): "55475e1d5084277ec8a6f7c93c04fbd007b9704345c593ba9c58ac5e27f287be",
}
FILE_SHA256 = {
    "algebra-check": "4a316d4c225d86243fc051228a40508d0e2476328aabbb45f66efd9e8c8dc6d5",
    "nct-check": "a1510b23f17f7e207f888f3c0f469f99579b6b7695a32fd1afe49a8e98861c35",
    "ncoker": "63d6b210b4455726b55cfde379d167b79efad7a80ddc2f1675f6a464a41e0878",
    "nkernel": "dbacc823ac23142732dd5958716909552b1a4655b411d34d53e94ffa479e2878",
    "verify-nexact": "ac3eee997b1a049e623212409b0b846f92811e997d60bf9f5cd903702d833a28",
    "npushout": "8947d1f6e8bf12ab4c36b01af55b50c6b10e144b3867aed162c5795883e369fd",
    "ext-compare": "47f18216d8ac34d287b8f60943fe1d798c04824393dc3866804563a8b6145499",
    "search-nct": "d047f6be15815a02565c1a150c8eda82adcdaf5a51d11a4acf8ac735ac79caf3",
    "frobenius-setup": "4faf15d5aab72563b4d3ee2b696693290b6185955fa1627c773c52e3dcbbbeb3",
    "frobenius-angle": "ffbd91a5718f7b76e63b145ff1bd9a12e7bb29cdb1b6dee26261e080f7076e85",
    "frobenius-rotate": "6c821b913a6421d15bb6accfec744f4c51900f708bcb6c0240250b71a0e527ef",
    "frobenius-cone": "2627e750995291e51d7a0f936c11f678f689461d2b0a96cdefe3b3581c69c145",
}


def test_algebra_roundtrip_bytes(tmp_path):
    alg, _ = gen_linear_An_J2(2, 1)
    p1 = tmp_path / "one.json"
    dump_algebra(alg, p1)
    alg2 = load_algebra(p1)
    p2 = tmp_path / "two.json"
    dump_algebra(alg2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_module_roundtrip(a3):
    p1 = projective_module(a3, "1")
    d = module_to_dict(p1)
    back = module_from_dict(json.loads(canonical_json(d)), a3)
    assert module_to_dict(back) == d


def test_algebra_check(files):
    assert run("algebra", "check", "--algebra", files["algebra"],
               "--out", files["out"]) == 0


def test_nct_check_pass_and_fail(files):
    assert run("nct", "check", "--algebra", files["algebra"],
               "--m", files["m3"], "--n", 2, "--out", files["out"]) == 0
    assert run("nct", "check", "--algebra", files["algebra"],
               "--m", files["bad_m"], "--n", 2, "--out", files["out"]) == 1


def test_ncoker(files):
    assert run("ncoker", "--algebra", files["algebra"], "--morphism",
               files["d0"], "--m", files["m3"], "--n", 2,
               "--out", files["out"]) == 0
    cert = json.loads((files["out"] / "ncoker.cert.json").read_text())
    assert cert["verdict"] is True
    assert cert["witnesses"]["terms"] == [[1, 1, 0], [0, 1, 1], [0, 0, 1]]


def test_nkernel(files, a3):
    alg = load_algebra(files["algebra"])
    p2 = projective_module(alg, "2")
    s2 = simple_module(alg, "2")
    dn = hom_basis(p2, s2)[0]
    dn_path = files["algebra"].parent / "dn.json"
    dn_path.write_text(canonical_json(morphism_with_endpoints_to_dict(dn)))
    assert run("nkernel", "--algebra", files["algebra"], "--morphism",
               dn_path, "--m", files["m3"], "--n", 2,
               "--out", files["out"]) == 0


def test_verify_nexact(files):
    assert run("verify-nexact", "--algebra", files["algebra"], "--complex",
               files["good_complex"], "--m", files["m3"], "--n", 2,
               "--out", files["out"]) == 0
    assert run("verify-nexact", "--algebra", files["algebra"], "--complex",
               files["broken_complex"], "--m", files["m3"], "--n", 2,
               "--out", files["out"]) == 1


def test_npushout(files):
    assert run("npushout", "--algebra", files["algebra"], "--complex",
               files["upper"], "--morphism", files["d0"],
               "--m", files["m3"], "--out", files["out"]) == 0


def test_ext_compare(files):
    assert run("ext", "compare", "--algebra", files["algebra"],
               "--a", files["s1"], "--b", files["s0"], "--m", files["m3"],
               "--n", 2, "--k", 1, "--out", files["out"]) == 0
    cert = json.loads((files["out"] / "ext-compare.cert.json").read_text())
    assert cert["witnesses"]["ext_via_projective_resolution"] == 1


def test_frobenius_subcommands(tmp_path, monkeypatch):
    monkeypatch.delenv("NEXAKT_SEED", raising=False)
    alg = gen_preprojective_A(2)
    apath = tmp_path / "pi2.json"
    dump_algebra(alg, apath)
    p1 = projective_module(alg, "1")
    p2 = projective_module(alg, "2")
    s1 = simple_module(alg, "1")
    mpath = tmp_path / "m.json"
    mpath.write_text(canonical_json(
        {"generators": [module_to_dict(x) for x in (p1, p2, s1)]}))
    alpha = hom_basis(s1, p2)[0]
    alpha_path = tmp_path / "alpha.json"
    alpha_path.write_text(canonical_json(morphism_with_endpoints_to_dict(alpha)))
    out = tmp_path / "certs"
    for sub in ("setup", "angle", "rotate", "cone"):
        argv = ["frobenius", sub, "--algebra", apath, "--m", mpath,
                "--n", 2, "--out", out]
        if sub != "setup":
            argv += ["--alpha", alpha_path]
        assert run(*argv) == 0, sub
        name = f"frobenius-{sub}"
        assert sha256(out / f"{name}.cert.json") == FILE_SHA256[name], sub


def test_search_nct(files):
    assert run("search", "nct", "--algebra", files["algebra"], "--n", 2,
               "--out", files["out"]) == 0
    cert = json.loads((files["out"] / "search-nct.cert.json").read_text())
    assert cert["verdict"] == 1


def test_parser_is_reused_across_calls(files, capsys):
    assert _build_parser() is _build_parser()
    certs = []
    for out in ("one", "two"):
        assert run("search", "nct", "--algebra", files["algebra"], "--n", 2,
                   "--out", files["out"] / out) == 0
        certs.append((files["out"] / out / "search-nct.cert.json").read_bytes())
    assert certs[0] == certs[1]
    capsys.readouterr()
    assert run("search", "nct", "--help") == 0
    assert "--algebra" in capsys.readouterr().out


def test_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": {')
    code = run("algebra", "check", "--algebra", bad)
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_unknown_flag_exits_2():
    assert run("ncoker", "--bogus") == 2


def test_help_exits_0(capsys):
    assert run("ncoker", "--help") == 0
    assert "usage" in capsys.readouterr().out


def test_demo_determinism(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert run("demo", "a3-j2", "--seed", 7, "--out", out1) == 0
    assert run("demo", "a3-j2", "--seed", 7, "--out", out2) == 0
    c1 = (out1 / "demo-a3-j2.cert.json").read_bytes()
    c2 = (out2 / "demo-a3-j2.cert.json").read_bytes()
    assert c1 == c2
    assert json.loads(c1)["seed"] == 7


def test_demo_json_format(tmp_path, capsys):
    assert run("demo", "a3-j2", "--out", tmp_path, "--format", "json") == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["check"] == "demo-a3-j2"


def test_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("NEXAKT_SEED", "13")
    assert run("demo", "a3-j2", "--out", tmp_path) == 0
    cert = json.loads((Path(tmp_path) / "demo-a3-j2.cert.json").read_text())
    assert cert["seed"] == 13


def test_malformed_env_seed_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NEXAKT_SEED", "abc")
    code = run("demo", "a3-j2", "--out", tmp_path)
    _assert_input_error(code, capsys, "NEXAKT_SEED is not an integer: 'abc'")
    assert not list(tmp_path.iterdir())


def test_named_modules_in_m_list(files, tmp_path, a3):
    alg = load_algebra(files["algebra"])
    names = {"P0": projective_module(alg, "0"),
             "P1": projective_module(alg, "1"),
             "P2": projective_module(alg, "2"),
             "S2": simple_module(alg, "2")}
    loads = []
    for name, mod in names.items():
        path = tmp_path / f"{name}.json"
        path.write_text(canonical_json(module_to_dict(mod)))
        loads += ["--module", f"{name}={path}"]
    assert run("nct", "check", "--algebra", files["algebra"],
               "--m", "P0,P1,P2,S2", "--n", 2, "--out", files["out"],
               *loads) == 0


def test_named_modules_in_ext_compare(files, tmp_path):
    alg = load_algebra(files["algebra"])
    s1_path = tmp_path / "named_s1.json"
    s1_path.write_text(canonical_json(module_to_dict(simple_module(alg, "1"))))
    assert run("ext", "compare", "--algebra", files["algebra"],
               "--module", f"X={s1_path}", "--a", "X", "--b", files["s0"],
               "--m", files["m3"], "--n", 2, "--k", 1,
               "--out", files["out"]) == 0


def test_unloaded_name_exits_2(files):
    assert run("nct", "check", "--algebra", files["algebra"],
               "--m", "nope,setup", "--n", 2, "--out", files["out"]) == 2


def _assert_input_error(code, capsys, words):
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {words}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("picks, words", [
    ((("P0", "S2"), "P1", "P2"), "--m entry 0 is decomposable"),
    (("P0", "P1", "P2", "P1"), "--m entries 1 and 3 are isomorphic"),
])
def test_bad_generator_exits_2(files, tmp_path, capsys, picks, words):
    alg = load_algebra(files["algebra"])
    mods = {"P0": projective_module(alg, "0"), "P1": projective_module(alg, "1"),
            "P2": projective_module(alg, "2"), "S2": simple_module(alg, "2")}
    gens = [direct_sum([mods[k] for k in pick])[0] if isinstance(pick, tuple)
            else mods[pick] for pick in picks]
    m_path = tmp_path / "bad_gens.json"
    m_path.write_text(canonical_json(
        {"generators": [module_to_dict(g) for g in gens]}))
    code = run("nct", "check", "--algebra", files["algebra"], "--m", m_path,
               "--n", 2, "--out", files["out"])
    _assert_input_error(code, capsys, words)


@pytest.fixture
def a5_files(tmp_path):
    """K A_5/J^2 at p = 101, M = Lambda + S_4 as a generators file, and the
    Nakayama list with one bad entry appended: S_4 + S_4, or S_4 again."""
    alg, _ = gen_linear_An_J2(2, 2)
    paths = {"algebra": tmp_path / "a5.json", "out": tmp_path / "certs"}
    dump_algebra(alg, paths["algebra"])
    s4 = simple_module(alg, "4")
    nakayama = list(nakayama_indecomposables(alg))
    lists = {"m": [projective_module(alg, str(v)) for v in range(5)] + [s4],
             "decomposable": nakayama + [direct_sum([s4, s4]).module],
             "repeated": nakayama + [s4]}
    for name, mods in lists.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(canonical_json(
            {"generators": [module_to_dict(x) for x in mods]}))
    return paths


def test_indecs_file_gives_a_relative_verdict(a5_files, capsys):
    # --indecs is M itself, which lacks S_2: "n-CT" held only relative to it
    f = a5_files
    code = run("nct", "check", "--algebra", f["algebra"], "--m", f["m"],
               "--n", 2, "--indecs", f["m"], "--out", f["out"])
    assert code == 0
    assert ("PASS nct-check: n-CT (relative to supplied list)"
            in capsys.readouterr().out)
    cert = json.loads((f["out"] / "nct-check.cert.json").read_text())
    assert cert["witnesses"]["complete_list"] is False
    assert cert["inputs"]["indecs"]["content"] == json.loads(f["m"].read_text())
    # against the complete Nakayama list the same M is not 2-CT
    assert run("nct", "check", "--algebra", f["algebra"], "--m", f["m"],
               "--n", 2, "--out", f["out"]) == 1


@pytest.mark.parametrize("name, words", [
    ("decomposable", "--indecs entry 9 is decomposable"),
    ("repeated", "--indecs entries 7 and 9 are isomorphic"),
])
def test_search_refuses_a_bad_indecs_entry(a5_files, capsys, name, words):
    f = a5_files
    code = run("search", "nct", "--algebra", f["algebra"], "--n", 2,
               "--indecs", f[name], "--out", f["out"])
    _assert_input_error(code, capsys, words)
    assert not f["out"].exists()


def test_non_nakayama_algebra_with_default_indecs_exits_2(tmp_path, capsys):
    path = tmp_path / "preproj-a3.json"
    dump_algebra(gen_preprojective_A(3), path)
    code = run("search", "nct", "--algebra", path, "--n", 2,
               "--out", tmp_path / "certs")
    _assert_input_error(code, capsys, "not a Nakayama quiver")


def test_demo_presets_pass_at_all_primes(tmp_path, monkeypatch):
    monkeypatch.delenv("NEXAKT_SEED", raising=False)
    # 2^31 - 1, the largest prime FieldSpec accepts, gives the largest
    # entries the reduction and the products see
    for p in (2, 5, 101, 2147483647):
        for preset in ("a3-j2", "a4-j2", "a5-j2", "preproj-a2",
                       "auslander-a2"):
            out = tmp_path / str(p)
            assert run("demo", preset, "--p", p, "--out", out) == 0
            digest = sha256(out / f"demo-{preset}.cert.json")
            assert digest == DEMO_SHA256[preset, p], (preset, p)


def test_file_commands_certificate_bytes(files, monkeypatch):
    # relative paths: algebra-check records its --algebra argument
    monkeypatch.chdir(files["algebra"].parent)
    monkeypatch.delenv("NEXAKT_SEED", raising=False)
    alg = load_algebra("a3.json")
    dn = hom_basis(projective_module(alg, "2"), simple_module(alg, "2"))[0]
    Path("dn.json").write_text(
        canonical_json(morphism_with_endpoints_to_dict(dn)))
    a3, m3 = ["--algebra", "a3.json"], ["--m", "m3.json", "--n", "2"]
    commands = {
        "algebra-check": ["algebra", "check", *a3],
        "nct-check": ["nct", "check", *a3, *m3],
        "ncoker": ["ncoker", *a3, "--morphism", "d0.json", *m3],
        "nkernel": ["nkernel", *a3, "--morphism", "dn.json", *m3],
        "verify-nexact": ["verify-nexact", *a3, "--complex", "good.json", *m3],
        "npushout": ["npushout", *a3, "--complex", "upper.json",
                     "--morphism", "d0.json", "--m", "m3.json"],
        "ext-compare": ["ext", "compare", *a3, "--a", "s1.json",
                        "--b", "s0.json", *m3, "--k", "1"],
        "search-nct": ["search", "nct", *a3, "--n", "2"],
    }
    for name, argv in commands.items():
        assert run(*argv, "--out", "pinned") == 0, name
        assert sha256(f"pinned/{name}.cert.json") == FILE_SHA256[name], name


# algebra check on algebras whose ideal is more than its relations: the
# mesh relations generate products of length 3 and more.  Digests recorded
# with the dict-based closure that the shared row reduction replaced.
ALGEBRA_CHECK_SHA256 = {
    "pi3-p101.json": (lambda: gen_preprojective_A(3, 101),
                      "b22f1d994bd4799d48966f4146b89ddc41bf3aae96351b8953d3e3568a3e6642"),
    "pi3-p2.json": (lambda: gen_preprojective_A(3, 2),
                    "23e0213bdc3f5722f53fdad035919ccc1b7320c0d5482876fdc973840b930f1d"),
    "aus4-p101.json": (lambda: gen_auslander_linear_A(4, 101),
                       "8151d11a651b889db747003e6ccb0f6e852d7558f4397c72596c1ff210b138d3"),
    "aus4-p2147483647.json": (
        lambda: gen_auslander_linear_A(4, 2147483647),
        "b299d571d96851d89e2edf79e4ec81925dac2eb13bee80ce890326f24b534960"),
}


@pytest.mark.parametrize("name", sorted(ALGEBRA_CHECK_SHA256))
def test_algebra_check_certificate_bytes(tmp_path, monkeypatch, name):
    # relative path: the certificate records its --algebra argument
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NEXAKT_SEED", raising=False)
    make, digest = ALGEBRA_CHECK_SHA256[name]
    dump_algebra(make(), name)
    assert run("algebra", "check", "--algebra", name) == 0
    assert sha256("certs/algebra-check.cert.json") == digest


def test_setup_error_exits_1_with_fail_certificate(files, tmp_path):
    # K A_3/J^2 is not selfinjective: before the command table this exited
    # 2 with "algebra not selfinjective: I_2 is not projective" and wrote
    # no certificate
    _, gens = gen_linear_An_J2(2, 1)
    m_path = tmp_path / "m_a3.json"
    m_path.write_text(canonical_json(
        {"generators": [module_to_dict(g) for g in gens]}))
    assert run("frobenius", "setup", "--algebra", files["algebra"],
               "--m", m_path, "--n", 2, "--out", files["out"]) == 1
    cert = json.loads((files["out"] / "frobenius-setup.cert.json").read_text())
    assert cert["verdict"] is False
    assert cert["params"] == {"n": 2}
    assert sorted(cert["inputs"]) == ["algebra", "generators"]
    assert cert["witnesses"] == {"failure": {
        "exception": "SetupError", "degree": None,
        "message": "algebra not selfinjective: I_2 is not projective"}}


def test_hypothesis_error_records_degree(files, monkeypatch, capsys):
    from nexakt import cli
    from nexakt.addcat import HypothesisError

    def stuck(*args, **kwargs):
        raise HypothesisError("factorization stuck at degree 3", degree=3)

    monkeypatch.setattr(cli, "verify_n_exact", stuck)
    assert run("verify-nexact", "--algebra", files["algebra"], "--complex",
               files["good_complex"], "--m", files["m3"], "--n", 2,
               "--out", files["out"], "--format", "json") == 1
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] is False
    assert cert["witnesses"]["failure"] == {
        "exception": "HypothesisError", "degree": 3,
        "message": "factorization stuck at degree 3"}


def test_readme_usage_matches_parser(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    usage = readme.read_text().split("## Command-line usage", 1)[1]
    usage = usage.split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in usage.splitlines() if ln.startswith("nexakt ")]
    assert len(lines) >= 17
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        capsys.readouterr()
        assert main(argv + ["--help"]) == 0, line
        help_text = capsys.readouterr().out
        for flag in (a for a in argv if a.startswith("--")):
            assert flag in help_text, (line, flag)


def test_certificate_roundtrip_reverifies(files):
    # the embedded inputs re-load and re-verify to the recorded verdict
    from nexakt.addcat import add_category
    from nexakt.fileio import algebra_from_dict, module_from_dict
    from nexakt.tilting import check_n_cluster_tilting
    from nexakt.presets import nakayama_indecomposables
    from nexakt.certs import content_hash
    assert run("nct", "check", "--algebra", files["algebra"],
               "--m", files["m3"], "--n", 2, "--out", files["out"]) == 0
    cert = json.loads((files["out"] / "nct-check.cert.json").read_text())
    alg_entry = cert["inputs"]["algebra"]
    assert content_hash(alg_entry["content"]) == alg_entry["sha256"]
    alg = algebra_from_dict(alg_entry["content"])
    gens = [module_from_dict(g, alg)
            for g in cert["inputs"]["generators"]["content"]]
    cat = add_category(alg, gens, seed=cert["seed"])
    report = check_n_cluster_tilting(cat, cert["params"]["n"],
                                     nakayama_indecomposables(alg),
                                     seed=cert["seed"])
    assert report.ok == cert["verdict"]


def _algebra_with(tmp_path, **changes):
    data = algebra_to_dict(gen_linear_An_J2(2, 1)[0])
    data.update(changes)
    path = tmp_path / "changed.json"
    path.write_text(canonical_json(data))
    return ["algebra", "check", "--algebra", path]


def _morphism_without_source(files, tmp_path):
    data = json.loads(files["d0"].read_text())
    del data["source"]
    path = tmp_path / "no_source.json"
    path.write_text(canonical_json(data))
    return ["ncoker", "--algebra", files["algebra"], "--morphism", path,
            "--m", files["m3"], "--n", 2]


def _search_a12_j3(files, tmp_path):
    # n = 1 prunes nothing: K A_12/J^3 leaves 21 candidates, above the limit
    from test_presets import linear_an_j3
    path = tmp_path / "a12-j3.json"
    dump_algebra(linear_an_j3(12), path)
    return ["search", "nct", "--algebra", path, "--n", 1]


def _generator(module):
    """nct check with one generator read from the given module dict."""
    def argv(files, tmp_path):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"generators": [module]}))
        return ["nct", "check", "--algebra", files["algebra"], "--m", path,
                "--n", 2]
    return argv


def _morphism_with(components):
    """ncoker on d0 with its components updated from the given dict."""
    def argv(files, tmp_path):
        data = json.loads(files["d0"].read_text())
        data["components"].update(components)
        path = tmp_path / "changed_d0.json"
        path.write_text(json.dumps(data))
        return ["ncoker", "--algebra", files["algebra"], "--morphism", path,
                "--m", files["m3"], "--n", 2]
    return argv


def _complex_file(tmp_path, data):
    path = tmp_path / "complex.json"
    path.write_text(canonical_json(data))
    return path


def _one_term_pushout(files, tmp_path):
    s0 = json.loads(files["d0"].read_text())["source"]
    path = _complex_file(tmp_path, {"lo": 0, "terms": [s0], "differentials": []})
    return ["npushout", "--algebra", files["algebra"], "--complex", path,
            "--morphism", files["d0"], "--m", files["m3"]]


def _one_term_one_differential(files, tmp_path):
    path = _complex_file(tmp_path, {"lo": 0, "terms": [{"dims": {"0": 1}}],
                                    "differentials": [{"components": {}}]})
    return ["verify-nexact", "--algebra", files["algebra"], "--complex", path,
            "--m", files["m3"], "--n", 2]


@pytest.mark.parametrize("argv", [
    lambda files, tmp: _algebra_with(tmp, field={"p": 100}),
    lambda files, tmp: _algebra_with(tmp, field={"p": "101"}),
    lambda files, tmp: _algebra_with(tmp, nilpotency_bound=0),
    lambda files, tmp: ["demo", "a3-j2", "--p", 100],
    lambda files, tmp: ["demo", "a3-j2", "--n", 0],
    lambda files, tmp: ["nct", "check", "--algebra", files["algebra"],
                        "--m", files["m3"], "--n", 0],
    _morphism_without_source,
    lambda files, tmp: ["ext", "compare", "--algebra", files["algebra"],
                        "--a", files["s1"], "--b", files["s0"],
                        "--m", files["m3"], "--n", 2, "--k", 2],
    lambda files, tmp: ["nct", "check", "--algebra", files["algebra"],
                        "--m", files["m3"], "--n", 2, "--indecs", files["bad_m"]],
    _search_a12_j3,
    _generator({"dims": {"0": 1, "9": 4}}),
    _generator({"dims": {"0": 1}, "arrows": {"zz": [1, 2]}}),
    _generator({"dims": {"0": 1, "1": 1}, "arrows": {"a1": [1.5]}}),
    _generator({"dims": {"0": 1.9}}),
    _generator({"dims": {"0": True}}),
    _generator({"dims": {"0": "1"}}),
    _morphism_with({"9": [1]}),
    _morphism_with({"0": [True]}),
    lambda files, tmp: ["verify-nexact", "--algebra", files["algebra"],
                        "--complex", files["upper"], "--m", files["m3"],
                        "--n", 2],
    _one_term_pushout,
    _one_term_one_differential,
], ids=["p-100", "p-string", "nilpotency-bound-0", "demo-p-100",
        "demo-n-0", "nct-n-0", "morphism-without-source", "ext-k-above-n-1",
        "indecs-without-s2", "search-over-20-candidates",
        "module-unknown-vertex", "module-unknown-arrow", "module-float-entry",
        "module-float-dim", "module-bool-dim", "module-string-dim",
        "morphism-unknown-vertex", "morphism-bool-entry",
        "nexact-three-terms-n-2", "pushout-one-term",
        "complex-one-term-one-differential"])
def test_bad_input_exits_2(files, tmp_path, capsys, argv):
    code = run(*argv(files, tmp_path), "--out", files["out"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    assert not files["out"].exists()


def _algebra_with_coeff(tmp_path, coeff):
    data = algebra_to_dict(gen_linear_An_J2(2, 1)[0])
    data["relations"][0][0]["coeff"] = coeff
    return _algebra_with(tmp_path, relations=data["relations"])


def _one_vertex_loops(tmp_path, arrows, relations, bound):
    path = tmp_path / "loops.json"
    path.write_text(canonical_json({
        "field": {"p": 101},
        "quiver": {"vertices": ["1"],
                   "arrows": [{"name": a, "from": "1", "to": "1"} for a in arrows]},
        "relations": [[{"coeff": c, "path": list(w)} for c, w in r]
                      for r in relations],
        "nilpotency_bound": bound}))
    return ["algebra", "check", "--algebra", path]


@pytest.mark.parametrize("argv, words", [
    (lambda tmp: _algebra_with(tmp, quiver={
        "vertices": ["1", "2", "3"],
        "arrows": [{"name": "a", "from": "1", "to": "2"},
                   {"name": "b", "from": "2", "to": "3"}]},
        relations=[[{"coeff": 1, "path": ["a", "b"]},
                    {"coeff": 100, "path": ["a", "b"]}]], nilpotency_bound=3),
     "relation term ('a', 'b') is listed twice"),
    (lambda tmp: _one_vertex_loops(tmp, "x", [[(1, "xxxx")]], 3),
     "relation term ('x', 'x', 'x', 'x') is longer than the nilpotency bound 3"),
    (lambda tmp: _one_vertex_loops(
        tmp, "xy", [[(1, "xy"), (100, "yx")], [(1, "xx"), (100, "yyy")],
                    [(1, "yyyy")]], 3),
     "relation term ('y', 'y', 'y', 'y') is longer than the nilpotency bound 3"),
], ids=["path-listed-twice", "x4-bound-3", "two-loops-bound-3"])
def test_bad_relation_exits_2(tmp_path, capsys, argv, words):
    # the first was read as {word: coeff} (dimension 5, not 6); the others
    # exited 2 with "algebra definition missing field: PathWord(...)"
    out = tmp_path / "out"
    code = run(*argv(tmp_path), "--out", out)
    _assert_input_error(code, capsys, f"bad algebra definition: {words}")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    lambda tmp: _algebra_with_coeff(tmp, True),
    lambda tmp: _algebra_with_coeff(tmp, 1.0),
    lambda tmp: _algebra_with(tmp, nilpotency_bound=3.0),
    lambda tmp: _algebra_with(tmp, nilpotency_bound=True),
    lambda tmp: _algebra_with(tmp, field={"p": 101.0}),
], ids=["coeff-bool", "coeff-float", "nilpotency-bound-float",
        "nilpotency-bound-bool", "p-float"])
def test_algebra_field_that_is_no_integer_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code = run(*argv(tmp_path), "--out", out)
    err = capsys.readouterr().err
    assert code == 2
    assert "must be JSON integers" in err and "Traceback" not in err
    assert not out.exists()
