"""Pinned digests of the structured output of every fixture.

Each entry is the exit code and the sha256 of what
``solvhull <command> --fixture <name> --format structured`` prints, for
the ten fixtures and the seven commands that compute the nilradical, the
hull, cohomology, the invariant model, formality, hard Lefschetz and the
full analysis.  Any change in a basis, a representative, a Massey
witness or a verdict changes a digest; a failure names the document.

A second table pins the error paths of the model commands: inputs that
are not solvable, hull overrides that fail validation, and a finite
generator of infinite order.
"""

import hashlib
import json

import pytest

from solvhull.cli import main
from solvhull.fixtures import FIXTURES

GOLDEN = {
    "abelian": {
        "cohomology": (0, "bdb2064d538ed6367f3bfb56f59f3fd95592128a9f7618d03ea7672af3ab4161"),
        "invariants": (0, "eeeff03086f9bd86b9d7cbcf79250a546de9f430a6d401467bd68e7d6477e29a"),
        "formality": (0, "ff1073b01be9dda680327bf128cd3c9bf17aa569bf5b6e13dad086cde4d894b0"),
        "lefschetz": (4, "93bcd8a94ef3436cacab1602dec8568e26fd1362167f485c3567108266f9eebe"),
        "analyze": (0, "f78b533c08022ff66925c45b4af575130dd832b0e5bb5ad5215525fb459583db"),
        "hull": (0, "b6fba1613712bf3a97202dd8e6d309868a4b09c29ae3c4ca3ef41675570cdbf5"),
        "nilradical": (0, "3f512f16a8512a022d6bf82837922d07c5f1c57d864502a7bc9a41e999d0f1de"),
    },
    "almost_abelian": {
        "cohomology": (0, "18ec9bb50200ac1c31a2125c9e93a4f03fbbfd5b95fc5bd50b7fe6f179350875"),
        "invariants": (0, "8371ba25992924a44db3a56022afa1133b65c336e6576125f02f9523447fbacf"),
        "formality": (0, "390aea778076ced8b4ee396a2abfc0d6e94b7a1ec7553cc7d3bcb3d6af141a3a"),
        "lefschetz": (0, "ad5762b3c76d7b87a571dadfda677b21390ed65424e96afdec2f8a883a2868ae"),
        "analyze": (0, "42150d42d3241436642a14df8ed17ac0113d4940dbc6e50f9c50b30f6e80bd77"),
        "hull": (0, "9b780741d02b5a40ee8c0dcbbf2d0c50e9b1be90d8b83f6e7baf5fffac41596c"),
        "nilradical": (0, "5c33fa930a3999f65be1e2342c1b345d5c40df937db62dae4668fb6ff6359bd7"),
    },
    "complex_sol": {
        "cohomology": (0, "fdfe3ed5519b44e42f408e3e19285ff574af6568f5048ae22f2dda1b5962a4c8"),
        "invariants": (0, "32bcd7003827ebe2439f651869b1b7251a9266cc15ce13fd59be95a9e1a08b78"),
        "formality": (0, "c797f28fc2fcda961147c1205cde9c472546c1591e9eb5aac43d73401eca95e6"),
        "lefschetz": (0, "18319f8fbeb5a4f6621463934eca61206b9c60b25f6fa63e975cae9466d4ce78"),
        "analyze": (0, "1d4a7e81ba9998626c46056be9d92c3ff2569ee1f50851248af9c656de15538f"),
        "hull": (0, "bcb6c7ceb1c210cb925d1ed07c5c3479bb764acaea3a6ba947cdaad33dc27dc1"),
        "nilradical": (0, "93871e1a916230b030114a01ebea79a3e0e5c4f7bd5518e7256f0182541a6c72"),
    },
    "filiform4": {
        "cohomology": (0, "896781434657298250192ed4a23b68e26fb9995b8680a5e6aebf61668f02e40c"),
        "invariants": (0, "f0217987be474b1e29bc9eaaf988e5246b3c588169af68d1be2f2b37c2a5a572"),
        "formality": (0, "e2ef87b497100660aac2baca4674490b5184097c763d743e523bae14b6f21d52"),
        "lefschetz": (4, "ec6e272716c150648c0933e427165023a886e5123d050a325d0a2edb03759dd2"),
        "analyze": (0, "524107609a33de97407fa6659bfda5b5def3b5584dfeebcfaf56bf317a23d4c4"),
        "hull": (0, "5c5efcd6c6127133e08590207f2897742e34cb6317517e9fb728352ca4b0904e"),
        "nilradical": (0, "676be683b815aa8ecbfbe9158dd7f0edb52049f608202f99ce9c5d52785f3d68"),
    },
    "heisenberg": {
        "cohomology": (0, "a2923b1c00a7cc6fc4b4ab923c12797eddba2140d11663d5198dcd03cfee2ed1"),
        "invariants": (0, "ac851ddbcdc6424c4e0402c875b7234fad14dbfcbc107c0ae3e855bebbeda7f7"),
        "formality": (0, "7e5aeeafce01435f40e241fd5366f723c15947e9c5e74c769398a0635d966415"),
        "lefschetz": (4, "cf5ac1043d420d738bb776b77e80c2273b284df7fbe0905dc48dbc6205f67bb8"),
        "analyze": (0, "b614d57d6670025e265836c9024b823fb0595b1eb50babd9e282ea904dc156fe"),
        "hull": (0, "aa167a051eef62ae665c46fd35cd7a61e063a24d022913be0a10151378c5281e"),
        "nilradical": (0, "9bc7a3f7762d15d468217ff6e4151b614d1752ca22708415fbcf7a2c6b858198"),
    },
    "kodaira_thurston": {
        "cohomology": (0, "68c2b8e8f76273058e87e0b83fcae12ddf1bf4d5c66e5d72e706f642183b0bcf"),
        "invariants": (0, "9d0e41899acc5bde94372d3191efa4acd97b3495e06c51adadde970707970e17"),
        "formality": (0, "1336ab8bceebe12ad87aa43007aad09801beb187cb66ed83d7b160e66b99650f"),
        "lefschetz": (0, "728bce3aed3b202c8dfeabb1dcc7e30f786b2fc3966b62802428b0392a586697"),
        "analyze": (0, "2784b232ae42fba083f9c9383388c847617a624b248f5162105f334c17dd844a"),
        "hull": (0, "1a9fd012080d9e9bf7be25d2d3852ba524047382a85606f3217461a2457db24a"),
        "nilradical": (0, "6ad8ec0443475c2faf7e01a3f9804b474395d07eae6c20c242a9bb69bc4459be"),
    },
    "rotation": {
        "cohomology": (0, "6d04e7ed6472227dd682b90b33c37014fce8bdd70b5403d1d096fea92a30abf6"),
        "invariants": (0, "a72dff9866c8f9bd6e8e2ac5f2efa54b23cb5a8c5aafed489673cc8c065fdb93"),
        "formality": (0, "e2af5f835a08bb4c80fe9dbcf2d3c52f72d227133a23a5f17e8ec671ec23bdd6"),
        "lefschetz": (4, "4018f2081c606f2c3d10bb44f833e7ba73163614faec541f4e408c6e9788be20"),
        "analyze": (0, "93d8fb62420430369ceab699556673ba4daa4ffa19f54ae09dbbd525a1759916"),
        "hull": (0, "f99abbd1b55058217b847732621fc239ca0ef043c25d21895b129ec6f89342db"),
        "nilradical": (0, "879115a04ed6b5128347d5d9262fa5e8a47b7d4cfd0375f64e8de9f4f49f4392"),
    },
    "sol": {
        "cohomology": (0, "34e8c5cced1998283a1d1178f43b03037a0907dde54fe98813da64f80715d33c"),
        "invariants": (0, "fd87ebe4df65a52d2c86aaf29cf0a77a6582601c724249353e78d58b28acf1aa"),
        "formality": (0, "6db856f6019211364849dd6df4e8ac479392da24522ef5c68f0a9a50e816fc23"),
        "lefschetz": (4, "9f5c3c2590c521f2fa76eb3a27c7e54e3acda7d6b81a4b1672cd990ce4433a45"),
        "analyze": (0, "ae3486f9285260d5160cdc5d2415ae7b0bad39e00816202049e42937e417327f"),
        "hull": (0, "e970975bc155eacda237dbdfa752b541ad494c0b5af6c46af025cab394e35d00"),
        "nilradical": (0, "3cff66709bf61355fea607a47bc7080bfa66751b195ebe1d9b62cecab5ddfcf7"),
    },
    "twisted_heisenberg": {
        "cohomology": (0, "fee8e1ad5cd90c03647e2df1500c311c1257293205b9f82b338b85d8b07b597f"),
        "invariants": (0, "f99f3add0896af4e61241a66f168b2ffdd13b71031c188fadeefcde83d70b336"),
        "formality": (0, "3a13fecd040eca3d8497ed8ff43076287fbadaf95d9693b46d837f323b66db1b"),
        "lefschetz": (4, "a42e512ccdfe03d34cb78f00ac9f02dd0fe3dad3912c2883955d431c7d5d83bf"),
        "analyze": (0, "5d4e96956131f667364ba070680a2634ca4200f8b1cdf501fbb1c54dcfe577c9"),
        "hull": (0, "4df140034344d9d978c00b02070adc5da72752662e621ccf8aa4ed1d6c43edc0"),
        "nilradical": (0, "b0d513da99cbb97d070678cd6fe0423a06f0d6e1686b13e50f956a4f4f973cb4"),
    },
    "twisted_kodaira_thurston": {
        "cohomology": (0, "1f099d480bd61d3e1e82a9ba1d7b8388ee51a5ac83e4980be0bd0dfae2b08206"),
        "invariants": (0, "1ccccd998764de361a91f659c8352f1c2d6d28e95c47dad61613d5de97e48073"),
        "formality": (0, "313678894e8d0dc2bc2e998760c8c8f0ffa514fe8108e971428ce9a70e6964d5"),
        "lefschetz": (0, "0d25b3659cc16d464c7e2c80ec21da8d13a14695fa20b054fc3fcbeebbb4fb23"),
        "analyze": (0, "ff9ce85e26ac8c96529c05c5b92ebb7b1155f8a2d6f09e8f9aceea7a9f8072b4"),
        "hull": (0, "25e578c23146acd9b3c928503f83fa5f3566b00b2ffd641ecb8cfc56d0d4cca3"),
        "nilradical": (0, "dd4aadd5c32a7233c6d5e98063255cf33267b6931d7c9618a3f471a607a8f59f"),
    },
}

CASES = [(name, command) for name in sorted(GOLDEN) for command in GOLDEN[name]]


def test_every_fixture_is_pinned():
    assert sorted(GOLDEN) == sorted(FIXTURES)


@pytest.mark.parametrize("name, command", CASES, ids=[f"{c}/{n}" for n, c in CASES])
def test_structured_output_digest(name, command, capsys):
    code = main([command, "--fixture", name, "--format", "structured"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[name][command], \
        f"structured output of `{command} --fixture {name}` changed"


def _document(basis, brackets, omega=None, override=None):
    doc = {"schema_version": 1,
           "algebra": {"dim": len(basis), "basis": basis,
                       "brackets": [{"i": i, "j": j, "coeffs": c} for i, j, c in brackets]}}
    if override is not None:
        doc["hull_override"] = override
    if omega is not None:
        doc["omega"] = [{"i": i, "j": j, "coeff": c} for i, j, c in omega]
    return doc


SL2 = [(1, 2, ["0", "2", "0"]), (1, 3, ["0", "0", "-2"]), (2, 3, ["1", "0", "0"])]
SOL = [(1, 2, ["0", "1", "0"]), (1, 3, ["0", "0", "-1"])]
NO_ACTION = {"torus_derivations": [], "finite_generators": []}
SHEAR = {"torus_derivations": [], "finite_generators": [[["1", "1"], ["0", "1"]]]}

# name -> (document, extra command-line arguments)
ERROR_DOCUMENTS = {
    # not solvable: no model; analyze still reports, the model commands exit 4
    "sl2": (_document(["h", "e", "f"], SL2), []),
    "sl2_omega": (_document(["h", "e", "f"], SL2, omega=[(1, 2, "1")]), []),
    # hull overrides on algebras that are not nilpotent: validate_hull_data's
    # StructureError (exit 3) comes before anything else, the nilradical of
    # a non-solvable algebra included, and before the lefschetz omega check
    "override_sl2": (_document(["h", "e", "f"], SL2, override=NO_ACTION), []),
    "override_sol": (_document(["t", "x", "y"], SOL, override=NO_ACTION), []),
    "override_sol_omega": (_document(["t", "x", "y"], SOL, omega=[(2, 3, "1")],
                                     override=NO_ACTION), []),
    # a shear generates an infinite group: the enumeration bound stops it (exit 4)
    "infinite_generator": (_document(["x", "y"], [], omega=[(1, 2, "1")], override=SHEAR),
                           ["--finite-bound", "50"]),
}

ERROR_GOLDEN = {
    "sl2": {
        "invariants": (4, "f98e404e6df1bc5a1292f054d54eea9f3239db1e5498cb456c468929e86c4e69"),
        "formality": (4, "2f1d60a646b212a4148730ac7f9057fd4e35f3433d64d27681e0e9eb8ce36764"),
        "lefschetz": (4, "93c1cd484a3c3c8acded7f0e12e6b4e5dd6ad98f4d1499347e44c6f34d289155"),
        "analyze": (0, "7f17ae304d93f48bf3679d8f5b04909c897972de3ac78914376e60a9e513ec4b"),
    },
    "sl2_omega": {
        "invariants": (4, "081cbce51aad8c223d9ee60e8c7f411835cc8c6e685c524ccc9112f29dbc3b50"),
        "formality": (4, "bc55162fdd1b8b79cad505b2eed5d63498ac703ee86e0c88e5abac892b181f3e"),
        "lefschetz": (4, "8e0ca4a3f27358d6e3fffd8985b78a0817068aa1bb697a0ec804ae2a72d56991"),
        "analyze": (0, "57f7aeccf52aad9a14f768e41812647ac1dcd78cc12e23f196807e8300cf7407"),
    },
    "override_sl2": {
        "invariants": (3, "ceb5d4ecb63e998d87635ec933e8904568d3752e6a4006f3a837ac4b260b3438"),
        "formality": (3, "eb60076c91470f1337d44321f5a47d0e0fc1a1d29cf38ebc61fa91dad27ed2d8"),
        "lefschetz": (3, "06e7e6b3405bac2a3f85fbbd2bb4bdbdabfd213354aedadd296e713efde5806b"),
        "analyze": (3, "a435fd90ec9a4276c40767c1241d482a0dbcc4d95048619ec3662e5e9d0ff946"),
    },
    "override_sol": {
        "invariants": (3, "2132e30d6c727ae13282b63b0a2c5ce9b7740086fee2a6f0285747ea64a2defc"),
        "formality": (3, "cc78bc9750a688e37307b51beefce608c395b4bbd02e0a54930f7259f80b5e8f"),
        "lefschetz": (3, "0340eb268dbadc17dd80b4d3523bd075929431694e06dd7ffe6282bb33fdf7d6"),
        "analyze": (3, "4b531c06d8b0cc10490a1dbc32f7865dc7cac25043bc174557a8409db69e8aad"),
    },
    "override_sol_omega": {
        "invariants": (3, "20da07f924fea39e65b0d093926156e68f8ecdd5e2ec63fd745d307091733681"),
        "formality": (3, "fd66e7966d689ffa2f2ccc66ca8e01fd9aa717d3e833ba6295084d218fac890a"),
        "lefschetz": (3, "33d3d2742e97b975c9b3353e6edd14ce0ebc8c52263a2903594eaddad8cccbc6"),
        "analyze": (3, "867b37625960eff59cfcf841972d593d72239b6a41644c604c21d645c04da542"),
    },
    "infinite_generator": {
        "invariants": (4, "1519b21164c374c358148c7cf93e9e7df05d7d05d141a7361cb91f01f27bf7b6"),
        "formality": (4, "f350cff73b970e7ea6b57ca0272b03506b3f4b921ea809cf21574cff2a1c9f68"),
        "lefschetz": (4, "00f23a8e2559c2f94f67121bbdd2ea7dcb9dcf3ff3df6eaf61c9a9d414a5ae62"),
        "analyze": (4, "9cc95ed802018c9fe80da5df0914e2b628c98ddf2f160e8467d8e06ac312f5e7"),
    },
}

ERROR_CASES = [(name, command) for name in sorted(ERROR_GOLDEN) for command in ERROR_GOLDEN[name]]


def test_every_error_document_is_pinned():
    assert sorted(ERROR_GOLDEN) == sorted(ERROR_DOCUMENTS)


@pytest.mark.parametrize("name, command", ERROR_CASES, ids=[f"{c}/{n}" for n, c in ERROR_CASES])
def test_error_path_digest(name, command, tmp_path, capsys):
    doc, extra = ERROR_DOCUMENTS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([command, str(path), "--format", "structured", *extra])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == ERROR_GOLDEN[name][command], \
        f"structured output of `{command}` on the {name} document changed"
