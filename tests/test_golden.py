"""Pinned digests of the structured output of every fixture.

Each entry is the exit code and the sha256 of what
``solvhull <command> --fixture <name> --format structured`` prints, for
the ten fixtures and the five commands that compute cohomology, the
invariant model, formality, hard Lefschetz and the full analysis.  Any
change in a basis, a representative, a Massey witness or a verdict
changes a digest; a failure names the document.
"""

import hashlib

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
    },
    "almost_abelian": {
        "cohomology": (0, "18ec9bb50200ac1c31a2125c9e93a4f03fbbfd5b95fc5bd50b7fe6f179350875"),
        "invariants": (0, "8371ba25992924a44db3a56022afa1133b65c336e6576125f02f9523447fbacf"),
        "formality": (0, "390aea778076ced8b4ee396a2abfc0d6e94b7a1ec7553cc7d3bcb3d6af141a3a"),
        "lefschetz": (0, "ad5762b3c76d7b87a571dadfda677b21390ed65424e96afdec2f8a883a2868ae"),
        "analyze": (0, "42150d42d3241436642a14df8ed17ac0113d4940dbc6e50f9c50b30f6e80bd77"),
    },
    "complex_sol": {
        "cohomology": (0, "fdfe3ed5519b44e42f408e3e19285ff574af6568f5048ae22f2dda1b5962a4c8"),
        "invariants": (0, "32bcd7003827ebe2439f651869b1b7251a9266cc15ce13fd59be95a9e1a08b78"),
        "formality": (0, "c797f28fc2fcda961147c1205cde9c472546c1591e9eb5aac43d73401eca95e6"),
        "lefschetz": (0, "18319f8fbeb5a4f6621463934eca61206b9c60b25f6fa63e975cae9466d4ce78"),
        "analyze": (0, "1d4a7e81ba9998626c46056be9d92c3ff2569ee1f50851248af9c656de15538f"),
    },
    "filiform4": {
        "cohomology": (0, "896781434657298250192ed4a23b68e26fb9995b8680a5e6aebf61668f02e40c"),
        "invariants": (0, "f0217987be474b1e29bc9eaaf988e5246b3c588169af68d1be2f2b37c2a5a572"),
        "formality": (0, "e2ef87b497100660aac2baca4674490b5184097c763d743e523bae14b6f21d52"),
        "lefschetz": (4, "ec6e272716c150648c0933e427165023a886e5123d050a325d0a2edb03759dd2"),
        "analyze": (0, "524107609a33de97407fa6659bfda5b5def3b5584dfeebcfaf56bf317a23d4c4"),
    },
    "heisenberg": {
        "cohomology": (0, "a2923b1c00a7cc6fc4b4ab923c12797eddba2140d11663d5198dcd03cfee2ed1"),
        "invariants": (0, "ac851ddbcdc6424c4e0402c875b7234fad14dbfcbc107c0ae3e855bebbeda7f7"),
        "formality": (0, "7e5aeeafce01435f40e241fd5366f723c15947e9c5e74c769398a0635d966415"),
        "lefschetz": (4, "cf5ac1043d420d738bb776b77e80c2273b284df7fbe0905dc48dbc6205f67bb8"),
        "analyze": (0, "b614d57d6670025e265836c9024b823fb0595b1eb50babd9e282ea904dc156fe"),
    },
    "kodaira_thurston": {
        "cohomology": (0, "68c2b8e8f76273058e87e0b83fcae12ddf1bf4d5c66e5d72e706f642183b0bcf"),
        "invariants": (0, "9d0e41899acc5bde94372d3191efa4acd97b3495e06c51adadde970707970e17"),
        "formality": (0, "1336ab8bceebe12ad87aa43007aad09801beb187cb66ed83d7b160e66b99650f"),
        "lefschetz": (0, "728bce3aed3b202c8dfeabb1dcc7e30f786b2fc3966b62802428b0392a586697"),
        "analyze": (0, "2784b232ae42fba083f9c9383388c847617a624b248f5162105f334c17dd844a"),
    },
    "rotation": {
        "cohomology": (0, "6d04e7ed6472227dd682b90b33c37014fce8bdd70b5403d1d096fea92a30abf6"),
        "invariants": (0, "a72dff9866c8f9bd6e8e2ac5f2efa54b23cb5a8c5aafed489673cc8c065fdb93"),
        "formality": (0, "e2af5f835a08bb4c80fe9dbcf2d3c52f72d227133a23a5f17e8ec671ec23bdd6"),
        "lefschetz": (4, "4018f2081c606f2c3d10bb44f833e7ba73163614faec541f4e408c6e9788be20"),
        "analyze": (0, "93d8fb62420430369ceab699556673ba4daa4ffa19f54ae09dbbd525a1759916"),
    },
    "sol": {
        "cohomology": (0, "34e8c5cced1998283a1d1178f43b03037a0907dde54fe98813da64f80715d33c"),
        "invariants": (0, "fd87ebe4df65a52d2c86aaf29cf0a77a6582601c724249353e78d58b28acf1aa"),
        "formality": (0, "6db856f6019211364849dd6df4e8ac479392da24522ef5c68f0a9a50e816fc23"),
        "lefschetz": (4, "9f5c3c2590c521f2fa76eb3a27c7e54e3acda7d6b81a4b1672cd990ce4433a45"),
        "analyze": (0, "ae3486f9285260d5160cdc5d2415ae7b0bad39e00816202049e42937e417327f"),
    },
    "twisted_heisenberg": {
        "cohomology": (0, "fee8e1ad5cd90c03647e2df1500c311c1257293205b9f82b338b85d8b07b597f"),
        "invariants": (0, "f99f3add0896af4e61241a66f168b2ffdd13b71031c188fadeefcde83d70b336"),
        "formality": (0, "3a13fecd040eca3d8497ed8ff43076287fbadaf95d9693b46d837f323b66db1b"),
        "lefschetz": (4, "a42e512ccdfe03d34cb78f00ac9f02dd0fe3dad3912c2883955d431c7d5d83bf"),
        "analyze": (0, "5d4e96956131f667364ba070680a2634ca4200f8b1cdf501fbb1c54dcfe577c9"),
    },
    "twisted_kodaira_thurston": {
        "cohomology": (0, "1f099d480bd61d3e1e82a9ba1d7b8388ee51a5ac83e4980be0bd0dfae2b08206"),
        "invariants": (0, "1ccccd998764de361a91f659c8352f1c2d6d28e95c47dad61613d5de97e48073"),
        "formality": (0, "313678894e8d0dc2bc2e998760c8c8f0ffa514fe8108e971428ce9a70e6964d5"),
        "lefschetz": (0, "0d25b3659cc16d464c7e2c80ec21da8d13a14695fa20b054fc3fcbeebbb4fb23"),
        "analyze": (0, "ff9ce85e26ac8c96529c05c5b92ebb7b1155f8a2d6f09e8f9aceea7a9f8072b4"),
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
