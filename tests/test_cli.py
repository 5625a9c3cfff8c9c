import hashlib
import json
from pathlib import Path

import pytest

from toricweights import cli, vectors, weights
from toricweights.cli import EXIT_CAP, EXIT_FAIL, EXIT_INPUT, EXIT_PASS, main

DATA = Path(__file__).parent.parent / "data"


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def run_machine(capsys, *args):
    code, out = run(capsys, *args, "--format", "machine")
    return code, json.loads(out)


def test_check_square(capsys):
    code, doc = run_machine(capsys, "check", "--input", str(DATA / "unit_square.json"))
    assert code == EXIT_PASS
    assert doc["delzant"] is True
    assert doc["volume"] == 2
    assert doc["boundary_volume"] == 4
    assert (doc["deg_chow"], doc["deg_hurwitz"]) == (2, 2)
    assert doc["num_lattice_points"] == 4
    assert doc["warnings"] == []


def test_check_non_delzant_names_vertex(capsys):
    code, doc = run_machine(capsys, "check", "--input", str(DATA / "non_delzant_triangle.json"))
    assert code == EXIT_PASS
    assert doc["delzant"] is False
    assert "(0, 1)" in doc["warnings"][0]
    bad = [r for r in doc["delzant_report"] if not r["ok"]]
    assert bad[0]["vertex"] == [0, 1]


def test_check_unit_simplex_degree_warning(capsys):
    code, doc = run_machine(capsys, "check", "--input", str(DATA / "unit_simplex.json"))
    assert code == EXIT_PASS
    assert doc["volume"] == 1
    assert any("degree" in w for w in doc["warnings"])


def test_check_skip_delzant(capsys):
    code, doc = run_machine(
        capsys, "check", "--input", str(DATA / "non_delzant_triangle.json"), "--skip-delzant-check"
    )
    assert code == EXIT_PASS
    assert doc["delzant"] is None
    assert doc["warnings"] == []


def test_skip_delzant_check_belongs_to_check(capsys, monkeypatch):
    # sha256 of `check --input data/non_delzant_triangle.json
    # --skip-delzant-check --format machine`, as it was when every
    # subcommand accepted the flag; the others now refuse it.
    monkeypatch.chdir(DATA.parent)
    code, out = run(capsys, "check", "--input", "data/non_delzant_triangle.json", "--skip-delzant-check",
                    "--format", "machine")
    assert code == EXIT_PASS
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ded3b5891010473c7fc74075c2879a553370f217ec2aa79a4fcc5ef4b34fdd02"
    )
    with pytest.raises(SystemExit) as exc:
        main(["triangulations", "--input", "data/non_delzant_triangle.json", "--skip-delzant-check"])
    assert exc.value.code == EXIT_INPUT
    assert "unrecognized arguments: --skip-delzant-check" in capsys.readouterr().err


def test_malformed_file_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [[0], [2],]}')
    code = main(["check", "--input", str(bad)])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert "line" in err and "column" in err


def test_degenerate_polytope_rejected(tmp_path, capsys):
    flat = tmp_path / "flat.json"
    flat.write_text('{"vertices": [[0, 0], [1, 1], [2, 2]]}')
    code = main(["check", "--input", str(flat)])
    assert code == EXIT_INPUT
    assert "full-dimensional" in capsys.readouterr().err


def test_boolean_coordinates_rejected(tmp_path, capsys):
    # JSON booleans are Python ints, but not integer coordinates.
    bools = tmp_path / "bools.json"
    bools.write_text('{"vertices": [[false, false], [true, false], [false, true]]}')
    assert main(["check", "--input", str(bools)]) == EXIT_INPUT
    assert "integer vectors" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value",
    [("--trials", "-3"), ("--max-triangulations", "-1"), ("--time-budget", "-0.5"), ("--time-budget", "nan")],
)
def test_negative_limits_rejected(capsys, flag, value):
    code = main(["verify", "--input", str(DATA / "unit_square.json"), flag, value])
    assert code == EXIT_INPUT
    assert flag in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["check", "--input", "/nonexistent/q.json"]) == EXIT_INPUT
    capsys.readouterr()


def test_triangulations_lists_witnesses(capsys):
    code, doc = run_machine(capsys, "triangulations", "--input", str(DATA / "segment2.json"))
    assert code == EXIT_PASS
    assert doc["count"] == 2
    for entry in doc["triangulations"]:
        assert max(entry["witness"]) == 0


def test_vectors_hurwitz(capsys):
    code, doc = run_machine(
        capsys, "vectors", "--input", str(DATA / "segment2.json"), "--kind", "hurwitz"
    )
    assert code == EXIT_PASS
    assert sorted(tuple(r["vector"]) for r in doc["vectors"]) == [(0, 2, 0), (1, 0, 1)]


@pytest.mark.parametrize("kind", ["gkz", "hurwitz"])
def test_vectors_prints_the_vectors_the_polytopes_hold(capsys, monkeypatch, kind):
    # Each entry's GKZ and Hurwitz vector is computed once, by build, and
    # `vectors` reads it off the polytope: computing it afresh made one more
    # call per entry.  Each hurwitz_vector call reads one gkz_vector.
    calls = []
    for name in ("gkz_vector", "hurwitz_vector"):
        original = getattr(vectors, name)
        counting = lambda tri, name=name, original=original: calls.append(name) or original(tri)
        monkeypatch.setattr(weights, name, counting)
        monkeypatch.setattr(vectors, name, counting)
        monkeypatch.setattr(cli, name, counting, raising=False)
    code, doc = run_machine(capsys, "vectors", "--input", str(DATA / "double_simplex.json"), "--kind", kind)
    assert code == EXIT_PASS
    ntri = len(doc["vectors"])
    assert ntri == 14
    assert (calls.count("gkz_vector"), calls.count("hurwitz_vector")) == (2 * ntri, ntri)


def test_vectors_boundary(capsys):
    code, doc = run_machine(
        capsys, "vectors", "--input", str(DATA / "segment2.json"), "--kind", "boundary"
    )
    assert code == EXIT_PASS
    assert [tuple(r["vector"]) for r in doc["vectors"]] == [(1, 0, 1), (1, 0, 1)]


def test_polytope_chow(capsys):
    code, doc = run_machine(
        capsys, "polytope", "--input", str(DATA / "segment2.json"), "--kind", "chow"
    )
    assert code == EXIT_PASS
    assert sorted(tuple(v) for v in doc["vertices"]) == [(1, 2, 1), (2, 0, 2)]
    assert doc["affine_dim"] == 1
    assert len(doc["vertex_certificates"]) == len(doc["vertices"])
    assert all(c is not None and max(c) == 0 for c in doc["vertex_certificates"])


def test_verify_segment(capsys):
    code, doc = run_machine(
        capsys, "verify", "--input", str(DATA / "segment2.json"), "--trials", "10"
    )
    assert code == EXIT_PASS
    assert doc["all_pass"] is True
    assert sorted(tuple(v) for v in doc["chow_vertices"]) == [(1, 2, 1), (2, 0, 2)]
    assert sorted(tuple(v) for v in doc["hurwitz_vertices"]) == [(0, 2, 0), (1, 0, 1)]
    witnesses = [t["witness"] for t in doc["triangulations"]]
    for kind in ("chow", "hurwitz"):
        certs = doc[f"{kind}_vertex_certificates"]
        assert len(certs) == len(doc[f"{kind}_vertices"])
        assert all(c in witnesses for c in certs)


def test_verify_cap_exceeded(capsys):
    code = main(
        ["verify", "--input", str(DATA / "unit_square.json"), "--max-triangulations", "1"]
    )
    assert code == EXIT_CAP
    assert "incomplete enumeration" in capsys.readouterr().err


def test_machine_output_is_byte_identical(capsys):
    args = ["verify", "--input", str(DATA / "unit_square.json"), "--seed", "5", "--trials", "7",
            "--format", "machine"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == EXIT_PASS
    assert out1 == out2


def test_machine_output_is_hash_seed_independent():
    # Byte-identical output across processes with different PYTHONHASHSEED:
    # no set-iteration order may leak into reports.  The child finds the
    # package under src/ also in a checkout without an install.
    import os
    import subprocess
    import sys

    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "toricweights", "verify", "--input",
             str(DATA / "double_simplex.json"), "--trials", "5", "--format", "machine"],
            capture_output=True, env=env, check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_human_output_runs(capsys):
    code, out = run(capsys, "check", "--input", str(DATA / "segment2.json"))
    assert code == EXIT_PASS
    assert "volume: 2" in out


def test_verify_exit_code_on_failure(monkeypatch, capsys):
    # Honest inputs never fail verification, so force a failing identity
    # report to exercise the exit-code mapping.
    import toricweights.cli as cli
    from toricweights.weights import IdentityFailure, IdentityReport

    def failing(analysis, trials=20, seed=0):
        return IdentityReport(seed, trials, len(analysis.enumeration), 1, [IdentityFailure(0, 0, "forced", 0, 1)])

    monkeypatch.setattr(cli, "verify_identities", failing)
    code, doc = run_machine(capsys, "verify", "--input", str(DATA / "segment2.json"))
    assert code == EXIT_FAIL
    assert doc["all_pass"] is False


def test_verify_prints_null_pairing_for_a_missing_triangulation(monkeypatch, capsys):
    # With a triangulation dropped from the enumeration, a lifting whose
    # lower hull is that triangulation has nothing to pair with and fails.
    import toricweights.cli as cli
    from toricweights.triangulation import Enumeration

    analyze = cli._analyze

    def dropping(args):
        a = analyze(args)
        entries = a.enumeration.entries[1:]
        return a._replace(enumeration=Enumeration(a.enumeration.config, entries))

    monkeypatch.setattr(cli, "_analyze", dropping)
    code, doc = run_machine(capsys, "verify", "--input", str(DATA / "segment2.json"), "--trials", "10")
    assert code == EXIT_FAIL
    support = doc["checks"][1]
    assert support["name"] == "support corollaries" and support["pass"] is False
    assert support["failures"] and all(f["pairing"] is None for f in support["failures"])


# sha256 of `verify --input data/<name> --trials 30 --seed 0 --format machine`
# run from the repository root (the output echoes the input path).  The
# output prints witnesses: the pins of inputs with more than two regular
# triangulations were re-recorded when witnesses were first carried across
# flip walls, and the unit cube's again when a missed carry was retried from
# the neighbour's other flip results already found, before the LP (13 cone
# LPs instead of 18 move its witnesses).  The rest of each output is pinned
# apart from witnesses below.
VERIFY_DIGESTS = {
    "double_simplex.json": "6c95dab04f67db84c76163b13c26d9206ef86aea949a529b9e4a721fce005568",
    "non_delzant_triangle.json": "91c48a62f74ddf490a399cdf97d8ac536af26cc309167c5f89150afb7c3ecbbd",
    "octahedron.json": "8d86152eedbc13fd3f47608b75ad56177c729e9dd26413f3224dd59181c6e933",
    "segment2.json": "cf177d4a35d8bb9396a5660e18cb7a3a2f48864e82be9cf76ed862a0262ee5fc",
    "segment3.json": "6197ca92e743d3b2bcf7e84c8e0ae5b08dad984d89f59a81193a901ad5a3967d",
    "unit_cube.json": "dd24f9fc6697fce87c8b3d8308ca5f24b0a67cfa098a1083faa65fb222108953",
    "unit_simplex.json": "b66703b2250d6a424e003cf152bb2cfcd74561481387bde74125120fb83a38e8",
    "unit_square.json": "251e4c0ec3e74473724f3d176ba3e9e781784cf415ca347db5da2e36140c321c",
}


def test_every_data_file_is_pinned():
    assert sorted(VERIFY_DIGESTS) == sorted(p.name for p in DATA.glob("*.json"))


@pytest.mark.parametrize("name,digest", sorted(VERIFY_DIGESTS.items()))
def test_verify_output_is_pinned(capsys, monkeypatch, name, digest):
    monkeypatch.chdir(DATA.parent)
    code, out = run(capsys, "verify", "--input", f"data/{name}", "--trials", "30", "--seed", "0",
                    "--format", "machine")
    assert code == EXIT_PASS
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `<command> --input data/<name> --format machine` run from the
# repository root, for every command that prints machine output apart from
# `verify` (pinned above); `check` prints the volumes the placing
# triangulation gives.  `triangulations` and `polytope` print witnesses, and
# were re-recorded, like `verify`, when witnesses were first carried across
# flip walls, and the unit cube's again, like its `verify` pin, when carries
# from found neighbours came before the LP.  `check` on the non-Delzant
# triangle, the octahedron and the unit simplex was re-recorded when it took
# the other commands' wording of its warnings (`pipeline.polytope_warnings`).
OUTPUT_DIGESTS = {
    "double_simplex.json": {
        "check": "4e178e467528767518452552b5fd65ef4f7b5a798e9c069113f10fbdc5ac52bc",
        "triangulations": "3d01c5d0291db0d7aa4f3980134f07841ecafcbb33512080542e51d9d0670c46",
        "vectors --kind gkz": "46920736290e7150016f12130f36ad2a9485e0baeb9a55a4631eff0ea57e3e8c",
        "vectors --kind boundary": "3332ef74c0e1889b89baa63ff443a03864bf501343d3708a365879a565598884",
        "vectors --kind hurwitz": "7840fbd6febaa4f8834b169a2eabaf4f3cd6b856457f66af8a84e4310dc947c4",
        "polytope --kind chow": "d3016b1aa380ac765c31fceaa31068cd270378443e6d10dc36fa5b8fa714a2f4",
        "polytope --kind hurwitz": "c1bd1179f9bacb3409f0be0760a6ffc2e4a7eeccca5c8c99f84c86dffa605e4e",
    },
    "non_delzant_triangle.json": {
        "check": "b0fffca9bbabea7dc37cf3979b9ca363e67a6058eba17489a87ccdcf4bb61286",
        "triangulations": "b1581200c1ca64a9135df90d28a89143191fe4a56f9aa12e9dbe05effa2c04a0",
        "vectors --kind gkz": "8ac2642a9af3b3fa9e246a9a23e2fb1677c4b56e3ff312d858a21fe7e55ddebb",
        "vectors --kind boundary": "6418ea76b016b4fd90bf777b3217d55b50beb77e4b761320b9dc2b89d0494500",
        "vectors --kind hurwitz": "6f56b241dbb483378b52647c6121913e2de92dc05ad69bd313ac15d6cf185345",
        "polytope --kind chow": "04ef556128c2941fef64f7e9731aafda579633ac77eb3e1f40320f11dd4de61f",
        "polytope --kind hurwitz": "02a2a8666040ab387e8d0a414003e0ff56277b5fbcd0aa84235a14199b55c7ce",
    },
    "octahedron.json": {
        "check": "b0ff36faba94a275eab672124590a537daf3fbde297bd5ce8617d9280be3eb9f",
        "triangulations": "b89c4533924663fd0edf84e8afa7d6582f9cad145bdbcc6939fc475bb16f5659",
        "vectors --kind gkz": "1f3b2bd85515d0c6df0f1494f50123b06094ba376aba21205d1a353a8b2b7b92",
        "vectors --kind boundary": "fbab01bc12740d211e50eccc5d730608b4ca49131f2d1d001018e281ffd8df70",
        "vectors --kind hurwitz": "b447cf3530e2e4024fb6384784ac8be739e665c2df8bfa4b2a0d9142ae23193c",
        "polytope --kind chow": "1b5dacaacfc172597da6be17bbbbe4e402b482b019b14cb521911acefe4a9e29",
        "polytope --kind hurwitz": "b493f96084c1633dd2ca76f0a04828c3bf03d23dc5e63f416cc7f83e6655b300",
    },
    "segment2.json": {
        "check": "d7b1e02f186978ecfb5b705bbf84672acaf20be6e6f8b540b89538332f39f79e",
        "triangulations": "3abdbea0aeaff01962cdb8d16dd370429a6948b0dc0aaa1ce298aedcc9549bfb",
        "vectors --kind gkz": "8802d3422e3fa0c684b4e9ab6d18b06d2b3d62c52bad718e5b24a80c7c61161d",
        "vectors --kind boundary": "88c82cbfc61c974cde05a0f7bfdbbff548140c296aab171a6a58f434ee8383c4",
        "vectors --kind hurwitz": "10770c34a48efb0d4ba0d90438cc1c6a0e414e743002b462020767f852861cd8",
        "polytope --kind chow": "0e5f57c89da1ee667f818061dd7e197e90e474613d914646289fc91ae20fea8e",
        "polytope --kind hurwitz": "dfa1634306ab07134b50cd8eaba1ab8a04e86224508d1940d4a6493417c4c82d",
    },
    "segment3.json": {
        "check": "7f8a3d8a7590c4aec48f4401a672f9b6b80f7c4f6485743de8c2be1655505f27",
        "triangulations": "57c29f297beeaee8b54104dcda12ff0f900013353eb5b35d8957988380dafe1c",
        "vectors --kind gkz": "674125fb417b763c044e27a931dafe5ca1203af20dffac271e32a98b0dd2c32d",
        "vectors --kind boundary": "dca90086c8241426c11ce8661c8f8843bebd6094784560e595d35271b51a099a",
        "vectors --kind hurwitz": "e67693125fd9eda45dfdf78c54ac8156964d38acf0d0244bf385896723d24de4",
        "polytope --kind chow": "03c549ad6b4b847c6a5f142884964fc2fa9fadc2488c6899c94742080d632d81",
        "polytope --kind hurwitz": "d94c4aa876d5396c8c5f1420057546e4ad9193615489f64670ef54ef273e89ef",
    },
    "unit_cube.json": {
        "check": "a8b23f9c72b0592faeaaa70029bda00253795fb3ca202ee45f5f8b9551aaa206",
        "triangulations": "6fff5d7a4fb9675cebca283fc5d470be13a7c38c5b3e16723f1c4e25ad7f28a8",
        "vectors --kind gkz": "14d72496424dd4b5ee689fd0aeb02545e3831409c6ad0e7f354491a68f784bbf",
        "vectors --kind boundary": "877edf77287d14fe441661f1c70d0c5f08ec5e382b29e8661ca528d39f45f5ff",
        "vectors --kind hurwitz": "ad3bac2015fc1d21a112f9c8b0b144445af0f612556ba276137af98161099f4c",
        "polytope --kind chow": "e69c514e4d6a6cf70f2c0dce6a7009f6a4fff51f08724d31c1b18ae65a1d2785",
        "polytope --kind hurwitz": "6b7532882a75c592aea8106cf23a32c823a8ae98abbd9a0e56c208437b9795da",
    },
    "unit_simplex.json": {
        "check": "796a5fb7009901eef4b90d47a63d05ac55df43c5352c5721dc19883bf02291fd",
        "triangulations": "c285526c22d5544fc4f6458f65ef235ebafe29875c5fef2acccd37286f6e89d5",
        "vectors --kind gkz": "f22842c553066c353b836d7ebb0c422e9368d6ec603c57f603a6be637aa74176",
        "vectors --kind boundary": "f6e498f7d6c771e6538621ed9d0f40910adebde28e95066b30c49b9aebd9d767",
        "vectors --kind hurwitz": "e4a42747da973bf7f50ad536526fc5d8f4123520cc5799eb5f3e05b56af08892",
        "polytope --kind chow": "d433b4e40703c597015678b19eb8a5b2882a6ed2d228c4299b42335ff0ae697a",
        "polytope --kind hurwitz": "8d52d0a3dd9b51da094904196f7b46bdcaace750417ca12b0dd4168047e31412",
    },
    "unit_square.json": {
        "check": "da1c6cc6a3c2211510407d105634970698e081900ba91c97c447a19d4f686226",
        "triangulations": "e11709bab4dc376db1054b22495e27c4250391cfde2d90695427d9c9cd0388b2",
        "vectors --kind gkz": "40004576f5e0f5d3263b53f218833ff485679af75ccb6852e8fa1236aab3618e",
        "vectors --kind boundary": "fcff88fab9cb3f5baef6a89c11fae4e2e54afdf51f48c5c3f684147820411c8f",
        "vectors --kind hurwitz": "7873de0c4ac869e48beb3f13d584d16b9e03e0790e21c1a9432c3b8f00d5fef7",
        "polytope --kind chow": "505c30a200d85c35f2ac98b3d6b8b5eba15c20c15dd2858e177beedbcad5faaa",
        "polytope --kind hurwitz": "73834ce7ff512b9482e941fe1987cf85a590c01038f3ffd91b42a19ec6194bef",
    },
}
OUTPUT_RUNS = [(name, command, digest) for name, pins in sorted(OUTPUT_DIGESTS.items())
               for command, digest in pins.items()]


def test_every_data_file_has_its_outputs_pinned():
    assert sorted(OUTPUT_DIGESTS) == sorted(p.name for p in DATA.glob("*.json"))
    assert all(pins.keys() == OUTPUT_DIGESTS["unit_cube.json"].keys() for pins in OUTPUT_DIGESTS.values())


@pytest.mark.parametrize("name,command,digest", OUTPUT_RUNS, ids=[f"{n}-{c}" for n, c, _ in OUTPUT_RUNS])
def test_machine_output_is_pinned(capsys, monkeypatch, name, command, digest):
    monkeypatch.chdir(DATA.parent)
    cmd, *options = command.split()
    code, out = run(capsys, cmd, "--input", f"data/{name}", *options, "--format", "machine")
    assert code == EXIT_PASS
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the machine output of each command that prints witnesses, with
# every witness removed and each vertex certificate reduced to whether it is
# present (null where the hull-membership LP decided the vertex), as
# json.dumps(sort_keys=True).  Recorded while every witness was an LP
# solution; it pins the rest of each output, and which vertices a witness
# pins, independently of the witness heights.
WITNESS_FREE_DIGESTS = {
    "double_simplex.json": {
        "triangulations": "d2a92f111aa07d8e1769cc4485e8649cd89994bb1aa3d7c60ea7663fd0927c2c",
        "polytope --kind chow": "91f08cab5be59b6333354d378795ebad56ef256ab05e0343ef629bdc8b637d95",
        "polytope --kind hurwitz": "1d560858ff19de1db5a5842b2f27295fe72e9409e3ebc1cb6b1fe0a9938cb8f9",
        "verify --trials 30 --seed 0": "2aff36a243d1f1d56b108a573cd9a7d9edb43afedd5a9faca704e0936a31a6dc",
    },
    "non_delzant_triangle.json": {
        "triangulations": "28a37be4f039990663f039b0bbddfcaf80d285a24cb3aaee974fc387bc08c606",
        "polytope --kind chow": "7da80cc97da6db8bad88d558abfbab3cb0c9a5ed6c0d740808b17653b1e9d6ee",
        "polytope --kind hurwitz": "24355d30899e4eb7b2cee22b22c262d06e4ffda50b197737e54b0a5cf1852d3b",
        "verify --trials 30 --seed 0": "b81769d5ce593a0b4a5624cc289eb02f7f0bce4fc7a7b862b86ed4c45b5522f7",
    },
    "octahedron.json": {
        "triangulations": "a792fede1ff4d87d96e34e27b0401463c9498d99840cbaed62eee9f763ec050c",
        "polytope --kind chow": "bb9799db7250248b20e7698b35ade24d2203c8f1633d4693ff3dfb410063db6f",
        "polytope --kind hurwitz": "5d88aa346c6848c68ff7f09e8c7f37d3c0cb7e0f4a02896c4c5b2d3de1a339d2",
        "verify --trials 30 --seed 0": "be6b142be071b9fbbd607f36efca33a17909a4d8d1cea6af8aea8c94ecb2736f",
    },
    "segment2.json": {
        "triangulations": "a50e7c7235a131bf9575165401202a5559912923263b7c1a172c2065af263d05",
        "polytope --kind chow": "229addad06616c4291ff2314ac4464d613be149a9da5e29bf535c44e984db7f8",
        "polytope --kind hurwitz": "a21637c98eb5b804eb7fca19b800c14692fc0d51e1c7fbeb3f749b071286c2e6",
        "verify --trials 30 --seed 0": "d3cbed00e34e323d90099329a880098b17a98d3f6865ddc2057986e3175e2fbc",
    },
    "segment3.json": {
        "triangulations": "3759adf0bd4e420030e721d02824d2f18f8c9f8fbe24cb3e9c2af05e507f5bac",
        "polytope --kind chow": "21fb71a578e7f0511355bff464a83a67b323f3146322b4da69cc024ca24418b1",
        "polytope --kind hurwitz": "ffb46ad476f9aa80280d5133c87590468087d17fd48f97a4b5596f531c3ecf4c",
        "verify --trials 30 --seed 0": "e4ac7731d3b9dc7b1874a3de23f3ebd93be330eae7228f3be4bab36285782122",
    },
    "unit_cube.json": {
        "triangulations": "48bb429497f68e807cd6d56c78634234fea5977de923ca344347ab63e5f4cc66",
        "polytope --kind chow": "bab18910f0be097561a1ae08931e070911fd20cae3325d0c388f1c8a4e8d4f67",
        "polytope --kind hurwitz": "6959b293d09d3a52a9e35d92d97f4cb598bec6464ee6974d2ef27e69acd0883c",
        "verify --trials 30 --seed 0": "98b02218e33ff55ac38fd91888dd57f6f32105d2e977dc1ef5fab85a2dcc9f8d",
    },
    "unit_simplex.json": {
        "triangulations": "372117f35ee1b1f4752c8a02bfe0406cabee8092c31eec89efa5f273156c7ac0",
        "polytope --kind chow": "82312538630b6b0dc328ecbcb9af746bcbaa979f4b4260a9578a1bf55b09c08a",
        "polytope --kind hurwitz": "523fd034e2ff6da3608f410fe2a97b297de6e2fc9374ddf3be818a556911b022",
        "verify --trials 30 --seed 0": "47465b504ad711eec9aeb9b7b44d558ae8f11c66febae1bb9a30e31ba1a054fc",
    },
    "unit_square.json": {
        "triangulations": "477ebadb06f20169323fb9bb168f58ef77e10d707504616494329e2cf9510660",
        "polytope --kind chow": "12fe0b6d79562a93da3523a27f53a11e6e5710e91dbbf356a7725dc414f644c4",
        "polytope --kind hurwitz": "b42bd19738c14604ccf6dda04b3ca3ea9a586f46d82e19c157c042f0e5862c65",
        "verify --trials 30 --seed 0": "fb1036b5858216dd6b56b1c69ab89746e64d67b22a5d2ffe0be3283d2a7019e5",
    },
}
WITNESS_FREE_RUNS = [(name, command, digest) for name, pins in sorted(WITNESS_FREE_DIGESTS.items())
                     for command, digest in pins.items()]


def without_witnesses(doc: dict) -> dict:
    for entry in doc.get("triangulations", ()):
        del entry["witness"]
    for key in ("vertex_certificates", "chow_vertex_certificates", "hurwitz_vertex_certificates"):
        if key in doc:
            doc[key] = [cert is not None for cert in doc[key]]
    return doc


def test_every_data_file_has_its_witness_free_outputs_pinned():
    assert sorted(WITNESS_FREE_DIGESTS) == sorted(p.name for p in DATA.glob("*.json"))


@pytest.mark.parametrize("name,command,digest", WITNESS_FREE_RUNS, ids=[f"{n}-{c}" for n, c, _ in WITNESS_FREE_RUNS])
def test_machine_output_without_witnesses_is_pinned(capsys, monkeypatch, name, command, digest):
    monkeypatch.chdir(DATA.parent)
    cmd, *options = command.split()
    code, doc = run_machine(capsys, cmd, "--input", f"data/{name}", *options)
    assert code == EXIT_PASS
    text = json.dumps(without_witnesses(doc), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
