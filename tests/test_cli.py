import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

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
    assert "[0, 1]" in doc["warnings"][0]
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
    # no set-iteration order may leak into reports.
    import os
    import subprocess
    import sys

    outs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
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
        rep = IdentityReport(seed, trials, len(analysis.enumeration))
        rep.failures.append(IdentityFailure(0, 0, "forced", 0, 1))
        return rep

    monkeypatch.setattr(cli, "verify_identities", failing)
    code, doc = run_machine(capsys, "verify", "--input", str(DATA / "segment2.json"))
    assert code == EXIT_FAIL
    assert doc["all_pass"] is False


def test_verify_prints_null_pairing_for_a_missing_triangulation(monkeypatch, capsys):
    # With a triangulation dropped from the enumeration, a lifting whose
    # lower hull is that triangulation has nothing to pair with and fails.
    import toricweights.cli as cli

    analyze = cli._analyze

    def dropping(args):
        a = analyze(args)
        entries = a.enumeration.entries[1:]
        return dataclasses.replace(a, enumeration=dataclasses.replace(a.enumeration, entries=entries))

    monkeypatch.setattr(cli, "_analyze", dropping)
    code, doc = run_machine(capsys, "verify", "--input", str(DATA / "segment2.json"), "--trials", "10")
    assert code == EXIT_FAIL
    support = doc["checks"][1]
    assert support["name"] == "support corollaries" and support["pass"] is False
    assert support["failures"] and all(f["pairing"] is None for f in support["failures"])


# sha256 of `verify --input data/<name> --trials 30 --seed 0 --format machine`
# run from the repository root (the output echoes the input path), recorded
# with the Fraction identity suite and the facet-search lower hull.
VERIFY_DIGESTS = {
    "double_simplex.json": "d810c75c0fb1b867f04e8df38adf4e10200480125f387dcfa620400c5b832d4c",
    "non_delzant_triangle.json": "91c48a62f74ddf490a399cdf97d8ac536af26cc309167c5f89150afb7c3ecbbd",
    "octahedron.json": "765644e1b4d27818cff11f196bfda28078147853cf8a9349bc5a23773f30b8ea",
    "segment2.json": "cf177d4a35d8bb9396a5660e18cb7a3a2f48864e82be9cf76ed862a0262ee5fc",
    "segment3.json": "cc425c78a98b92772099da6af33786c5508a510064b8265b183e0b537de16bfd",
    "unit_cube.json": "36917cc55a7c90287b5e5dd425f5ce3f5fa803a6728a26b8e5d9054b381bd412",
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
# triangulation gives.
OUTPUT_DIGESTS = {
    "double_simplex.json": {
        "check": "4e178e467528767518452552b5fd65ef4f7b5a798e9c069113f10fbdc5ac52bc",
        "triangulations": "46850e48b04819a4b93ab783c189f9bc5332c67ceb7d38214c34757b4c9f7fed",
        "vectors --kind gkz": "46920736290e7150016f12130f36ad2a9485e0baeb9a55a4631eff0ea57e3e8c",
        "vectors --kind boundary": "3332ef74c0e1889b89baa63ff443a03864bf501343d3708a365879a565598884",
        "vectors --kind hurwitz": "7840fbd6febaa4f8834b169a2eabaf4f3cd6b856457f66af8a84e4310dc947c4",
        "polytope --kind chow": "e4dd772f7986f2928a81d64814c4321af7f25d07c3e36c80e885ca41d6437d32",
        "polytope --kind hurwitz": "52f2da48a48e9aca2bd08fd058ed418639abe47446a01bb710d4e9d2c6854bef",
    },
    "non_delzant_triangle.json": {
        "check": "73ac5b27c592ea3d29651fe11c71e50333157b1a33f116b054a39a846e3d65f6",
        "triangulations": "b1581200c1ca64a9135df90d28a89143191fe4a56f9aa12e9dbe05effa2c04a0",
        "vectors --kind gkz": "8ac2642a9af3b3fa9e246a9a23e2fb1677c4b56e3ff312d858a21fe7e55ddebb",
        "vectors --kind boundary": "6418ea76b016b4fd90bf777b3217d55b50beb77e4b761320b9dc2b89d0494500",
        "vectors --kind hurwitz": "6f56b241dbb483378b52647c6121913e2de92dc05ad69bd313ac15d6cf185345",
        "polytope --kind chow": "04ef556128c2941fef64f7e9731aafda579633ac77eb3e1f40320f11dd4de61f",
        "polytope --kind hurwitz": "02a2a8666040ab387e8d0a414003e0ff56277b5fbcd0aa84235a14199b55c7ce",
    },
    "octahedron.json": {
        "check": "c7cb86077813f4bb206bdbdd46c73e55af2cb50966dac03a56a850c311b43475",
        "triangulations": "0515eb88b8cab2b06f32ad4736555bbc285ad107f66545d97685a55d657293c4",
        "vectors --kind gkz": "1f3b2bd85515d0c6df0f1494f50123b06094ba376aba21205d1a353a8b2b7b92",
        "vectors --kind boundary": "fbab01bc12740d211e50eccc5d730608b4ca49131f2d1d001018e281ffd8df70",
        "vectors --kind hurwitz": "b447cf3530e2e4024fb6384784ac8be739e665c2df8bfa4b2a0d9142ae23193c",
        "polytope --kind chow": "7f902079cc697e604815df2dd5b6952efebf2981ceaf54243deae4ff11a3698a",
        "polytope --kind hurwitz": "e20a025c31a28f71f4254560fd093cf40217de30c0b42eca6831abeba767865c",
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
        "triangulations": "f6b9a0d1dc7c36935f416f8402c145c58cf438c2cc44e7fde002f0b0dd9256f7",
        "vectors --kind gkz": "674125fb417b763c044e27a931dafe5ca1203af20dffac271e32a98b0dd2c32d",
        "vectors --kind boundary": "dca90086c8241426c11ce8661c8f8843bebd6094784560e595d35271b51a099a",
        "vectors --kind hurwitz": "e67693125fd9eda45dfdf78c54ac8156964d38acf0d0244bf385896723d24de4",
        "polytope --kind chow": "53a793c5c323a0d440c58e72c959899a1bf910534c058c4a71aa78d0c854413a",
        "polytope --kind hurwitz": "02a90074ddc81a6e0dd52b79a27e7293b34bb61d40eaa52923f1e4c6a32f091b",
    },
    "unit_cube.json": {
        "check": "a8b23f9c72b0592faeaaa70029bda00253795fb3ca202ee45f5f8b9551aaa206",
        "triangulations": "4ae8d8eb5fdf506e93ba33d0489883108f910a56825201c76c43182f1d809503",
        "vectors --kind gkz": "14d72496424dd4b5ee689fd0aeb02545e3831409c6ad0e7f354491a68f784bbf",
        "vectors --kind boundary": "877edf77287d14fe441661f1c70d0c5f08ec5e382b29e8661ca528d39f45f5ff",
        "vectors --kind hurwitz": "ad3bac2015fc1d21a112f9c8b0b144445af0f612556ba276137af98161099f4c",
        "polytope --kind chow": "99874abbe471610eb291910d5d76698203a281b4aa7f128ce4d039cf79a2f0d1",
        "polytope --kind hurwitz": "35b1623bf02c42a9f44337da5f0b4a2cf1509bc27d095395c8e9c5a74f0eda8f",
    },
    "unit_simplex.json": {
        "check": "fb5d84d03f547f72dd1d5b222c99e3c5f0e099036855585423b32bbc280edf4b",
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
