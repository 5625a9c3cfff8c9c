import argparse
import hashlib
import json
import re
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
    # --skip-delzant-check --format machine`, re-recorded when `check`
    # stopped echoing the seed, trials and caps it never read; the other
    # subcommands refuse the flag.
    monkeypatch.chdir(DATA.parent)
    code, out = run(capsys, "check", "--input", "data/non_delzant_triangle.json", "--skip-delzant-check",
                    "--format", "machine")
    assert code == EXIT_PASS
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5c760077acd81fb0389234bf7d07ac545a0b7d3064ed87e5b30afa96bb1c7ac9"
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


def test_verify_with_no_trials_packs_nothing(capsys, monkeypatch):
    # The sums and affine checks still run: 3 per triangulation and 13
    # T-independence checks over the 14 triangulations.
    monkeypatch.setattr(weights, "_trial_span", lambda *a: pytest.fail("trials were packed"))
    monkeypatch.setattr(weights, "volume_total", lambda g: pytest.fail("a trial function was integrated"))
    code, doc = run_machine(capsys, "verify", "--input", str(DATA / "double_simplex.json"), "--trials", "0")
    assert code == EXIT_PASS and doc["all_pass"]
    identities, supports = doc["checks"]
    assert (identities["checks"], identities["failures"]) == (55, [])
    assert (supports["liftings"], supports["failures"]) == (0, [])


def test_negative_cap_rejected_without_seed_or_trials(capsys):
    code = main(["triangulations", "--input", str(DATA / "unit_square.json"), "--time-budget", "-1"])
    assert code == EXIT_INPUT
    assert "--time-budget" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "check --seed 1", "check --trials 3", "check --max-triangulations 5", "check --time-budget 1",
    "triangulations --seed 0", "vectors --trials 2", "polytope --seed 0",
])
def test_options_a_command_does_not_read_are_refused(capsys, argv):
    cmd, *options = argv.split()
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--input", str(DATA / "segment2.json"), *options])
    assert exc.value.code == EXIT_INPUT
    assert "unrecognized arguments" in capsys.readouterr().err


# Top-level keys of each command's machine output: besides its command, its
# input and its warnings, each echoes only the options it reads.
COMMON = ["command", "input", "warnings"]
OUTPUT_KEYS = {
    "check": COMMON + ["boundary_volume", "deg_chow", "deg_hurwitz", "delzant", "delzant_report",
                       "num_lattice_points", "polytope", "volume"],
    "triangulations": COMMON + ["caps", "count", "triangulations"],
    "vectors": COMMON + ["caps", "kind", "vectors"],
    "polytope": COMMON + ["affine_dim", "ambient_dim", "caps", "generators", "kind", "vertex_certificates",
                          "vertices"],
    "verify": COMMON + ["all_pass", "caps", "checks", "chow_vertex_certificates", "chow_vertices", "count",
                        "deg_chow", "deg_hurwitz", "hurwitz_vertex_certificates", "hurwitz_vertices", "seed",
                        "triangulations", "trials"],
}


@pytest.mark.parametrize("command", sorted(OUTPUT_KEYS))
def test_machine_output_keys(capsys, command):
    code, doc = run_machine(capsys, command, "--input", str(DATA / "segment2.json"))
    assert code == EXIT_PASS
    assert sorted(doc) == sorted(OUTPUT_KEYS[command])


def test_readme_lists_the_options_of_each_command():
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: sorted(s for a in p._actions for s in a.option_strings if s not in ("-h", "--help"))
        for name, p in subparsers.choices.items()
    }
    readme = (DATA.parent / "README.md").read_text()
    listed = {
        name: sorted(re.findall(r"--[a-z-]+", options))
        for name, options in re.findall(r"^- `(\w+)`: (`--.*)$", readme, re.M)
    }
    assert listed == parsed
    assert sum(map(len, parsed.values())) == 23


def test_missing_file(capsys):
    assert main(["check", "--input", "/nonexistent/q.json"]) == EXIT_INPUT
    capsys.readouterr()


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",
    b'{"vertices": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    b'{"vertices": [[' + b"1" * 5000 + b"]]}",
], ids=["not-utf-8", "nested-too-deep", "integer-too-long"])
def test_unreadable_file_is_an_input_error(tmp_path, capsys, content):
    # Each exited 1, the verification-failure code, with a traceback.
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["check", "--input", str(bad)]) == EXIT_INPUT
    assert f"cannot read {bad}" in capsys.readouterr().err


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


@pytest.mark.parametrize("name", ["double_simplex.json", "octahedron.json"])
def test_passing_verify_output_does_not_depend_on_the_seed(capsys, name):
    # The seed picks which trial functions and liftings run; when every
    # check passes, the report says the same whichever they were.
    docs = []
    for seed in (0, 1, 12345):
        code, doc = run_machine(capsys, "verify", "--input", str(DATA / name), "--seed", str(seed))
        assert code == EXIT_PASS
        assert doc.pop("seed") == seed
        docs.append(doc)
    assert docs[0] == docs[1] == docs[2]


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
# All were re-recorded when each command stopped echoing options it does not
# read: `check` its seed, trials and caps, the others their seed and trials.
OUTPUT_DIGESTS = {
    "double_simplex.json": {
        "check": "43db6b699beca4e0d6e4c1f1bfe42c22bf63ded64f3d9f148c06b904e241b1a7",
        "triangulations": "1bfa06bf399c133c79cc2ebc6d7355325bc461fd2770fc6834a127a4453a5a20",
        "vectors --kind gkz": "8adec3d154cb6b5fefb010f6c6a42076ddcb1a27b09397e02a76232781201fea",
        "vectors --kind boundary": "bf1d493e063462b2d4f1b018d30d76ac53f25b4e11bbe80374490846419b8866",
        "vectors --kind hurwitz": "2796230f1175e315c3ec2acb2f1de93c44b5b0ee36446f633b6612bb2e084f05",
        "polytope --kind chow": "274d5a0d9a866aad3e526dccee3f99ac0c50459a2158ca513fbf447a4b7c82f5",
        "polytope --kind hurwitz": "00728c24ee4ff2c5b9f62db38e4790d169d021562979cee29621adcb8a8c0ee6",
    },
    "non_delzant_triangle.json": {
        "check": "479b94d10f496776379a8e2e8c8bda3d59ef8236f76ab68b493458e2c0997b35",
        "triangulations": "21d74f1a3b37607e81b5eccc5f9bfa73987190c93a7ad0fc480683d89dbca172",
        "vectors --kind gkz": "3d06668bbb25126485156010f0a03fd79bfa576650c180cb247a9119fb74488b",
        "vectors --kind boundary": "9bd7477a718e8e8447e2534dd452182f286e0dd4dfb59660121bc72e61fb91b1",
        "vectors --kind hurwitz": "0e67b5bf25bcead76d17ad287228928c76974d8b722f42e1cb92ace5201ef3ba",
        "polytope --kind chow": "934d620728505228fc123bc8838237b7fca48fadd4cdf578786b7efcdf538dda",
        "polytope --kind hurwitz": "c67aa74e1f6c9bb6cb395a2c4babc94d01646479ea108b0f45f9e75f0b22c477",
    },
    "octahedron.json": {
        "check": "b7e38f666b4555d759b296b552e8034ff3cc6d4ee9ad0f1dae8958c4b83003f8",
        "triangulations": "04d1480a4d4cccd1648caeb35237e363b5526f2603c56765a7cd99c77325fdd4",
        "vectors --kind gkz": "55af566914a04199fab2179af2cc07fc4c768b9069d5b4cf21dec7e8dcfd0c86",
        "vectors --kind boundary": "f42356335d70c5d3c0d13c4addcf29b152c2f72ecf3795ad5d701d26b279fbec",
        "vectors --kind hurwitz": "49c80199a0343f523ffa61bc841cdd4fa25fc63ec65cd1a9047e755850980450",
        "polytope --kind chow": "feeef0fe1f0b0ab521111ed92f1c7ce0e0515268c7d49a24c11b66dbcd4dc95a",
        "polytope --kind hurwitz": "696ec1d16e345105d43bcbb45b800977b6e0bfeb87b1dab7414d0439273e3602",
    },
    "segment2.json": {
        "check": "10d4b18d30efe30818e738aca07d722bf4d9c531045b85671ad45215b1d47cfb",
        "triangulations": "714998d1e6c2c8565cbfdbcaa2c0b207bf64dbb8626d14086267855f0dd7a0d6",
        "vectors --kind gkz": "9b08e6dea2a1b4a6e3cc00a1c2bce0ae55c7d28a968c921b3ceb104b021d68cc",
        "vectors --kind boundary": "1433cc83ed0614b61050491782febe39cd179dde1f59d31fb3a8d0698bb5f7da",
        "vectors --kind hurwitz": "39153211f6cc1124f8c9d964349d27c382e808a14ffff7a5af492615fa5e9184",
        "polytope --kind chow": "d2132de98d3a4304d0748246cb3ee01ebe5ac7607fe7a814a9fb82c77f852331",
        "polytope --kind hurwitz": "dc755ecca367acd5beccb8234be793960089e170bed5ab755939213718e42f04",
    },
    "segment3.json": {
        "check": "88b1bc0ee4f6f5ef5dd70cb147708e6c5af5fa96d66a2598a4b9fcf7603c2fd2",
        "triangulations": "39b1e0d37fb2402dd72681d7bc888f51138260c6f553ec85cab195cd0fd58fbb",
        "vectors --kind gkz": "cc120e7a3d13819487d5642cba7bcff1b29b0dabe05339d98af87d8974a50775",
        "vectors --kind boundary": "a4ef4a299597f279d3230a4b668e59b3108537edae8f2e1f6f3198759a131ce4",
        "vectors --kind hurwitz": "ab702470b5e782d78639aad5b2909572139940ee71f9578f6a0e5bc70c4d35df",
        "polytope --kind chow": "f716114450a0f49d45ba35a176886bb6bbb4a79e405e61217ebf6cbe6b58bd62",
        "polytope --kind hurwitz": "90a029a5fa4384a9c4976db5304a9a74ed22dfed2cba5818d42683d1838a444d",
    },
    "unit_cube.json": {
        "check": "0d5c25abc2b5933a596a8a5ce8f901162047aa634df2c0425ddc477d6c973384",
        "triangulations": "d9dc2e36e30d168dda0168c9f83314acd2f91bf7b5cb261c3b9845f198125a17",
        "vectors --kind gkz": "f778eded9aeff873d120b8b59b56df3858d907bd3967dde8d3b9bbe1f200c625",
        "vectors --kind boundary": "2a758392a961043997bafed04323cf7c89fbc1be6a3908bfebc900cfe918e2b0",
        "vectors --kind hurwitz": "404665cbe89f0f1171166840394c8618b5af8812c8fd44b62959ebbd1ba37779",
        "polytope --kind chow": "33728f1e18b1c2edffec090f416fdd6ed56ef398806fddf364a90ddb35aaab0c",
        "polytope --kind hurwitz": "ec7c7c41d6913c6a5f7f65470cf21d0b1f0198918c6dff311f972b6939b677a9",
    },
    "unit_simplex.json": {
        "check": "3d87afe768e4fa542bde90418eb53e89926ce6055b626db360ae4d48d26bf81b",
        "triangulations": "9826ffbda5bd28e501d04251495b96b5d1b6bc45e2faa70b17375b22808d9cb7",
        "vectors --kind gkz": "b46bc536f1e13bf977238cd1688c3d5fd11b406c11782a666965f14c457ff027",
        "vectors --kind boundary": "6d98562dcdd4d5dca1deb1d1e32e4bc55ba9279c73a1a36f2ccf72adfcb752c8",
        "vectors --kind hurwitz": "e63185e54dcf388a632f3c89ace8982f00f62c39c692ae15d5c3711c935c0a8d",
        "polytope --kind chow": "662ee9a64093d5f40580f7cec172bfaa26ba3e7d68b8209afdf42dd92d4e9d44",
        "polytope --kind hurwitz": "77bbe13d76e51ad2ad66039f71fa6779990cee7b1d1eb4e934ae88119556d6f2",
    },
    "unit_square.json": {
        "check": "a09295339a52524f762c99f8b0aa528928b65eb2dd9cdeb2d992a874cb21f9d8",
        "triangulations": "789dffb81f4e5efb3336e06957bd5c059fb59fefea16be34b71bcdd82c06778f",
        "vectors --kind gkz": "94c72d35531f7a409d3c934ee2e60574114c83548483029815ddd3df4624ede9",
        "vectors --kind boundary": "615a2a617e8ad01ca4305e65b97e2b4ed8ebcf81b066df22dd3d87f00955fc92",
        "vectors --kind hurwitz": "ae5b560698306f3b3221841c6bd3cca20c937b1c8c648e5a6f1f9925d3762086",
        "polytope --kind chow": "7d04fce402971a188c6afb6af3e19f7c626e49b1c07ab8637289dffce258a20d",
        "polytope --kind hurwitz": "6e45247d15793847c1022ca2ca053a93f24226c250dc60af229aab7e7345f0c1",
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
# pins, independently of the witness heights.  The `triangulations` and
# `polytope` pins were re-recorded when those commands stopped echoing the
# seed and trials they do not read.
WITNESS_FREE_DIGESTS = {
    "double_simplex.json": {
        "triangulations": "530a1e293d2790186c6f3a8882b78f2e0738092000b95fd18437bdc0a843e14f",
        "polytope --kind chow": "016adf210bb9f4409868adfc90f9438576796e0bd3a07a136b4f93b3743ff0a9",
        "polytope --kind hurwitz": "953779ad1c90feddc3e036e5c726a0abc0ccde130828828378b1cc1722dea8a3",
        "verify --trials 30 --seed 0": "2aff36a243d1f1d56b108a573cd9a7d9edb43afedd5a9faca704e0936a31a6dc",
    },
    "non_delzant_triangle.json": {
        "triangulations": "d36241678a3aa77ccd5d9e58a94b9eedf7063f1569ccc8fcc141a850edcf6832",
        "polytope --kind chow": "c38e2fea93958ebf7c40a19e6510fc1903012e3a68996d19bdae611c16ea55cf",
        "polytope --kind hurwitz": "9d75ef4171a3baef33221a3d251f273dba677c012c23dd129706ccdb76d03f12",
        "verify --trials 30 --seed 0": "b81769d5ce593a0b4a5624cc289eb02f7f0bce4fc7a7b862b86ed4c45b5522f7",
    },
    "octahedron.json": {
        "triangulations": "86a70cdd43de848eb920a972372ee19c3ef9402922e2eb7ef3ab37112efb80c2",
        "polytope --kind chow": "f89135be1dcb6039711676e06061621287f9ad2af58bbb1fc8db299dab567575",
        "polytope --kind hurwitz": "22370e306840c7fb306a101c87c13e52f1acb83bb9cba56309e0c890a99b968c",
        "verify --trials 30 --seed 0": "be6b142be071b9fbbd607f36efca33a17909a4d8d1cea6af8aea8c94ecb2736f",
    },
    "segment2.json": {
        "triangulations": "5b9ec8453da6f19b6b49d0be405ca747299052e4e1673216c9704471a969f253",
        "polytope --kind chow": "c23f57da798d63badef98fdb08235f87b6e13bb52bcba33755e9a7bb1c3ba015",
        "polytope --kind hurwitz": "821acd683d3430a3f6d1981f2987d0f050855749585100d9f5ea46ef7ce8f0db",
        "verify --trials 30 --seed 0": "d3cbed00e34e323d90099329a880098b17a98d3f6865ddc2057986e3175e2fbc",
    },
    "segment3.json": {
        "triangulations": "af13c29dfa7584953b223d3813af3de86659ece897c283f9927956ee09e757e3",
        "polytope --kind chow": "12ec686889c3f74306a2482c764461096f0df0eb92af3d60630373114ba10c70",
        "polytope --kind hurwitz": "ec16afa36d28c5a6fa0ea73f069fa2f27e4eee6b8f93f5835775aa4cf4020bdc",
        "verify --trials 30 --seed 0": "e4ac7731d3b9dc7b1874a3de23f3ebd93be330eae7228f3be4bab36285782122",
    },
    "unit_cube.json": {
        "triangulations": "172c17282af09ceadec071e2589108c46f8655e2c1e84d8e9f0a666ec95c384d",
        "polytope --kind chow": "3ceddc88a40144c0158c579c11e50b761b5c3b802a13070292222b122e134b6d",
        "polytope --kind hurwitz": "a6ad25ea838c018da837a599e53f5deaf93def4c9e9206a90093b0d0144f891f",
        "verify --trials 30 --seed 0": "98b02218e33ff55ac38fd91888dd57f6f32105d2e977dc1ef5fab85a2dcc9f8d",
    },
    "unit_simplex.json": {
        "triangulations": "2f1706ec3326f2705ccc930abf4b053d3d0e2d4a79e2119b36b7ea4a1eee0865",
        "polytope --kind chow": "fb3e1efd52f1bd5612e383e2e6726fe92a464f4934e2b2f36a5c2d5ee7888131",
        "polytope --kind hurwitz": "daa90a0801208661af175c350e08e86bc74c6d987230c0c48f5592a40b4db870",
        "verify --trials 30 --seed 0": "47465b504ad711eec9aeb9b7b44d558ae8f11c66febae1bb9a30e31ba1a054fc",
    },
    "unit_square.json": {
        "triangulations": "a82072425473fbbbcffad6fa9a630d393c6f20deb1f4295dc2e279277047a746",
        "polytope --kind chow": "5a4634c3b348aaccae0340ca473147cadffaefc35dcceae2874c8e519a8e89ed",
        "polytope --kind hurwitz": "49b972b943ea2fb262940aff6356153b30f8cdc9aeffb1c26a317e2c4d12f7e5",
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
