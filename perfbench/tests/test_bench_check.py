"""Tests of the output checker: tampered results must count as failures."""

import copy

from check import check, summarize
from workloads import CORPUS, VERIFY_TRIALS, parse_result, run_operation

SQUARE = [[0, 0], [0, 1], [1, 0], [1, 1]]
DOUBLE_SIMPLEX = [[0, 0], [2, 0], [0, 2]]


def _run(workload, vertices):
    import toricweights

    config = toricweights.lattice_points(toricweights.LatticePolytope.from_vertices(vertices))
    job = {"vertices": vertices, "order": list(range(len(config)))[::-1]}
    return [job], [parse_result(workload, run_operation(workload, job, config))]


def _reference(workload, outputs):
    return {workload: summarize(workload, outputs)}


def test_enumeration_passes_then_dropped_triangulation_fails():
    jobs, outputs = _run("enumerate-grid3x3", DOUBLE_SIMPLEX)
    ref = _reference("enumerate-grid3x3", outputs)
    assert ref["enumerate-grid3x3"]["count"] == 14
    assert check("enumerate-grid3x3", jobs, outputs, ref) == []
    tampered = copy.deepcopy(outputs)
    del tampered[0]["entries"][3]
    errors = check("enumerate-grid3x3", jobs, tampered, ref)
    assert any("count" in e for e in errors)
    assert any("canonical_digest" in e for e in errors)


def test_wrong_witness_fails_round_trip():
    jobs, outputs = _run("enumerate-grid3x3", DOUBLE_SIMPLEX)
    ref = _reference("enumerate-grid3x3", outputs)
    tampered = copy.deepcopy(outputs)
    entries = tampered[0]["entries"]
    entries[0][1], entries[1][1] = entries[1][1], entries[0][1]
    errors = check("enumerate-grid3x3", jobs, tampered, ref)
    assert len(errors) == 2 and all("does not induce" in e for e in errors)


def test_wrong_vertex_fails():
    jobs, outputs = _run("analyze-cube", SQUARE)
    ref = _reference("analyze-cube", outputs)
    assert check("analyze-cube", jobs, outputs, ref) == []
    tampered = copy.deepcopy(outputs)
    tampered[0]["hurwitz_vertices"][0][0] += 1
    errors = check("analyze-cube", jobs, tampered, ref)
    assert errors == [f"hurwitz_vertices_digest is {summarize('analyze-cube', tampered)['hurwitz_vertices_digest']!r}, "
                      f"expected {ref['analyze-cube']['hurwitz_vertices_digest']!r}"]


def _verify_outputs():
    report = {
        "count": 2,
        "all_pass": True,
        "checks": [
            {"name": "identities", "pass": True, "checks": 1207, "failures": []},
            {"name": "support corollaries", "pass": True, "liftings": VERIFY_TRIALS, "failures": []},
        ],
        "chow_vertices": [[1, 2, 1], [2, 0, 2]],
        "hurwitz_vertices": [[0, 2, 0], [1, 0, 1]],
    }
    return [{"exit": 0, "report": copy.deepcopy(report)} for _ in CORPUS]


def test_verify_corpus_tampering_fails_and_new_keys_do_not():
    outputs = _verify_outputs()
    ref = _reference("verify-corpus", outputs)
    jobs = [{"input": f"data/{name}", "seed": 0} for name in CORPUS]
    assert check("verify-corpus", jobs, outputs, ref) == []

    extra = copy.deepcopy(outputs)
    extra[2]["report"]["certificates"] = [{"vertex": [1, 2, 1], "lifting": [0, -1, 0]}]
    extra[2]["report"]["checks"].append({"name": "certificates", "pass": True})
    assert check("verify-corpus", jobs, extra, ref) == []

    for mutate, fact in [
        (lambda out: out["report"]["chow_vertices"].pop(), "chow_vertices"),
        (lambda out: out.update(exit=1), "exit"),
        (lambda out: out["report"].update(all_pass=False), "all_pass"),
        (lambda out: out["report"]["checks"][1].update(liftings=199), "liftings_eq_trials"),
        (lambda out: out["report"]["checks"][0].update(checks=1206), "identity_checks"),
    ]:
        tampered = copy.deepcopy(outputs)
        mutate(tampered[4])
        errors = check("verify-corpus", jobs, tampered, ref)
        assert errors and all(e.startswith(f"{CORPUS[4]}: {fact} ") for e in errors), (fact, errors)


def test_missing_report_is_a_failure_not_a_crash():
    outputs = _verify_outputs()
    ref = _reference("verify-corpus", outputs)
    outputs[0] = {"exit": 3, "report": None}
    jobs = [{"input": f"data/{name}", "seed": 0} for name in CORPUS]
    errors = check("verify-corpus", jobs, outputs, ref)
    assert errors and errors[0].startswith("malformed output")
