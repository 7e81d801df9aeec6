import json
import sys

import pytest

from polardesign.cli import main
from polardesign.counting import polar_count
from polardesign.geometry import standard_polar_space
from polardesign.incidence import design_from_json
from polardesign.klp import klp_budget


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_matches_spec_example(capsys):
    code, out, _ = run_cli(capsys, "count", "--family", "C", "--q", "2", "--n", "2", "--k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == "15"
    assert payload["factors"] == ["3", "5"]


def test_count_through(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--family", "C", "--q", "2", "--n", "2", "--k", "2", "--t", "1"
    )
    assert code == 0
    assert json.loads(out)["count"] == "3"


def test_count_is_byte_identical_across_runs(capsys):
    _, first, _ = run_cli(capsys, "count", "--family", "B", "--q", "3", "--n", "3", "--k", "3")
    _, second, _ = run_cli(capsys, "count", "--family", "B", "--q", "3", "--n", "3", "--k", "3")
    assert first == second
    assert json.loads(first)["count"] == "1120"


def test_enumerate(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--family", "D", "--q", "2", "--n", "2", "--k", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == "9"
    assert len(payload["subspaces"]) == 9


def test_enumerate_budget_exhaustion_exit_code(capsys):
    code, out, err = run_cli(
        capsys,
        "enumerate",
        "--family",
        "C",
        "--q",
        "2",
        "--n",
        "3",
        "--k",
        "2",
        "--budget",
        "5",
    )
    assert code == 3
    assert out == ""
    assert "budget" in err


def test_verify_counts(capsys):
    code, out, _ = run_cli(
        capsys, "verify-counts", "--family", "2D", "--q", "2", "--n", "2", "--samples", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert all(check["ok"] for check in payload["checks"])


def test_decode_matches_spec_example(capsys):
    code, out, _ = run_cli(capsys, "decode", "--p", "2", "--t", "1", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["detD"] == "6"
    assert payload["f"] == ["-1", "2"]
    assert payload["m"] == "6"
    assert payload["gamma_l1"] == "10"
    assert payload["c4"] == "10"
    assert payload["verified"] is True


def test_verify_decode(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-decode",
        "--family",
        "C",
        "--q",
        "2",
        "--n",
        "3",
        "--t",
        "1",
        "--k",
        "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["m"] == "6"
    assert payload["tspaces_checked"] == "63"
    assert payload["violations"] == []


def test_verify_decode_seeded(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-decode",
        "--family",
        "B",
        "--q",
        "2",
        "--n",
        "3",
        "--t",
        "1",
        "--k",
        "2",
        "--seed",
        "5",
    )
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_klp_report_serializes_big_numbers_as_strings(capsys):
    code, out, _ = run_cli(
        capsys,
        "klp-report",
        "--family",
        "C",
        "--q",
        "2",
        "--n",
        "3",
        "--t",
        "1",
        "--k",
        "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count_tspaces"] == "63"
    assert isinstance(payload["n_threshold"], str) and payload["n_threshold"].isdigit()
    assert payload["k_exceeds_21t_over_2"] is False
    assert payload["inequalities"]["A<=10p^(2nt)"] is True


def test_search_and_verify_roundtrip(tmp_path, capsys):
    cert = tmp_path / "spread.json"
    code, out, _ = run_cli(
        capsys,
        "search",
        "--family",
        "C",
        "--q",
        "2",
        "--n",
        "2",
        "--t",
        "1",
        "--k",
        "2",
        "--lambda",
        "1",
        "--output",
        str(cert),
    )
    assert code == 0
    instance = design_from_json(out)
    assert len(instance.blocks) == 5
    assert cert.read_text() == out

    code, out, _ = run_cli(capsys, "verify-design", str(cert))
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True and payload["lambda"] == "1"


def test_search_infeasible_exit_code(capsys):
    code, out, _ = run_cli(
        capsys,
        "search",
        "--family",
        "C",
        "--q",
        "2",
        "--n",
        "2",
        "--t",
        "1",
        "--k",
        "2",
        "--lambda",
        "4",
    )
    assert code == 1
    assert json.loads(out)["reason"] == "infeasible"


def test_search_node_budget_exit_code(capsys):
    code, out, _ = run_cli(
        capsys,
        "search",
        "--family",
        "C",
        "--q",
        "2",
        "--n",
        "3",
        "--t",
        "1",
        "--k",
        "3",
        "--lambda",
        "1",
        "--node-budget",
        "1",
    )
    assert code == 3
    assert json.loads(out)["reason"] == "budget"


def test_verify_design_rejects_mutation(tmp_path, capsys):
    cert = tmp_path / "spread.json"
    run_cli(
        capsys,
        "search",
        "--family",
        "C",
        "--q",
        "2",
        "--n",
        "2",
        "--t",
        "1",
        "--k",
        "2",
        "--lambda",
        "1",
        "--output",
        str(cert),
    )
    payload = json.loads(cert.read_text())
    payload["blocks"][0] = payload["blocks"][1]
    cert.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    code, out, _ = run_cli(capsys, "verify-design", str(cert))
    assert code == 1
    result = json.loads(out)
    assert result["verified"] is False
    assert "violating_tspace" in result


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "count", "--family", "Z", "--q", "2", "--n", "2", "--k", "1")[0] == 2
    assert run_cli(capsys, "count", "--family", "C", "--q", "6", "--n", "2", "--k", "1")[0] == 2
    assert run_cli(capsys, "verify-design", "/nonexistent/path.json")[0] == 2


def test_diagnostics_go_to_stderr_not_stdout(capsys):
    code, out, err = run_cli(
        capsys, "count", "--family", "C", "--q", "6", "--n", "2", "--k", "1"
    )
    assert code == 2 and out == "" and err != ""


def test_integers_beyond_the_str_digit_limit_are_printed_exactly(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(
        capsys, "klp-report", "--family", "2A-odd", "--q", "5", "--n", "60", "--t", "3", "--k", "7"
    )
    assert code == 0
    report = json.loads(out)
    code, out, _ = run_cli(
        capsys, "count", "--family", "C", "--q", "2", "--n", "200", "--k", "200"
    )
    assert code == 0
    count = json.loads(out)["count"]
    assert sys.get_int_max_str_digits() == limit  # no setting outlives the command
    sys.set_int_max_str_digits(0)
    try:
        space = standard_polar_space("2A-odd", 60, 5)
        want = klp_budget(space, 3, 7).theorem_cap
        assert report["theorem_cap_p_21nt"] == str(want) and len(str(want)) > limit
        want = polar_count(standard_polar_space("C", 200, 2), 200)
        assert count == str(want) and len(count) > limit
    finally:
        sys.set_int_max_str_digits(limit)


_CERT = {"family": "C", "q": 2, "n": 2, "t": 1, "k": 2, "lambda": 1}


@pytest.mark.parametrize(
    "payload",
    [
        [1, 2],
        {**_CERT, "blocks": 5},
        {**_CERT, "blocks": [[[1, 0, 0, 0], [0, 0, 1]]]},
        {**_CERT, "blocks": [[[1, 0, 0, 0], [0, 0, 2, 0]]]},
        {**_CERT, "blocks": [[1, 0, 0, 0]]},
        {**_CERT, "lambda": True, "blocks": []},
        {**_CERT, "q": "2", "blocks": []},
        {**_CERT, "blocks": [], "provenance": []},
    ],
    ids=[
        "top-level array",
        "blocks not a list",
        "ragged rows",
        "code outside the field",
        "block not a list of rows",
        "boolean lambda",
        "string q",
        "provenance not an object",
    ],
)
def test_malformed_certificate_is_a_usage_error(tmp_path, capsys, payload):
    cert = tmp_path / "bad.json"
    cert.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        design_from_json(cert.read_text())
    code, out, err = run_cli(capsys, "verify-design", str(cert))
    assert code == 2 and out == "" and err.startswith("error:")
