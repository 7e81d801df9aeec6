import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import reference_canonical_json
from polardesign import cli
from polardesign.cli import main
from polardesign.counting import polar_count
from polardesign.geometry import FAMILY_NAMES, isotropic_kspaces, standard_polar_space
from polardesign.incidence import design_from_json
from polardesign.klp import klp_budget

SRC = str(Path(__file__).resolve().parent.parent / "src")


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


ENUMERATE_SPACES = [
    (family, n, 2) for family in FAMILY_NAMES for n in (1, 2, 3)
] + [("2A-even", 2, 3)]


@pytest.mark.parametrize(
    "family,n,q", ENUMERATE_SPACES, ids=[f"{f}-{n}-q{q}" for f, n, q in ENUMERATE_SPACES]
)
def test_enumerate_text_is_the_whole_payload_through_json_dumps(capsys, family, n, q):
    # the subspace list is written directly in the canonical layout, in
    # chunks; the reference encodes the whole payload at once
    space = standard_polar_space(family, n, q)
    for k in range(n + 1):
        code, out, _ = run_cli(capsys, "enumerate", "--family", family, "--q", str(q),
                               "--n", str(n), "--k", str(k))
        level = isotropic_kspaces(space, k)
        want = {"count": str(len(level)), "subspaces": [s.to_lists() for s in level]}
        assert code == 0 and out == reference_canonical_json(want)


@pytest.mark.parametrize(
    "flags,code",
    [(("--k", "3"), 2), (("--k", "2", "--budget", "1"), 3)],
    ids=["k-above-n", "budget"],
)
def test_enumerate_writes_nothing_to_stdout_when_it_fails(capsys, flags, code):
    got = run_cli(capsys, "enumerate", "--family", "C", "--q", "2", "--n", "2", *flags)
    assert got[:2] == (code, "") and got[2]


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


@pytest.mark.parametrize(
    "argv,blocks",
    [
        # multiplicity cover choosing 1120 blocks
        (("--family", "B", "--q", "3", "--n", "3", "--t", "2", "--k", "3", "--lambda", "4",
          "--node-budget", "20000"), 1120),
        # exact cover 3280 levels deep
        (("--family", "C", "--q", "3", "--n", "4", "--t", "1", "--k", "1", "--lambda", "1"), 3280),
    ],
)
def test_deep_search_ends_at_a_design_or_its_budget(tmp_path, capsys, argv, blocks):
    # a search deeper than the interpreter's recursion limit must not crash
    cert = tmp_path / "design.json"
    code, out, _ = run_cli(capsys, "search", *argv, "--output", str(cert))
    assert code in (0, 3)
    if code == 3:
        assert json.loads(out)["reason"] == "budget"
        return
    assert len(design_from_json(out).blocks) == blocks
    code, out, _ = run_cli(capsys, "verify-design", str(cert))
    assert code == 0
    assert json.loads(out)["verified"] is True


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


def test_q_help_states_the_field_order_rule(capsys):
    # the Hermitian families have a field of order q^2, not q
    code, out, _ = run_cli(capsys, "count", "--help")
    text = " ".join(out.split())
    assert code == 0
    assert "base field order" not in text
    assert "the Hermitian families 2A-odd and 2A-even, whose field has order q^2" in text


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "count", "--family", "Z", "--q", "2", "--n", "2", "--k", "1")[0] == 2
    assert run_cli(capsys, "count", "--family", "C", "--q", "6", "--n", "2", "--k", "1")[0] == 2
    # a negative Hermitian q squares to a valid order, and must still be refused
    hermitian = ("--family", "2A-odd", "--q", "-2")
    for argv in (
        ("count", *hermitian, "--n", "2", "--k", "1"),
        ("search", *hermitian, "--n", "1", "--t", "1", "--k", "1", "--lambda", "1"),
    ):
        assert run_cli(capsys, *argv)[:2] == (2, "")
    assert run_cli(capsys, "decode", "--p", "6", "--t", "1", "--k", "2")[:2] == (2, "")
    # 2^89 - 1: a prime above the bound where Miller-Rabin is proven to decide
    assert run_cli(capsys, "decode", "--p", str(2**89 - 1), "--t", "1", "--k", "2")[:2] == (2, "")
    assert run_cli(capsys, "verify-design", "/nonexistent/path.json")[0] == 2
    for flag, value in (("--constant", "1/0"), ("--c-prime", "0/0")):
        code, out, err = run_cli(
            capsys, "klp-report", "--family", "C", "--q", "2", "--n", "3", "--t", "1", "--k", "2",
            flag, value,
        )
        assert (code, out) == (2, "") and err.startswith("error: ")
    space = ("--family", "C", "--q", "2", "--n", "2")
    for argv in (
        ("enumerate", *space, "--k", "1", "--budget", "-1"),
        ("search", *space, "--t", "1", "--k", "2", "--lambda", "1", "--node-budget", "-5"),
        ("verify-counts", *space, "--samples", "-3"),
        ("verify-design", "/nonexistent/path.json", "--budget", "-1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and "must not be negative" in err


def test_internal_errors_exit_four_not_violation(monkeypatch, capsys):
    # a failed self-check is a bug, not a verdict on the input, so it must not
    # read as exit 1 ("violation found")
    def broken_search(problem):
        raise AssertionError("search produced an invalid design")

    monkeypatch.setattr(cli, "find_design", broken_search)
    code, out, err = run_cli(
        capsys, "search", "--family", "C", "--q", "2", "--n", "2", "--t", "1", "--k", "2",
        "--lambda", "1",
    )
    assert code == 4
    assert out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert err.splitlines()[-1] == (
        "internal error: AssertionError: search produced an invalid design"
    )


def test_cli_import_loads_no_module_its_code_does_not_run():
    # dataclasses would pull in inspect, ast, dis and tokenize, and traceback
    # is imported only where an internal error prints one
    script = (
        "import sys; before = set(sys.modules); import polardesign.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    loaded = set(run.stdout.split())
    assert "polardesign.cli" in loaded
    unused = {"dataclasses", "inspect", "ast", "dis", "tokenize", "linecache", "traceback"}
    assert not loaded & unused


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
        want = klp_budget(space, 3, 7)["theorem_cap_p_21nt"]
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
        {**_CERT, "family": "2A-odd", "q": -2, "blocks": []},
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
        "negative Hermitian q",
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


@pytest.mark.parametrize("lam", [0, -1])
def test_certificate_lambda_below_one_is_a_usage_error(tmp_path, capsys, lam):
    # as search refuses it; neither a "violation" (exit 1) nor, with no
    # blocks at lambda 0, a "verified" design (exit 0)
    cert = tmp_path / "lam.json"
    cert.write_text(json.dumps({**_CERT, "lambda": lam, "blocks": []}))
    with pytest.raises(ValueError, match="lambda must be positive"):
        design_from_json(cert.read_text())
    code, out, err = run_cli(capsys, "verify-design", str(cert))
    assert (code, out) == (2, "") and err == "error: lambda must be positive\n"


def test_field_orders_beyond_the_cap_are_rejected_before_factoring(tmp_path, capsys, monkeypatch):
    # a field order above the cap is refused without being factored: the cap
    # check must come first, in the library and in both CLI paths that build a field
    from polardesign import fields

    big = 1_000_000_007
    split = fields.prime_power_split

    def guarded_split(p):
        assert p <= fields.FIELD_ORDER_CAP, f"factored {p} before checking the cap"
        return split(p)

    monkeypatch.setattr(fields, "prime_power_split", guarded_split)
    with pytest.raises(ValueError, match="cap"):
        fields.make_field(big)
    code, out, err = run_cli(
        capsys, "count", "--family", "C", "--q", str(big), "--n", "2", "--k", "1"
    )
    assert (code, out) == (2, "") and err.startswith("error:")
    cert = tmp_path / "big.json"
    cert.write_text(json.dumps({**_CERT, "q": big, "blocks": []}))
    code, out, err = run_cli(capsys, "verify-design", str(cert))
    assert (code, out) == (2, "") and err.startswith("error:")


def test_counting_commands_never_build_a_form(monkeypatch, capsys):
    from polardesign import geometry

    def refuse(*args):
        raise AssertionError("a counting command built a form")

    monkeypatch.setattr(geometry, "FormEvaluator", refuse)
    code, out, _ = run_cli(capsys, "count", "--family", "C", "--q", "2", "--n", "2000", "--k", "1")
    assert code == 0 and json.loads(out)["count"] == str(2**4000 - 1)
    code, out, _ = run_cli(
        capsys, "klp-report", "--family", "D", "--q", "2", "--n", "2000", "--t", "1", "--k", "2"
    )
    assert code == 0 and json.loads(out)["n"] == "2000"


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--family", "C", "--q", "32", "--n", "1500", "--k", "1"),
        ("search", "--family", "C", "--q", "32", "--n", "1500", "--t", "1", "--k", "1", "--lambda", "1"),
        ("verify-counts", "--family", "D", "--q", "31", "--n", "1500", "--samples", "0"),
    ],
    ids=["enumerate", "search", "verify-counts"],
)
def test_budget_exits_name_the_level_not_its_predicted_size(capsys, argv):
    # the predicted level size has over 4300 digits, more than str() converts
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "budget exhausted: level 1 is predicted to exceed budget 10000000\n"


def test_deeply_nested_certificate_is_a_usage_error(tmp_path, capsys):
    cert = tmp_path / "deep.json"
    cert.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValueError, match="nests too deeply"):
        design_from_json(cert.read_text())
    code, out, err = run_cli(capsys, "verify-design", str(cert))
    assert (code, out) == (2, "") and err.startswith("error:")


_README_SEARCH = "search --family C --q 2 --n 3 --t 1 --k 3 --lambda 1 --output spread.json"


# (command, exit code, sha256 of stdout)
_PINNED = [
    # the README commands, in README order
    ("count --family C --q 2 --n 2 --k 1", 0,
     "c30a6d7010dc62af5547a867fece96d964448257470911f6c4b520eb4f498ec2"),
    ("enumerate --family D --q 2 --n 2 --k 1", 0,
     "3fe298f97c88228939ebc70f146fe9ad54feffad45ecbc1b8b56947727da7ac7"),
    ("verify-counts --family 2A-odd --q 2 --n 2 --samples 10", 0,
     "413b0cdf1762da28dfa7a504a764fc8d0f1a8cb87f7b5e310562b256dadc7bcd"),
    ("decode --p 2 --t 1 --k 2", 0,
     "22e8f81efad3cc0d03ccd9ab14daf5723e41028f4a2dc335f69b855fa1db1148"),
    ("verify-decode --family C --q 2 --n 3 --t 1 --k 2", 0,
     "6012c36708a9591064e4cb4fe693f8c0d03878c0e7e2cc2706493ca7d2e79359"),
    ("klp-report --family C --q 2 --n 3 --t 1 --k 2 --constant 1", 0,
     "5ef8ddac985b49a1bf290ee5d743d5c1b74a7be96426e6dc9969d32d4d6082c8"),
    ("klp-report --family C --q 2 --n 3 --t 1 --k 2 --constant 3/2 --c-prime 2/3", 0,
     "c0c85c8cb283ea8731b37fcb14e62b9f7563b55ad847b6cf2cbc2a3a2d0a57c0"),
    (_README_SEARCH, 0,
     "9d343258ef22658987f86910023bde3ae4e19530d4527d56fb9a22f7b8668a62"),
    ("verify-design spread.json", 0,
     "0681d4fbb158aca93e6fb2bdda9dbb86a8effabf372b3720238a5faaeda3373b"),
    # levels of a Hermitian and a parabolic space
    ("enumerate --family 2A-even --q 2 --n 2 --k 2", 0,
     "0d97d7c1ba423c5c66a70394a797762489afa15ff97c59a1213a5f94b73f9065"),
    ("enumerate --family B --q 3 --n 2 --k 2", 0,
     "de089dac6636aec7008de9d733e708212ffd56d9dd1f9f794be764c5b69d33a4"),
    ("verify-counts --family 2A-odd --q 3 --n 2 --samples 10", 0,
     "5a858131ae648e8a455451dd82456a9e36cfba6e9152e5f2c83b8513c6fb27dc"),
    ("verify-decode --family C --q 3 --n 4 --t 1 --k 3", 0,
     "85382b398af36c8cbe733808d4995f358faea41323cbdc5afe8d6237e9a0b1ed"),
    ("search --family B --q 3 --n 3 --t 2 --k 3 --lambda 2 --node-budget 2000", 3,
     "38c8f730eb4e2fef74204e6efa127492e8861b812ce228320c250df4903026c8"),
    # the 11,475-member level 3 of C_4 q=2, where most groups' heads share
    # one lead, and an alternating form over F_4 at rank 3
    ("enumerate --family C --q 2 --n 4 --k 3", 0,
     "308397d86034a16564175d45237f8fc19c1432d58d16622a4065d9687561d865"),
    ("enumerate --family C --q 4 --n 3 --k 3", 0,
     "6a593693167b61dea9e2733cadb8b526d10e0fc83901852e795a82793cdfb52f"),
]


@pytest.mark.parametrize("command,code,digest", _PINNED)
def test_stdout_bytes_and_exit_codes_are_pinned(tmp_path, monkeypatch, capsys, command, code, digest):
    # a change to enumeration, search or serialization that alters any output
    # byte of these commands changes a digest
    monkeypatch.chdir(tmp_path)
    if command.startswith("verify-design"):
        assert run_cli(capsys, *_README_SEARCH.split())[0] == 0
    got, out, _ = run_cli(capsys, *command.split())
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def test_the_cached_parser_survives_errors_help_and_redirects(tmp_path, monkeypatch, capsys):
    # main builds its parser once per process: a usage error first, then
    # help written to another stream, must leave the README commands
    # printing their pinned bytes to the stream of the moment
    monkeypatch.chdir(tmp_path)
    cli.build_parser.cache_clear()
    code, out, err = run_cli(capsys, "count", "--family", "Z", "--q", "2", "--n", "2", "--k", "1")
    assert (code, out) == (2, "") and "invalid choice" in err
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(["--help"]) == 0
    assert text.getvalue().startswith("usage: polardesign")
    assert tuple(capsys.readouterr()) == ("", "")
    for command, code, digest in _PINNED[:9]:
        got, out, _ = run_cli(capsys, *command.split())
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), command
