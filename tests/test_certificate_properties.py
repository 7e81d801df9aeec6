"""Certificate fuzzing: one mutation of a small valid certificate, run
through ``verify-design``.  A malformed payload is a usage error (exit 2);
no input is an internal error (exit 4)."""

import contextlib
import copy
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_canonical_json, reference_design_payload
from polardesign import cli
from polardesign.geometry import Subspace, standard_polar_space
from polardesign.incidence import DesignInstance, design_to_json
from polardesign.search import SearchProblem, find_design

# the 5-line spread of C_2 q=2: blocks of 2 rows of 4 codes below p = 2
BASE = reference_design_payload(
    find_design(SearchProblem(space=standard_polar_space("C", 2, 2), t=1, k=2, lam=1))
)
REQUIRED = ("family", "q", "n", "t", "k", "lambda", "blocks")
JSON_TYPE = {**{key: int for key in REQUIRED}, "family": str, "blocks": list, "provenance": dict}
# one value of each JSON type; bool and float are not integers here
SAMPLES = (2, 2.5, True, None, "2", [2], {"a": 2})


blocks_at = st.integers(0, len(BASE["blocks"]) - 1)
rows_at = st.integers(0, 1)


@st.composite
def deleted_key(draw):
    payload = copy.deepcopy(BASE)
    key = draw(st.sampled_from(REQUIRED + ("provenance",)))
    del payload[key]
    return payload, {2} if key in REQUIRED else {0}


@st.composite
def wrong_type(draw):
    payload = copy.deepcopy(BASE)
    key = draw(st.sampled_from(tuple(JSON_TYPE) + ("whole", "block", "row")))
    if key == "whole":
        return draw(st.sampled_from([v for v in SAMPLES if not isinstance(v, dict)])), {2}
    if key == "block":  # a block that is not a list of rows
        payload["blocks"][draw(blocks_at)] = draw(st.sampled_from([2, "2", None, [2]]))
    elif key == "row":  # a row that is not a list of codes
        block = payload["blocks"][draw(blocks_at)]
        block[draw(rows_at)] = draw(st.sampled_from([2, "2", None]))
    else:
        wrong = [v for v in SAMPLES if type(v) is not JSON_TYPE[key]]
        payload[key] = draw(st.sampled_from(wrong))
    return payload, {2}


@st.composite
def bad_code(draw):
    payload = copy.deepcopy(BASE)
    row = payload["blocks"][draw(blocks_at)][draw(rows_at)]
    code = draw(st.sampled_from([-1, 2, 3, 1.5, True, "1", None]))
    row[draw(st.integers(0, len(row) - 1))] = code
    return payload, {2}


@st.composite
def ragged_row(draw):
    payload = copy.deepcopy(BASE)
    row = payload["blocks"][draw(blocks_at)][draw(rows_at)]
    if draw(st.booleans()):
        row.pop()
    else:
        row.append(0)
    return payload, {2}


@st.composite
def dropped_or_duplicated(draw):
    # well-formed JSON that is no longer the claimed design: a violation
    payload = copy.deepcopy(BASE)
    blocks = payload["blocks"]
    i = draw(blocks_at)
    target = draw(st.sampled_from(["row", "block"]))
    items = blocks[i] if target == "row" else blocks
    j = draw(rows_at) if target == "row" else i
    if draw(st.booleans()):
        del items[j]
    else:
        items.insert(j, copy.deepcopy(items[j]))
    return payload, {1}


@st.composite
def parameter(draw):
    # n, q, t, k in -1..4 only: standard_polar_space is quadratic in n
    payload = copy.deepcopy(BASE)
    payload[draw(st.sampled_from(["n", "q", "t", "k"]))] = draw(st.integers(-1, 4))
    return payload, {0, 1, 2}


mutations = st.one_of(
    deleted_key(), wrong_type(), bad_code(), ragged_row(), dropped_or_duplicated(), parameter()
)


def test_base_certificate_verifies(tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(BASE))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify-design", str(path)]) == 0


@settings(derandomize=True, deadline=None, max_examples=300)
@given(mutation=mutations)
def test_mutated_certificate_exits_with_a_verdict_not_a_crash(tmp_path_factory, mutation):
    payload, allowed = mutation
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify-design", str(path)])
    assert code in allowed, (payload, code, err.getvalue())
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error:")


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**40), 10**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
big_ints = st.integers(-(10**30), 10**30)


@st.composite
def designs(draw):
    d = draw(st.integers(2, 10))
    k = draw(st.integers(0, d))
    codes = st.binary(min_size=k * d, max_size=k * d)
    blocks = tuple(Subspace(d, data) for data in draw(st.lists(codes, max_size=20)))
    return DesignInstance(
        family=draw(st.text()),
        q=draw(big_ints),
        n=draw(big_ints),
        t=draw(big_ints),
        k=k,
        lam=draw(big_ints),
        blocks=blocks,
        provenance=draw(st.dictionaries(st.text(), json_values, max_size=5)),
    )


@settings(derandomize=True, deadline=None, max_examples=300)
@given(instance=designs())
def test_certificate_text_is_the_whole_payload_through_json_dumps(instance):
    assert design_to_json(instance) == reference_canonical_json(reference_design_payload(instance))
