import json
import tracemalloc

import pytest

from polardesign import geometry
from polardesign.counting import gaussian_binomial, polar_count_through
from polardesign.geometry import (
    Subspace,
    isotropic_kspaces,
    standard_polar_space,
    subspace_contains,
)
from polardesign.incidence import (
    DesignInstance,
    constant_row_sum_check,
    design_from_json,
    design_to_json,
    read_certificate,
    verify_design,
    write_certificate,
)
from polardesign.search import SearchProblem, find_design


def _spread(family, n, q, k):
    space = standard_polar_space(family, n, q)
    return find_design(SearchProblem(space=space, t=1, k=k, lam=1))


def test_phi_basics():
    # the incidence indicator phi_V(U) is subspace_contains(field, U, V)
    sp = standard_polar_space("C", 2, 2)
    f = sp.field
    points = isotropic_kspaces(sp, 1)
    lines = isotropic_kspaces(sp, 2)
    assert subspace_contains(f, points[0], points[0])
    outside = next(p for p in points if not subspace_contains(f, lines[0], p))
    assert not subspace_contains(f, lines[0], outside)
    for u in lines:
        assert sum(subspace_contains(f, u, v) for v in points) == 3  # three points per line


def test_constant_row_sum_examples():
    report = constant_row_sum_check(standard_polar_space("C", 2, 2), 1, 2)
    assert report.ok and report.expected == 3 and report.checked == 15
    report = constant_row_sum_check(standard_polar_space("D", 2, 2), 1, 2)
    assert report.ok and report.expected == 3 and report.checked == 6
    report = constant_row_sum_check(standard_polar_space("B", 2, 3), 2, 2)
    assert report.ok and report.expected == 1


def test_constant_row_sum_rejects_bad_range():
    with pytest.raises(ValueError):
        constant_row_sum_check(standard_polar_space("C", 2, 2), 2, 1)


@pytest.mark.parametrize(
    "family,n,q,t,k", [("C", 2, 2, 1, 2), ("B", 3, 2, 1, 3), ("D", 3, 2, 2, 3)]
)
def test_constant_row_sum_reports_a_missing_tspace(monkeypatch, family, n, q, t, k):
    # hide one t-space from the level the check reads: the lex-least k-space
    # through it is the first to come up one short
    space = standard_polar_space(family, n, q)
    tspaces = isotropic_kspaces(space, t)
    dropped = tspaces[len(tspaces) // 2]
    full_level = geometry._final_level

    def level_without_dropped(sp, j, budget, start=None):
        level = full_level(sp, j, budget, start)
        if j == t and start is None:
            return [data for data in level if data != dropped.to_bytes()]
        return level

    monkeypatch.setattr(geometry, "_final_level", level_without_dropped)
    report = constant_row_sum_check(space, t, k)
    kspaces = isotropic_kspaces(space, k)
    first = min(u for u in kspaces if subspace_contains(space.field, u, dropped))
    assert not report.ok
    assert report.expected == gaussian_binomial(k, t, space.p)
    assert report.violation == (first, report.expected - 1)
    assert report.checked == kspaces.index(first) > 0


def _patch_tsubspaces_of(monkeypatch, outer, mutate):
    """Make ``geometry._tsubspace_bytes`` give ``outer`` the t-subspaces
    ``mutate`` makes of its own list, one per rep column; every other outer
    keeps its entries."""
    columns_of = geometry._tsubspace_bytes

    def patched(field, outers, d, t):
        columns = [list(column) for column in columns_of(field, outers, d, t)]
        if outer in outers:
            i = outers.index(outer)
            for column, sub in zip(columns, mutate([column[i] for column in columns])):
                column[i] = sub
        return columns

    monkeypatch.setattr(geometry, "_tsubspace_bytes", patched)


def test_constant_row_sum_rejects_repeated_tspaces(monkeypatch):
    # a k-space whose t-subspaces all lie in the level but repeat one is
    # still a violation: the positions must be distinct
    space = standard_polar_space("C", 2, 2)
    kspaces = isotropic_kspaces(space, 2)
    bad = kspaces[4]
    _patch_tsubspaces_of(monkeypatch, bad.data, lambda subs: subs[:1] + subs[:-1])
    report = constant_row_sum_check(space, 1, 2)
    assert not report.ok and report.checked == 4 and report.violation == (bad, 3)


def test_constant_row_sum_rejects_tspaces_outside_the_level(monkeypatch):
    # a k-space with [k t]_p distinct positions, one of them None, is a
    # violation too: one of its t-subspaces is no isotropic t-space
    space = standard_polar_space("C", 2, 2)
    kspaces = isotropic_kspaces(space, 2)
    bad = kspaces[4]
    _patch_tsubspaces_of(monkeypatch, bad.data, lambda subs: [bytes(space.d)] + subs[1:])
    report = constant_row_sum_check(space, 1, 2)
    assert not report.ok and report.checked == 4 and report.violation == (bad, 2)


@pytest.mark.parametrize("in_a_block,same_size", [(False, False), (True, False), (True, True)])
def test_verify_rejects_a_level_missing_a_tspace(monkeypatch, in_a_block, same_size):
    # a level missing a t-space is an enumeration fault, not a verdict on the
    # blocks: whether a block contains the missing t-space or not, and also
    # when a repeated entry keeps the level at its closed-form size
    space = standard_polar_space("C", 3, 2)
    block = _spread("C", 3, 2, 3).blocks[0]
    level = geometry._final_level(space, 1, geometry.DEFAULT_ENUMERATION_BUDGET)
    inside = {s.to_bytes() for s in geometry.subspaces_within(space.field, block, 1)}
    dropped = next(data for data in level if (data in inside) == in_a_block)
    broken = [data for data in level if data != dropped]
    if same_size:
        broken.append(broken[-1])
    monkeypatch.setitem(geometry._LEVEL_CACHE, (space, 1), b"".join(broken))
    instance = DesignInstance(family="C", q=2, n=3, t=1, k=3, lam=1, blocks=(block,))
    with pytest.raises(AssertionError, match="level 1 is not every isotropic 1-space"):
        verify_design(instance)


def test_verify_complete_design():
    sp = standard_polar_space("C", 2, 2)
    blocks = tuple(isotropic_kspaces(sp, 2))
    lam = polar_count_through(sp, 1, 2)
    instance = DesignInstance(
        family="C", q=2, n=2, t=1, k=2, lam=lam, blocks=blocks, provenance={}
    )
    report = verify_design(instance)
    assert report.ok and report.lam == 3 and report.ratio_consistent


def test_verify_spread():
    instance = _spread("C", 2, 2, 2)
    report = verify_design(instance)
    assert report.ok and report.lam == 1


def test_verify_detects_duplicate_block_and_uncovered_point():
    instance = _spread("C", 2, 2, 2)
    blocks = list(instance.blocks)
    blocks[2] = blocks[0]  # duplicate leaves some point uncovered
    mutated = DesignInstance(
        family="C", q=2, n=2, t=1, k=2, lam=1, blocks=tuple(blocks), provenance={}
    )
    report = verify_design(mutated)
    assert not report.ok
    assert any("duplicate" in reason for _, reason in report.block_errors)
    assert report.violation is not None
    violating, count = report.violation
    assert count != 1 and violating.k == 1
    # some point is now uncovered (the lex-least violation may be the
    # double-covered one; both defects are present)
    space = mutated.space()
    uncovered = [
        v
        for v in isotropic_kspaces(space, 1)
        if not any(subspace_contains(space.field, b, v) for b in mutated.blocks)
    ]
    assert uncovered


def test_verify_detects_swapped_block():
    instance = _spread("C", 3, 2, 3)
    space = instance.space()
    outside = next(
        u for u in isotropic_kspaces(space, 3) if u not in set(instance.blocks)
    )
    blocks = list(instance.blocks)
    blocks[0] = outside
    mutated = DesignInstance(
        family="C", q=2, n=3, t=1, k=3, lam=1, blocks=tuple(blocks), provenance={}
    )
    report = verify_design(mutated)
    assert not report.ok and report.violation is not None


def test_verify_reports_ill_formed_blocks_with_index():
    sp = standard_polar_space("D", 2, 2)
    anisotropic = Subspace.from_rows(4, ((1, 0, 0, 0), (0, 1, 0, 0)))
    non_canonical = Subspace.from_rows(4, ((1, 1, 0, 0), (0, 1, 0, 0)))
    # two rows and a stray code: the block's data is no 2 x 4 matrix
    ragged = Subspace(4, bytes((1, 0, 0, 0, 0, 0, 1, 0, 1)))
    instance = DesignInstance(
        family="D",
        q=2,
        n=2,
        t=1,
        k=2,
        lam=1,
        blocks=(anisotropic, non_canonical, ragged),
        provenance={},
    )
    report = verify_design(instance)
    assert not report.ok
    indices = {i for i, _ in report.block_errors}
    assert indices == {0, 1, 2}
    assert (2, "not a basis: ragged matrix") in report.block_errors


def test_verify_wrong_lambda_claim():
    instance = _spread("D", 2, 2, 2)
    wrong = DesignInstance(
        family="D", q=2, n=2, t=1, k=2, lam=2, blocks=instance.blocks, provenance={}
    )
    report = verify_design(wrong)
    assert not report.ok
    assert report.violation is not None


def test_certificate_roundtrip_is_byte_identical(tmp_path):
    instance = _spread("C", 2, 2, 2)
    text = design_to_json(instance)
    again = design_from_json(text)
    assert design_to_json(again) == text
    path = tmp_path / "cert.json"
    write_certificate(path, instance)
    assert design_to_json(read_certificate(path)) == text
    # a second write of the re-read instance is identical on disk
    path2 = tmp_path / "cert2.json"
    write_certificate(path2, read_certificate(path))
    assert path.read_bytes() == path2.read_bytes()


def test_certificate_text_takes_less_than_twice_its_length():
    # the 1120 generators of B_3 q=3, the lambda = 4 design: written block by
    # block into chunks, where one json.dumps held a string per token
    space = standard_polar_space("B", 3, 3)
    instance = DesignInstance(
        family="B", q=3, n=3, t=2, k=3, lam=4, blocks=tuple(isotropic_kspaces(space, 3)),
        provenance={"method": "exact-cover", "nodes": 1121, "seed": 0},
    )
    tracemalloc.start()
    try:
        text = design_to_json(instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == 326_098
    assert peak < 2 * len(text)


def test_certificate_schema():
    instance = _spread("D", 2, 2, 2)
    payload = json.loads(design_to_json(instance))
    assert set(payload) == {
        "family",
        "q",
        "n",
        "t",
        "k",
        "lambda",
        "blocks",
        "provenance",
    }
    assert payload["lambda"] == 1
    assert all(
        isinstance(row, list) and all(isinstance(x, int) for x in row)
        for block in payload["blocks"]
        for row in block
    )


def test_certificate_missing_key_rejected():
    instance = _spread("C", 2, 2, 2)
    payload = json.loads(design_to_json(instance))
    del payload["blocks"]
    with pytest.raises(ValueError):
        design_from_json(json.dumps(payload))
