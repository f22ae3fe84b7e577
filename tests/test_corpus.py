import pytest

from dualcheck import corpus
from dualcheck.errors import NotFoundError, ParseError
from dualcheck.probfile import parse_problem


def test_list_contains_the_named_entries():
    names = corpus.list_entries()
    assert "ex-5.1-gowda-teboulle" in names
    assert "ex-6.1-daniele-giuffre" in names
    assert len(names) >= 13
    assert list(names) == sorted(names)


def test_prefix_resolution():
    assert corpus.resolve_id("ex-5.2") == "ex-5.2-norm-over-shifted-cone"
    with pytest.raises(NotFoundError):
        corpus.resolve_id("ex-9.9")
    with pytest.raises(NotFoundError):
        corpus.resolve_id("ex-5")  # ambiguous


def test_every_entry_passes():
    for res in corpus.run_all():
        assert res.passed, (res.entry_id, res.diffs)
        assert res.checked > 0


def test_run_single_entries():
    assert corpus.run("ex-5.2").passed
    assert corpus.run("ex-5.4").passed
    assert corpus.run("ex-5.1").passed


def test_flipped_expectation_produces_named_diff():
    text = (corpus._data_dir() / "ex-5.6-two-dense-subspaces.prob").read_text()
    tampered = text.replace("expect condition RC6 holds", "expect condition RC6 fails")
    pf = parse_problem(tampered)
    res = corpus.run_problem("tampered", pf)
    assert not res.passed
    assert any("RC6" in d for d in res.diffs)


def test_every_symbolic_entry_carries_citations():
    for entry_id in corpus.list_entries():
        text = (corpus._data_dir() / f"{entry_id}.prob").read_text()
        assert "cite" in text, entry_id


def test_entries_parse_as_problem_files():
    # dog-fooding: every corpus entry is a valid CLI input
    for entry_id in corpus.list_entries():
        pf = corpus.load(entry_id)
        assert pf.kind in ("fenchel", "lagrange", "perturbation", "sets")


def test_symbolic_sum_problem_rejects_a_linear_map():
    text = (corpus._data_dir() / "ex-5.2-norm-over-shifted-cone.prob").read_text()
    with_map = text.replace("\nf sum(", "\nA [[0]]\nf sum(", 1)
    assert with_map != text
    with pytest.raises(ParseError, match="numeric-only"):
        parse_problem(with_map)


def test_each_diagnosis_derives_each_domain_once(monkeypatch):
    # the perturbation view holds dom f and dom g (g(dom f ∩ S) for the
    # cone-constrained problem); the conditions read it and derive nothing again
    from dualcheck import funcexpr
    from dualcheck.conditions import diagnose

    domain, depth, calls = funcexpr.domain, [0], [0]

    def counted(*args):
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return domain(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(funcexpr, "domain", counted)
    per_kind = {"fenchel": 2, "lagrange": 1}
    total = 0
    for entry_id in corpus.list_entries():
        pf = corpus.load(entry_id)
        if pf.kind == "sets":
            continue
        calls[0] = 0
        diagnose(pf.instance)
        assert calls[0] == per_kind[pf.kind], entry_id
        total += calls[0]
    assert total == 18
