"""The synthetic generator's byte contract: ``write_jsonl(generate(s))``,
``write_corpus(s)`` and the ``synth`` command write exactly the lines of the
scalar reference generator in ``oracle.py``, for every valid (finite)
scenario."""

import io
import json
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collabsim import synthgen
from collabsim.corpus import record_to_line
from collabsim.synthgen import (
    Scenario,
    generate,
    run_synth,
    write_corpus,
    write_jsonl,
)

from oracle import _draw, generate_reference, line_reference

_CODES = [a + b for a in string.ascii_uppercase for b in string.ascii_uppercase]

# non-ASCII, a quote and a backslash, none of them whitespace
_SUBJECTS = st.lists(st.text(alphabet='Sxé中😀"\\', min_size=1, max_size=4),
                     min_size=1, max_size=8, unique=True)


@st.composite
def _specs(draw):
    """Valid scenario descriptions: explicit unsorted countries, random
    symmetric affinity with zeros, MIRC sizes up to min(n_c, 40)."""
    n_c = draw(st.integers(1, 45))
    spec = {
        "seed": draw(st.integers(0, 2**32)),
        "countries": draw(st.lists(st.sampled_from(_CODES), min_size=n_c,
                                   max_size=n_c, unique=True)),
        "pubs_per_country_year": draw(st.sampled_from([0, 0.4, 3, 20, 20])),
        "drift_birc": draw(st.sampled_from([0.0, 0.35, 1.0])),
        "drift_mirc": draw(st.sampled_from([0.0, 0.8, 1.0])),
        "shared_base": draw(st.booleans()),
    }
    first = draw(st.integers(2008, 2014))
    spec["years"] = [first, first + draw(st.integers(0, 4))]
    if draw(st.booleans()):
        spec["subjects"] = draw(_SUBJECTS)
    else:
        spec["n_subjects"] = draw(st.integers(1, 30))

    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    upper = np.triu(rng.random((n_c, n_c)) * 10.0 ** rng.integers(-3, 4, (n_c, n_c)), 1)
    upper[rng.random((n_c, n_c)) < draw(st.sampled_from([0.0, 0.0, 0.3, 0.6]))] = 0.0
    affinity = upper + upper.T
    spec["affinity"] = affinity.tolist()
    partners = int((affinity > 0).sum(axis=1).min())

    biggest = min(n_c, 40, partners + 1)
    mix = [draw(st.sampled_from([0.0, 0.2, 0.5, 1.0])) for _ in range(3)]
    if partners < 1:
        mix[1] = 0.0
    if biggest < 3:
        mix[2] = 0.0
    else:
        sizes = draw(st.lists(st.integers(3, biggest), min_size=1, max_size=4,
                              unique=True))
        weights = rng.random(len(sizes)) + 0.01
        spec["mirc_size"] = {str(k): w for k, w in zip(sizes, weights / weights.sum())}
    if not any(mix):
        mix[0] = 1.0
    total = sum(mix)
    spec["type_mix"] = dict(zip(("domestic", "birc", "mirc"),
                                (mix[0] / total, mix[1] / total, mix[2] / total)))
    return spec


def _reference_text(scenario):
    return "".join(line_reference(r) + "\n" for r in generate_reference(scenario))


@settings(max_examples=60, deadline=None)
@given(_specs())
def test_generate_and_synth_write_the_reference_bytes(spec):
    scenario = Scenario.from_dict(spec)
    expected = _reference_text(scenario)

    buf = io.StringIO()
    assert write_jsonl(generate(scenario), buf) == expected.count("\n")
    assert buf.getvalue() == expected

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = Path(tmp) / "corpus.jsonl"
        assert run_synth(path, out) == 0
        assert out.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("batch", [1, 7])
def test_small_batches_write_the_reference_bytes(monkeypatch, batch):
    """Chunks and batches of one record, or of seven that end mid-way
    through a country-year, draw the same sets."""
    scenario = Scenario.from_dict({
        "seed": 9, "n_countries": 12, "pubs_per_country_year": 30,
        "years": [2010, 2011], "mirc_size": {"3": 0.5, "7": 0.3, "12": 0.2},
        "type_mix": {"domestic": 0.2, "birc": 0.3, "mirc": 0.5},
    })
    monkeypatch.setattr(synthgen, "SYNTH_BATCH", batch)
    buf = io.StringIO()
    write_jsonl(generate(scenario), buf)
    assert buf.getvalue() == _reference_text(scenario)


@pytest.mark.parametrize("block", [1, 7])
def test_write_corpus_blocks_write_the_reference_bytes(monkeypatch, block):
    """Blocks of one line, or of seven that leave a short last block, write
    the reference bytes, and the count returned is the lines written."""
    scenario = Scenario.from_dict({
        "seed": 9, "n_countries": 12, "pubs_per_country_year": 30,
        "years": [2010, 2011], "mirc_size": {"3": 0.5, "7": 0.3, "12": 0.2},
        "type_mix": {"domestic": 0.2, "birc": 0.3, "mirc": 0.5},
    })
    monkeypatch.setattr(synthgen, "WRITE_BLOCK", block)
    expected = _reference_text(scenario)
    assert expected.count("\n") % 7
    buf = io.StringIO()
    assert write_corpus(scenario, buf) == expected.count("\n")
    assert buf.getvalue() == expected


def test_write_corpus_of_no_records(tmp_path):
    spec = {"seed": 4, "n_countries": 5, "pubs_per_country_year": 0}
    buf = io.StringIO()
    assert write_corpus(Scenario.from_dict(spec), buf) == 0
    assert buf.getvalue() == ""

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "corpus.jsonl"
    assert run_synth(path, out) == 0
    assert out.read_bytes() == b""


# smoke-size copies of the three benchmark scenarios (bench/workloads.py)
_BENCH_SMOKE = {
    "bulk_report": {"n_countries": 25, "n_subjects": 50,
                    "pubs_per_country_year": 8},
    "consortia_report": {
        "n_countries": 50, "n_subjects": 60, "pubs_per_country_year": 2,
        "type_mix": {"domestic": 0.2, "birc": 0.3, "mirc": 0.5},
        "mirc_size": {"3": 0.25, "4": 0.15, "5": 0.10, "6": 0.08, "8": 0.07,
                      "10": 0.06, "12": 0.05, "15": 0.04, "20": 0.05,
                      "25": 0.05, "30": 0.05, "40": 0.05}},
    "dirty_validate": {"n_countries": 25, "n_subjects": 50,
                       "pubs_per_country_year": 8},
}


@pytest.mark.parametrize("name", sorted(_BENCH_SMOKE))
def test_write_corpus_matches_the_record_view(name):
    """On the benchmark shapes, with explicit countries in no sorted order
    and subjects that need escaping, the writer gives the bytes of the
    records ``generate`` yields."""
    spec = dict(_BENCH_SMOKE[name], seed=404, years=[2008, 2017])
    n_c, n_s = spec.pop("n_countries"), spec.pop("n_subjects")
    rng = np.random.default_rng(len(name))
    spec["countries"] = [_CODES[i] for i in rng.permutation(len(_CODES))[:n_c]]
    spec["subjects"] = [f"S{i}" + 'é"\\'[:i % 4] for i in range(n_s)]
    scenario = Scenario.from_dict(spec)
    assert list(scenario.countries) != sorted(scenario.countries)

    expected = "".join(record_to_line(r) + "\n" for r in generate(scenario))
    buf = io.StringIO()
    assert write_corpus(scenario, buf) == expected.count("\n")
    assert buf.getvalue() == expected
    assert all(c in expected for c in ('\\u00e9', '\\"', "\\\\"))


@pytest.mark.parametrize("mirc_size", [{"3": 1e308},
                                       {"-1" + "0" * 400: 1.0, "3": 2.0}])
def test_unused_mirc_sizes_are_not_read(tmp_path, mirc_size):
    """Without multilateral output, mirc_size weights that validate does
    not check (beyond being finite) size no draws."""
    spec = {"seed": 3, "n_countries": 4, "pubs_per_country_year": 20,
            "years": [2010, 2011], "mirc_size": mirc_size,
            "type_mix": {"domestic": 0.5, "birc": 0.5, "mirc": 0.0}}
    scenario = Scenario.from_dict(spec)
    expected = _reference_text(scenario)
    assert expected.count("\n") > 100

    buf = io.StringIO()
    write_jsonl(generate(scenario), buf)
    assert buf.getvalue() == expected
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert run_synth(path, tmp_path / "corpus.jsonl") == 0
    assert (tmp_path / "corpus.jsonl").read_bytes() == expected.encode("utf-8")


def test_partner_sets_follow_the_scalar_rule():
    """Row-wise sets match the one-member-at-a-time rule, also where the
    CDF ends below 1 (the pairwise row total exceeds the running sum, so a
    uniform just below 1 lies past it) and where a uniform of exactly 0
    meets leading zero weights."""
    rng = np.random.default_rng(5)
    weights = rng.random((40, 30)) * 10.0 ** rng.integers(-3, 4, (40, 1))
    weights[rng.random((40, 30)) < 0.3] = 0.0
    weights[:, 0] += 1.0
    weights[:2] = [1.0] + [1e-16] * 29
    weights[2] = [0.0, 0.0] + [1.0] * 28
    draws = rng.random((40, 8))
    draws[:2, 0] = np.nextafter(1.0, 0.0)
    draws[2, 0] = 0.0
    steps = np.sort(rng.integers(1, 9, 40))[::-1]
    for i in range(3):
        steps[i] = 8

    expected = []
    for row, u, n in zip(weights, draws, steps):
        row = row.copy()
        picks = []
        for step in range(n):
            pj = _draw(np.cumsum(row) / row.sum(), u[step])
            picks.append(pj)
            row[pj] = 0.0
        expected.append(picks)
    assert expected[0][0] == 29 and expected[2][0] == 0

    chosen = synthgen._partner_sets(weights.copy(), draws, steps)
    assert [row[:n] for row, n in zip(chosen.tolist(), steps)] == expected
