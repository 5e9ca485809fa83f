import io
import itertools
import math
import statistics
import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collabsim.classify import CollabKind, classify
from collabsim.corpus import parse_record, record_to_line
from collabsim.profiles import build_profiles
from collabsim.similarity import five_indicators
from collabsim.synthgen import (
    Scenario,
    ScenarioError,
    WORLD_BANK_REGIONS,
    generate,
    region_map_for,
    write_jsonl,
)


def _scenario(**overrides):
    spec = {"seed": 3, "n_countries": 8, "n_subjects": 10,
            "pubs_per_country_year": 20, "years": [2010, 2012]}
    spec.update(overrides)
    return Scenario.from_dict(spec)


def _serialize(scenario):
    buf = io.StringIO()
    write_jsonl(generate(scenario), buf)
    return buf.getvalue()


def test_same_seed_byte_identical():
    assert _serialize(_scenario()) == _serialize(_scenario())


def test_different_seed_differs():
    assert _serialize(_scenario(seed=3)) != _serialize(_scenario(seed=4))


def test_pure_domestic_mix():
    scenario = _scenario(type_mix={"domestic": 1.0, "birc": 0.0, "mirc": 0.0})
    records = list(generate(scenario))
    assert records
    assert all(len(r.countries) == 1 for r in records)


def test_records_are_well_formed():
    records = list(generate(_scenario()))
    subjects = set(_scenario().subjects)
    countries = set(_scenario().countries)
    years = range(2010, 2013)
    assert all(r.subjects <= subjects for r in records)
    assert all(r.countries <= countries for r in records)
    assert all(r.year in years for r in records)
    assert len({r.id for r in records}) == len(records)


def test_mirc_sizes_respect_distribution_support():
    scenario = _scenario(mirc_size={"3": 0.5, "5": 0.5},
                         type_mix={"domestic": 0.0, "birc": 0.0, "mirc": 1.0})
    sizes = {len(r.countries) for r in generate(scenario)}
    assert sizes <= {3, 5}
    assert sizes == {3, 5}


def test_type_mix_converges_within_three_standard_errors():
    mix = (0.6, 0.25, 0.15)
    scenario = _scenario(n_countries=10,
                         pubs_per_country_year=200, years=[2008, 2012],
                         type_mix={"domestic": mix[0], "birc": mix[1], "mirc": mix[2]})
    records = list(generate(scenario))
    n = len(records)
    assert n > 9_000
    observed = {1: 0, 2: 0, 3: 0}
    for record in records:
        observed[min(len(record.countries), 3)] += 1
    for count, p in zip((observed[1], observed[2], observed[3]), mix):
        se = math.sqrt(p * (1 - p) / n)
        assert abs(count / n - p) <= 3 * se


def test_affinity_controls_partner_choice():
    # block affinity: AA-AB and AC-AD only
    affinity = np.zeros((4, 4))
    affinity[0, 1] = affinity[1, 0] = 1.0
    affinity[2, 3] = affinity[3, 2] = 1.0
    scenario = _scenario(countries=["AA", "AB", "AC", "AD"],
                         affinity=affinity.tolist(),
                         type_mix={"domestic": 0.2, "birc": 0.8, "mirc": 0.0})
    for record in generate(scenario):
        if len(record.countries) == 2:
            assert record.countries in (frozenset({"AA", "AB"}),
                                        frozenset({"AC", "AD"}))


def test_zero_drift_shared_base_keeps_profiles_aligned():
    # with one shared topic base and no drift, every collaboration type
    # samples the same distribution, so similarities approach 1
    scenario = Scenario.from_dict({
        "seed": 11, "n_countries": 20, "n_subjects": 40,
        "pubs_per_country_year": 500, "years": [2008, 2017],
        "drift_birc": 0.0, "drift_mirc": 0.0, "shared_base": True,
    })
    reports = [five_indicators(ps)
               for ps in build_profiles(generate(scenario)).values()]
    assert len(reports) == 20
    assert min(r.sim_dom_birc for r in reports) >= 0.99
    assert min(r.sim_dom_mirc for r in reports) >= 0.99


def _median_sims(seed, drift_mirc, drift_birc=0.2, pubs=150):
    scenario = Scenario.from_dict({
        "seed": seed, "n_countries": 20, "n_subjects": 40,
        "pubs_per_country_year": pubs, "years": [2008, 2017],
        "drift_birc": drift_birc, "drift_mirc": drift_mirc,
    })
    reports = [five_indicators(ps)
               for ps in build_profiles(generate(scenario)).values()]
    return (statistics.median(r.sim_dom_birc for r in reports),
            statistics.median(r.sim_dom_mirc for r in reports))


def test_higher_mirc_drift_separates_profiles():
    med_birc, med_mirc = _median_sims(42, drift_mirc=0.8)
    assert med_mirc < med_birc


def test_drift_monotonicity_with_tolerance():
    medians = [_median_sims(42, drift_mirc=d)[1] for d in (0.2, 0.5, 0.8)]
    assert medians[1] <= medians[0] + 0.02
    assert medians[2] <= medians[1] + 0.02


# --- scenario validation ------------------------------------------------

def test_scenario_rejects_bad_type_mix():
    with pytest.raises(ScenarioError, match="type_mix"):
        _scenario(type_mix={"domestic": 0.5, "birc": 0.2, "mirc": 0.2})


def test_scenario_rejects_bad_drift():
    with pytest.raises(ScenarioError, match="drift_mirc"):
        _scenario(drift_mirc=1.2)


def test_scenario_rejects_asymmetric_affinity():
    affinity = [[0, 1], [0.5, 0]]
    with pytest.raises(ScenarioError, match="symmetric"):
        _scenario(countries=["AA", "AB"], affinity=affinity,
                  type_mix={"domestic": 0.5, "birc": 0.5, "mirc": 0.0})


def test_scenario_rejects_oversized_mirc_sets():
    with pytest.raises(ScenarioError, match="exceeds"):
        _scenario(n_countries=4, mirc_size={"5": 1.0})


@pytest.mark.parametrize("overrides,named", [
    ({"n_countries": "abc"}, "n_countries"),
    ({"pubs_per_country_year": "x"}, "pubs_per_country_year"),
    ({"pubs_per_country_year": math.inf}, "pubs_per_country_year"),
    ({"type_mix": {"domestic": "x", "birc": 0.2, "mirc": 0.2}}, "type_mix"),
    ({"countries": [1, 2, 3]}, "countries"),
    ({"subjects": 5}, "subjects"),
    ({"base_topic": [["a"]]}, "base_topic"),
    ({"seed": -1}, "seed"),
    ({"years": {"first": 2010}}, "years"),
    ({"type_mix": {"domestic": math.nan, "birc": 0.2, "mirc": 0.2}}, "type_mix"),
    ({"mirc_size": {"3": math.nan}}, "mirc_size"),
    ({"n_subjects": 0}, "subjects"),
    ({"subjects": []}, "subjects"),
    ({"pubs_per_country_year": 1e300}, "pubs_per_country_year"),
    ({"countries": ["ABC", "DE"],
      "type_mix": {"domestic": 1.0, "birc": 0.0, "mirc": 0.0}}, "countries"),
    ({"subjects": ["S1", "S1 ", ""]}, "subjects"),
    ({"years": [1890, 1891]}, "years"),
    ({"years": [2090, 2101]}, "years"),
    ({"n_subjects": 10_001}, "subjects"),
    ({"subjects": [f"S{i}" for i in range(10_001)]}, "subjects"),
    ({"n_countries": 3, "mirc_size": {"3": 1},
      "affinity": [[0, math.inf, 1], [math.inf, 0, 1], [1, 1, 0]]}, "affinity"),
    ({"n_countries": 3, "mirc_size": {"3": 1},
      "affinity": [[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]]},
     "affinity"),
])
def test_scenario_rejects_wrong_types(overrides, named):
    with pytest.raises(ScenarioError, match=named):
        _scenario(**overrides)


def test_scenario_rejects_unknown_keys():
    with pytest.raises(ScenarioError, match="unknown scenario keys"):
        Scenario.from_dict({"seed": 1, "n_contries": 5})


def test_scenario_rejects_bad_base_topic():
    with pytest.raises(ScenarioError, match="base_topic"):
        _scenario(n_countries=2, n_subjects=2, base_topic=[[0.9, 0.2], [0.5, 0.5]])


def test_scenario_rejects_isolated_country():
    affinity = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]  # AC has no partners
    with pytest.raises(ScenarioError, match="partner"):
        _scenario(countries=["AA", "AB", "AC"], affinity=affinity,
                  type_mix={"domestic": 0.5, "birc": 0.5, "mirc": 0.0})


def test_scenario_explicit_lists():
    scenario = _scenario(countries=["nl", "ES", "ZA"], subjects=["PHYS", "CHEM"])
    assert scenario.countries == ("NL", "ES", "ZA")
    assert scenario.subjects == ("PHYS", "CHEM")
    records = list(generate(scenario))
    assert all(r.countries <= {"NL", "ES", "ZA"} for r in records)


def test_region_map_for_round_robin():
    rmap = region_map_for(["AC", "AA", "AB"])
    assert rmap.entries["AA"] == WORLD_BANK_REGIONS[0]
    assert rmap.entries["AB"] == WORLD_BANK_REGIONS[1]
    assert rmap.entries["AC"] == WORLD_BANK_REGIONS[2]
    big = region_map_for([f"A{c}" for c in "ABCDEFGHIJ"])
    assert set(big.regions) <= set(WORLD_BANK_REGIONS)


_WEIGHT = st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 1.0, math.nan]))
_CODE = st.one_of(st.text(string.ascii_uppercase, min_size=2, max_size=2),
                  st.text(max_size=3),
                  st.sampled_from(["es", " DE ", "ABC", "", "\ud800"]))


def _years_pair(first):
    return st.tuples(st.just(first), st.integers(first - 1, first + 2))


_SCENARIO_DICTS = st.fixed_dictionaries(
    {"seed": st.integers(0, 2**40)},
    optional={
        "countries": st.lists(_CODE, max_size=30, unique=True),
        "n_countries": st.integers(-2, 30),
        "subjects": st.lists(_CODE, max_size=30, unique=True),
        "n_subjects": st.integers(-2, 30),
        "type_mix": st.fixed_dictionaries(
            {"domestic": _WEIGHT, "birc": _WEIGHT, "mirc": _WEIGHT}),
        "mirc_size": st.dictionaries(st.sampled_from(["2", "3", "4", "x"]),
                                     _WEIGHT, max_size=3),
        "years": st.integers(1890, 2110).flatmap(_years_pair),
        "pubs_per_country_year": st.one_of(
            st.floats(0, 5), st.sampled_from([1e300, math.inf, math.nan, -1.0])),
        "drift_birc": _WEIGHT,
        "drift_mirc": _WEIGHT,
        "base_concentration": st.one_of(st.floats(-1, 2),
                                        st.sampled_from([math.inf, math.nan])),
        "shared_base": st.booleans(),
        "global_agenda": st.lists(_WEIGHT, max_size=4),
        "affinity": st.lists(st.lists(_WEIGHT, max_size=3), max_size=3),
    })


@settings(max_examples=300, deadline=None)
@given(_SCENARIO_DICTS)
def test_any_scenario_loads_or_is_rejected(spec):
    """A scenario either raises ScenarioError or yields records that ingest
    reads back unchanged."""
    try:
        scenario = Scenario.from_dict(spec)
    except ScenarioError:
        return
    for record in itertools.islice(generate(scenario), 50):
        assert parse_record(record_to_line(record)) == record
