"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's own code paths: plain
dicts, plain math, single pass. Keep it dumb.
"""

import json
import math
import random
import string
from collections import Counter, defaultdict

import numpy as np

from collabsim.corpus import (
    MISSING_COUNTRY,
    MISSING_SUBJECT,
    PublicationRecord,
    RecordError,
    normalize_country,
)

DISC_FAMILIES = ("domestic", "international", "birc", "mirc", "mega")
PART_FAMILIES = ("international", "birc", "mirc", "mega")


def kind_of(n_countries, mega_threshold=None):
    if n_countries == 1:
        return "domestic"
    if n_countries == 2:
        return "birc"
    if mega_threshold is not None and n_countries >= mega_threshold:
        return "mega"
    return "mirc"


def recount(records, mega_threshold=None, year_min=None, year_max=None):
    """Brute-force per-country recount of subject and partner counts."""
    out = {}
    for rec in records:
        if year_min is not None and rec.year < year_min:
            continue
        if year_max is not None and rec.year > year_max:
            continue
        fam = kind_of(len(rec.countries), mega_threshold)
        international = fam != "domestic"
        for c in rec.countries:
            entry = out.get(c)
            if entry is None:
                entry = out[c] = {
                    "disc": {f: defaultdict(int) for f in DISC_FAMILIES},
                    "part": {f: defaultdict(int) for f in PART_FAMILIES},
                    "n": defaultdict(int),
                }
            for s in rec.subjects:
                entry["disc"][fam][s] += 1
                if international:
                    entry["disc"]["international"][s] += 1
            if international:
                for p in rec.countries:
                    if p != c:
                        entry["part"][fam][p] += 1
                        entry["part"]["international"][p] += 1
            entry["n"][fam] += 1
    return out


# CollabKind values, which key RegionYearCounts
KIND_VALUES = {"domestic": "domestic", "birc": "bilateral",
               "mirc": "multilateral", "mega": "mega_multilateral"}


def recount_regions(records, region_of, per_country=False, mega_threshold=None):
    """Brute-force per-region annual counts by kind: a record counts once per
    region it touches, or once per country with ``per_country``."""
    out = {}
    for rec in records:
        kind = KIND_VALUES[kind_of(len(rec.countries), mega_threshold)]
        regions = [region_of(c) for c in rec.countries]
        for region in regions if per_country else set(regions):
            by_year = out.setdefault(region, {}).setdefault(kind, {})
            by_year[rec.year] = by_year.get(rec.year, 0) + 1
    return out


def cosine_ref(a, b):
    """Plain-float cosine over dicts; None when either vector is empty."""
    if not a or not b:
        return None
    dot = sum(v * b.get(k, 0) for k, v in a.items())
    norm_a = math.sqrt(sum(v * v for v in a.values()))
    norm_b = math.sqrt(sum(v * v for v in b.values()))
    return dot / (norm_a * norm_b)


def five_sims_ref(entry):
    """The five indicator values from a recount entry."""
    disc, part = entry["disc"], entry["part"]
    return {
        "sim_dom_int": cosine_ref(disc["domestic"], disc["international"]),
        "sim_dom_birc": cosine_ref(disc["domestic"], disc["birc"]),
        "sim_dom_mirc": cosine_ref(disc["domestic"], disc["mirc"]),
        "sim_birc_mirc_disc": cosine_ref(disc["birc"], disc["mirc"]),
        "sim_birc_mirc_partner": cosine_ref(part["birc"], part["mirc"]),
    }


def quantile_type7(values, p):
    """Linear interpolation between closest ranks on the sorted data."""
    data = sorted(values)
    n = len(data)
    if n == 1:
        return data[0]
    h = (n - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, n - 1)
    return data[lo] + (h - lo) * (data[hi] - data[lo])


_CODES = [a + b for a in string.ascii_uppercase[:6] for b in string.ascii_uppercase[:6]]


def random_records(rng: random.Random, n, n_countries=10, n_subjects=8,
                   max_countries=4, max_subjects=3, years=(2008, 2017)):
    """Small random corpora for equivalence tests (plain stdlib RNG)."""
    countries = _CODES[:n_countries]
    subjects = [f"S{i}" for i in range(n_subjects)]
    records = []
    for i in range(n):
        k = rng.randint(1, max_countries)
        cs = rng.sample(countries, k)
        m = rng.randint(1, max_subjects)
        ss = rng.sample(subjects, m)
        records.append(PublicationRecord(
            f"r{i}", rng.randint(years[0], years[1]),
            frozenset(ss), frozenset(cs)))
    return records


def expanded(rows):
    """The (year, subjects, countries) multiset of fold rows, each an
    ``(n, year, subjects, countries)`` tuple that stands for n records."""
    multiset = Counter()
    for n, year, subjects, countries in rows:
        multiset[year, subjects, countries] += n
    return multiset


def line_reference(record):
    """The canonical corpus line of a record, as json.dumps writes it."""
    return json.dumps({"id": record.id, "year": record.year,
                       "subjects": sorted(record.subjects),
                       "countries": sorted(record.countries)},
                      separators=(",", ":"))


_CANONICAL_CODES = frozenset(a + b for a in string.ascii_uppercase
                             for b in string.ascii_uppercase)


def _utf8_ok(text):
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def parse_reference(line, line_no=None):
    """parse_record's contract checked field by field over one json.loads
    of the line: the same record, or the same RecordError category and
    message."""
    if not line.strip():
        raise RecordError("blank line", line_no)
    if not _utf8_ok(line):
        raise RecordError("invalid UTF-8", line_no)
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RecordError(f"invalid JSON: {exc.msg}", line_no) from exc
    except RecursionError as exc:
        raise RecordError("invalid JSON: nested too deeply", line_no) from exc
    except ValueError as exc:  # an integer past the int-string digit limit
        raise RecordError("invalid JSON: integer too long", line_no) from exc
    if not isinstance(obj, dict):
        raise RecordError("record is not a JSON object", line_no)

    rec_id = obj.get("id")
    if not isinstance(rec_id, str) or not rec_id:
        raise RecordError("missing or invalid field 'id'", line_no)

    year = obj.get("year")
    if isinstance(year, bool) or not isinstance(year, int):
        raise RecordError("missing or invalid field 'year'", line_no)

    raw_subjects = obj.get("subjects")
    if raw_subjects is None:
        raise RecordError("missing field 'subjects'", line_no, MISSING_SUBJECT)
    if not isinstance(raw_subjects, list):
        raise RecordError("field 'subjects' is not an array", line_no)
    subjects = set()
    for item in raw_subjects:
        if not isinstance(item, str):
            raise RecordError("subject codes must be strings", line_no)
        code = item.strip()
        if not code:
            raise RecordError("empty subject code", line_no)
        if not _utf8_ok(code):
            raise RecordError("invalid UTF-8 in subject code", line_no)
        subjects.add(code)
    if not subjects:
        raise RecordError("empty subjects", line_no, MISSING_SUBJECT)

    raw_countries = obj.get("countries")
    if raw_countries is None:
        raise RecordError("missing field 'countries'", line_no, MISSING_COUNTRY)
    if not isinstance(raw_countries, list):
        raise RecordError("field 'countries' is not an array", line_no)
    countries = set()
    for item in raw_countries:
        if not isinstance(item, str):
            raise RecordError("country codes must be strings", line_no)
        code = normalize_country(item)
        if code not in _CANONICAL_CODES:
            raise RecordError(f"invalid country code {item!r}", line_no)
        countries.add(code)
    if not countries:
        raise RecordError("empty countries", line_no, MISSING_COUNTRY)

    return PublicationRecord(rec_id, year, frozenset(subjects),
                             frozenset(countries))


def _draw(cdf, u):
    idx = int(np.searchsorted(cdf, u, side="left"))
    return min(idx, len(cdf) - 1)


def generate_reference(scenario):
    """The scalar synthetic generator, one record and one member at a time:
    the reference whose corpus bytes ``synthgen.generate`` must reproduce."""
    rng = np.random.default_rng([scenario.seed, 1])

    countries = scenario.countries
    subjects = scenario.subjects
    n_s = len(subjects)
    base = np.asarray(scenario.base_topic, dtype=float)
    agenda = np.asarray(scenario.global_agenda, dtype=float)

    p_dom, p_birc, _ = scenario.type_mix
    type_cdf = np.array([p_dom, p_dom + p_birc])

    # per-type subject mixtures, one CDF row per country
    mixtures = (base,
                (1.0 - scenario.drift_birc) * base + scenario.drift_birc * agenda,
                (1.0 - scenario.drift_mirc) * base + scenario.drift_mirc * agenda)
    subject_cdfs = [np.cumsum(m, axis=1) for m in mixtures]

    affinity = np.asarray(scenario.affinity, dtype=float).copy()
    np.fill_diagonal(affinity, 0.0)
    row_sums = affinity.sum(axis=1)
    partner_cdfs = [np.cumsum(affinity[i]) / row_sums[i] if row_sums[i] > 0
                    else None for i in range(len(countries))]

    mirc_sizes = sorted(scenario.mirc_size)
    mirc_cdf = np.cumsum([scenario.mirc_size[k] for k in mirc_sizes])

    first_year, last_year = scenario.years
    lam = scenario.pubs_per_country_year
    counter = 0

    for ci, country in enumerate(countries):
        for year in range(first_year, last_year + 1):
            n = int(rng.poisson(lam))
            if n == 0:
                continue
            u_type = rng.random(n)
            u_subj = rng.random(n)
            types = np.searchsorted(type_cdf, u_type, side="right")
            subject_idx = np.empty(n, dtype=np.intp)
            for t in (0, 1, 2):
                mask = types == t
                if mask.any():
                    subject_idx[mask] = np.searchsorted(
                        subject_cdfs[t][ci], u_subj[mask], side="left")
            np.clip(subject_idx, 0, n_s - 1, out=subject_idx)

            for i in range(n):
                counter += 1
                subject = subjects[subject_idx[i]]
                t = types[i]
                if t == 0:
                    members = frozenset((country,))
                elif t == 1:
                    pj = _draw(partner_cdfs[ci], rng.random())
                    members = frozenset((country, countries[pj]))
                else:
                    k = mirc_sizes[_draw(mirc_cdf, rng.random())]
                    weights = affinity[ci].copy()
                    chosen = [country]
                    for _ in range(k - 1):
                        total = weights.sum()
                        cdf = np.cumsum(weights) / total
                        pj = _draw(cdf, rng.random())
                        chosen.append(countries[pj])
                        weights[pj] = 0.0
                    members = frozenset(chosen)
                yield PublicationRecord(f"pub{counter:08d}", year,
                                        frozenset((subject,)), members)
