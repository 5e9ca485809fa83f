"""The five per-country similarity indicators.

Four compare disciplinary profiles (domestic vs international, domestic vs
birc, domestic vs mirc, birc vs mirc); the fifth compares the birc and mirc
partner profiles. Cosine similarity reads 1 for proportional profiles, 0
for disjoint ones, and stays undefined (None) when a profile is empty.
"""

from collabsim import (
    PublicationRecord,
    RegionMap,
    build_profiles,
    cosine,
    deviation,
    five_indicators,
    world_baseline,
)


def rec(rid, year, subjects, countries):
    return PublicationRecord(rid, year, frozenset(subjects), frozenset(countries))


print("Cosine on raw count vectors:")
pairs = [
    ({"s1": 1, "s2": 1}, {"s2": 1, "s3": 1}),
    ({"s1": 3, "s2": 3}, {"s1": 1, "s2": 1}),
    ({"s1": 2}, {"s2": 5}),
]
for a, b in pairs:
    value = cosine(a, b)
    print(f"  cos({a}, {b}) = {value}")

RECORDS = [
    rec("d1", 2010, {"PHYS"}, {"NL"}),
    rec("d2", 2010, {"PHYS"}, {"NL"}),
    rec("b1", 2011, {"PHYS"}, {"NL", "XA"}),
    rec("m1", 2011, {"CHEM"}, {"NL", "XB", "XC"}),
    rec("d3", 2010, {"BIO"}, {"XA"}),
    rec("b2", 2012, {"BIO"}, {"XA", "XB"}),
]

regions = RegionMap({"NL": "Europe & Central Asia", "XA": "Sub-Saharan Africa",
                     "XB": "South Asia", "XC": "South Asia"})
table = build_profiles(RECORDS)
reports = [five_indicators(table[c], regions) for c in sorted(table)]

print("\nPer-country indicator reports (None = undefined, empty profile):")
for report in reports:
    print(f"  {report.country} ({report.region}): "
          f"dom_int={report.sim_dom_int} dom_birc={report.sim_dom_birc} "
          f"dom_mirc={report.sim_dom_mirc} birc_mirc_disc={report.sim_birc_mirc_disc} "
          f"birc_mirc_partner={report.sim_birc_mirc_partner}")

print("\nWorld baselines are unweighted means over defined values:")
baseline = world_baseline(reports, min_pubs=1)
for name, mean in baseline.means.items():
    print(f"  {name}: mean={mean} over {baseline.eligible[name]} countries")

print("\nDeviation labels drive the above/below world-average coloring:")
for report in reports:
    label = deviation(report, baseline)["sim_dom_int"]
    print(f"  {report.country}: sim_dom_int {report.sim_dom_int} -> "
          f"{label.label} (delta {label.delta})")
