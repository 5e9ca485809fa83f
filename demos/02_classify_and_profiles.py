"""Collaboration types and per-country count profiles.

Publications split into domestic (one country), bilateral (two) and
multilateral (three or more). Every country on a publication receives one
count per subject into the matching disciplinary profile, and one count per
co-country into its partner profile.
"""

from collabsim import PublicationRecord, build_profiles, classify, merge_tables
from collabsim.profiles import BuildConfig


def rec(rid, year, subjects, countries):
    return PublicationRecord(rid, year, frozenset(subjects), frozenset(countries))


RECORDS = [
    rec("p1", 2010, {"PHYS"}, {"NL"}),
    rec("p2", 2010, {"PHYS"}, {"NL"}),
    rec("p3", 2011, {"PHYS", "CHEM"}, {"NL", "ES"}),
    rec("p4", 2011, {"CHEM"}, {"NL", "ES", "ZA"}),
    rec("p5", 2012, {"BIO"}, {"ES", "ZA"}),
]

print("Classification is a function of the country count alone:")
for record in RECORDS:
    ctype = classify(record)
    print(f"  {record.id}: {len(record.countries)} countries -> {ctype.kind.value}")

print("\nBuilding the per-country profile table:")
table = build_profiles(RECORDS)
for country in sorted(table):
    ps = table[country]
    disc = {fam: p for fam, p in ps.disciplinary.items() if p}
    part = {fam: p for fam, p in ps.partner.items() if p}
    print(f"  {country}: disciplinary {disc}")
    print(f"      partner {part}")
    print(f"      counts dom={ps.pub_counts.n_domestic} birc={ps.pub_counts.n_bilateral} "
          f"mirc={ps.pub_counts.n_multilateral}")

print("\nThe build is an exact parallel fold: shard, build, merge.")
merged = merge_tables(build_profiles(RECORDS[:2]), build_profiles(RECORDS[2:]))
same = all(
    merged[c].disciplinary == table[c].disciplinary
    and merged[c].partner == table[c].partner
    for c in table
)
print(f"  sharded build equals the single pass: {same}")

print("\nAn optional mega class separates very large collaborations:")
big = rec("mega", 2012, {"PHYS"}, {f"A{c}" for c in "ABCDEFGHIJKLMNOPQRSTU"})
print(f"  21 countries, threshold off: {classify(big).kind.value}")
print(f"  21 countries, threshold 20:  {classify(big, mega_threshold=20).kind.value}")
mega_table = build_profiles(RECORDS + [big], BuildConfig(mega_threshold=20))
nl = mega_table["AA"]
print(f"  AA mega profile: {nl.disciplinary['mega']}, "
      f"mirc untouched: {nl.disciplinary['mirc']}")
