"""Parsing and validating a publication corpus.

The input format is one JSON object per line: id, year, subjects,
countries. This walk-through feeds a deliberately dirty corpus through the
validator and shows what the counters report.
"""

from collabsim import ValidationPolicy, iter_accepted, parse_record, validate_corpus
from collabsim.corpus import CorpusStats

LINES = [
    '{"id":"p1","year":2010,"subjects":["PHYS"],"countries":["NL"]}',
    '{"id":"p2","year":2010,"subjects":["PHYS"],"countries":["nl","NL","ES"]}',
    '{"id":"p3","year":2011,"subjects":[],"countries":["NL"]}',
    '{"id":"p4","year":2011,"subjects":["CHEM"],"countries":[]}',
    "this line is not JSON",
    '{"id":"p6","year":1850,"subjects":["BIO"],"countries":["ZA"]}',
    '{"id":"p7","year":2012,"subjects":["BIO","CHEM"],"countries":["ZA","NL","ES"]}',
]

print("A single well-formed line becomes a normalized record:")
record = parse_record(LINES[1])
print(f"  id={record.id} year={record.year} subjects={sorted(record.subjects)} "
      f"countries={sorted(record.countries)}  (case-folded, deduplicated)")

print("\nValidating the whole corpus with the default skip-and-count policy:")
stats = validate_corpus(LINES)
for key, value in stats.as_dict().items():
    print(f"  {key}: {value}")
print(f"  accounting identity holds: {stats.balanced()}")

print("\nThe accepted sub-stream is available while counting:")
stats = CorpusStats()
accepted = [r.id for r in iter_accepted(LINES, stats=stats)]
print(f"  accepted ids: {accepted}")

print("\nA fail-fast policy raises on the first defect instead:")
try:
    validate_corpus(LINES, policy=ValidationPolicy(fail_fast=True,
                                                    unmapped_country="fail"))
except Exception as exc:
    print(f"  CorpusError: {exc}")
