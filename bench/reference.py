"""Fixed reference workload that measures how fast the host runs right now.

    python3 -S bench/reference.py

Pure CPython work of the same kinds as a collabsim run, on inputs drawn from
a fixed seed: JSON encode and decode with small dict folds over tuple keys,
as in ``bulk_report`` and ``dirty_validate``, then a partner fold over
consortia of up to 40 countries through a method call per increment, as in
``consortia_report``. It uses none of collabsim, so a change to the library
does not change its time; only the host's speed does. ``run.py`` runs it
around every measured command and scales that command's wall time by it.
It prints one checksum line, which must be the same on every run.
"""

import json
import random

LINES = 16_000
CONSORTIA = 1_500

rng = random.Random(12345)
codes = [chr(65 + i // 26) + chr(65 + i % 26) for i in range(200)]
lines = [json.dumps({"id": f"r{i}", "year": 2000 + rng.randrange(20),
                     "countries": rng.sample(codes[:80], 1 + rng.randrange(4)),
                     "subjects": rng.sample(range(120), 1 + rng.randrange(2))})
         for i in range(LINES)]
counts = {}
for line in lines:
    obj = json.loads(line)
    countries = obj["countries"]
    for country in countries:
        for subject in obj["subjects"]:
            key = (country, subject, obj["year"])
            counts[key] = counts.get(key, 0) + 1
        for partner in countries:
            if partner != country:
                key = (country, partner)
                counts[key] = counts.get(key, 0) + 1


class Tally:
    __slots__ = ("counts",)

    def __init__(self):
        self.counts = {}

    def add(self, key):
        self.counts[key] = self.counts.get(key, 0) + 1


partners = {}
for _ in range(CONSORTIA):
    team = rng.sample(codes, rng.choice((3, 5, 8, 12, 20, 30, 40)))
    for country in team:
        tally = partners.get(country)
        if tally is None:
            tally = partners[country] = Tally()
        for partner in team:
            if partner != country:
                tally.add(partner)
top = sorted(counts.items(), key=lambda item: (-item[1], str(item[0])))[:5]
pairs = sum(sum(t.counts.values()) for t in partners.values())
print(len(counts), sum(counts.values()), pairs, top)
