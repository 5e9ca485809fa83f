"""collabsim: collaboration-type publication profiles and similarity indicators.

The library classifies publications as domestic, bilateral (BIRC) or
multilateral (MIRC) by the number of distinct author countries, builds
per-country disciplinary and collaboration-partner count profiles, compares
them with cosine similarity, and aggregates the results into regional
summaries (boxplots, growth rates, scatter datasets). A seeded synthetic
corpus generator supports desk-scale experiments.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every public name, by the module that defines it.
_PUBLIC = {
    "classify": ("CollabKind", "CollaborationType", "TypeCounts", "birc_share",
                 "classify"),
    "corpus": ("CorpusError", "CorpusStats", "PublicationRecord", "RecordError",
               "RegionMap", "RegionMapError", "ValidationPolicy",
               "iter_accepted", "load_region_map", "open_corpus",
               "parse_record", "record_to_line", "validate_corpus"),
    "aggregates": ("BoxplotStats", "GrowthRateResult", "RegionYearCounts",
                   "ScatterPoint", "ThresholdFlags", "birc_share_points",
                   "boxplot_stats", "growth_rate", "growth_table",
                   "region_boxplot", "scatter_dataset", "threshold_flags"),
    "profiles": ("BuildConfig", "CountryProfileSet", "ProfileFold", "accumulate",
                 "build_profiles", "dump_rows", "merge_tables"),
    "similarity": ("INDICATORS", "CountrySimilarityReport", "Deviation",
                   "WorldBaseline", "cosine", "deviation", "five_indicators",
                   "world_baseline"),
    "synthgen": ("Scenario", "ScenarioError", "generate", "region_map_for"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


# The names of classify and corpus load with the package. Each is bound
# after its module loads, so ``classify`` is the function, not the
# submodule. The numpy-backed names load with their module on first access
# (PEP 562), so importing the package, or running ``collabsim validate``,
# needs no numpy.
for _name in _PUBLIC["classify"] + _PUBLIC["corpus"]:
    __getattr__(_name)
del _name
