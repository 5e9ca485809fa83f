"""collabsim: collaboration-type publication profiles and similarity indicators.

The library classifies publications as domestic, bilateral (BIRC) or
multilateral (MIRC) by the number of distinct author countries, builds
per-country disciplinary and collaboration-partner count profiles, compares
them with cosine similarity, and aggregates the results into regional
summaries (boxplots, growth rates, scatter datasets). A seeded synthetic
corpus generator supports desk-scale experiments.
"""

from importlib import import_module

from .classify import (
    CollabKind,
    CollaborationType,
    TypeCounts,
    birc_share,
    classify,
)
from .corpus import (
    CorpusError,
    CorpusStats,
    PublicationRecord,
    RecordError,
    RegionMap,
    RegionMapError,
    ValidationPolicy,
    iter_accepted,
    load_region_map,
    open_corpus,
    parse_record,
    record_to_line,
    validate_corpus,
)

# The numpy-backed names load with their module on first access (PEP 562),
# so importing the package, or running ``collabsim validate``, needs no numpy.
_LAZY = {
    "aggregates": ("BoxplotStats", "GrowthRateResult", "RegionYearCounts",
                   "ScatterPoint", "ThresholdFlags", "birc_share_points",
                   "boxplot_stats", "growth_rate", "growth_table",
                   "region_boxplot", "scatter_dataset", "threshold_flags"),
    "profiles": ("BuildConfig", "CountryProfileSet", "Profile", "ProfileFold",
                 "accumulate", "build_profiles", "dump_rows", "merge_tables"),
    "similarity": ("INDICATORS", "CountrySimilarityReport", "Deviation",
                   "WorldBaseline", "cosine", "deviation", "five_indicators",
                   "world_baseline"),
    "synthgen": ("Scenario", "ScenarioError", "generate", "region_map_for"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


__version__ = "0.1.0"

__all__ = [
    "BoxplotStats",
    "BuildConfig",
    "CollabKind",
    "CollaborationType",
    "CorpusError",
    "CorpusStats",
    "CountryProfileSet",
    "CountrySimilarityReport",
    "Deviation",
    "GrowthRateResult",
    "INDICATORS",
    "Profile",
    "ProfileFold",
    "PublicationRecord",
    "RecordError",
    "RegionMap",
    "RegionMapError",
    "RegionYearCounts",
    "Scenario",
    "ScenarioError",
    "ScatterPoint",
    "ThresholdFlags",
    "TypeCounts",
    "ValidationPolicy",
    "WorldBaseline",
    "accumulate",
    "birc_share",
    "birc_share_points",
    "boxplot_stats",
    "build_profiles",
    "classify",
    "cosine",
    "deviation",
    "dump_rows",
    "five_indicators",
    "generate",
    "growth_rate",
    "growth_table",
    "iter_accepted",
    "load_region_map",
    "merge_tables",
    "open_corpus",
    "parse_record",
    "record_to_line",
    "region_boxplot",
    "region_map_for",
    "scatter_dataset",
    "threshold_flags",
    "validate_corpus",
    "world_baseline",
]
