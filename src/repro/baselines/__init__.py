"""Baseline streaming algorithms — the prior-work rows of Figure 1.1."""

from repro import _lazy_exports

__all__ = _lazy_exports(__name__, {
    ".chakrabarti_wirth": ["ChakrabartiWirth"],
    ".demaine_et_al": ["DemaineEtAl"],
    ".emek_rosen": ["EmekRosen"],
    ".greedy_stream": ["MultiPassGreedy", "StoreAllGreedy", "ThresholdGreedy"],
    ".saha_getoor": ["SahaGetoor"],
})
