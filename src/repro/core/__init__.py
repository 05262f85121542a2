"""The paper's primary contribution: ``iterSetCover`` (Figure 1.3)."""

from repro import _lazy_exports

__all__ = _lazy_exports(__name__, {
    ".config": ["IterSetCoverConfig"],
    ".iter_set_cover": ["IterSetCover", "iter_set_cover"],
    ".result": ["GuessStats", "StreamingCoverResult"],
})
