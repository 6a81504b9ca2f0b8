"""Domain exceptions. All inherit from AgbmapError so the CLI can map
any domain failure to exit code 1."""


class AgbmapError(Exception):
    pass


# waveform processing
class NoSignal(AgbmapError):
    pass


class DegenerateNoise(AgbmapError):
    pass


class FitFailure(AgbmapError):
    pass


class BadRecord(AgbmapError):
    """An input line that cannot be read: a byte that is not UTF-8, a
    waveform record that is not JSON, lacks a key or is invalid, a
    malformed ASCII grid header or body, or a CSV row that lacks a column,
    holds a value that is not a number or out of range, or repeats or
    misses a plot id. The message starts with path:line."""


# allometry
class UnitError(AgbmapError):
    pass


# regression
class RankDeficient(AgbmapError):
    pass


class BadK(AgbmapError):
    pass


class EmptyDesign(AgbmapError):
    pass


# geostatistics
class TooFewSamples(AgbmapError):
    pass


class SingularSystem(AgbmapError):
    pass


class EmptyNeighborhood(AgbmapError):
    pass


# raster kernels
class BadFactor(AgbmapError):
    pass


class DegenerateRange(AgbmapError):
    pass


class TooFewBands(AgbmapError):
    pass


# pipeline
class NoPairs(AgbmapError):
    pass


class NoQualifyingCells(AgbmapError):
    pass


class ConfigError(AgbmapError):
    pass
