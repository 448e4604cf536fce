"""Projected-runtime cost model: decomposition efficiency, per-calculation
rates, and the estimator formulas used for plan selection and benchmark
sweeps.

Default rates ship from measurements on commodity hardware (error bars in
the comments below); ``zxcut calibrate`` re-measures them locally from the
reports of ``direct`` and ``smart`` runs.  Its rates are leaves per second of
a run's time outside planning, so planning time is counted only in
tOverhead.  All estimates are labeled with the alpha used, since the
implemented decomposition set may be weaker than the one the default alpha
describes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

# reference rates, calcs/second: decomp 1730 +/- 650, precomp 21400 +/- 13300,
# crossref 412000 +/- 145000; alpha 0.32 +/- 0.02
DEFAULTS = {
    "alpha": 0.32,
    "rDecomp": 1730.0,
    "rPrecomp": 21400.0,
    "rCrossref": 412000.0,
    "tOverhead": 0.0,
    "realRunThresholdSecs": 100.0,
}

_KEY_TO_ATTR = {
    "alpha": "alpha",
    "rDecomp": "r_decomp",
    "rPrecomp": "r_precomp",
    "rCrossref": "r_crossref",
    "tOverhead": "t_overhead",
    "realRunThresholdSecs": "real_run_threshold_secs",
}


@dataclass
class CostModel:
    alpha: float = DEFAULTS["alpha"]
    r_decomp: float = DEFAULTS["rDecomp"]
    r_precomp: float = DEFAULTS["rPrecomp"]
    r_crossref: float = DEFAULTS["rCrossref"]
    t_overhead: float = DEFAULTS["tOverhead"]
    real_run_threshold_secs: float = DEFAULTS["realRunThresholdSecs"]

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must lie in (0, 1]")
        for rate in (self.r_decomp, self.r_precomp, self.r_crossref):
            if rate <= 0:
                raise ValueError("calculation rates must be positive")

    # -- estimators --------------------------------------------------------

    def estimate_direct(self, t: int) -> float:
        """Seconds for plain decomposition of a T-count-t diagram:
        2^(alpha*t) / rDecomp."""
        return 2.0 ** (self.alpha * t) / self.r_decomp

    def estimate_smart(self, s_precomp: float, s_crossref: float,
                       overhead: float | None = None) -> float:
        ov = self.t_overhead if overhead is None else overhead
        return ov + s_precomp / self.r_precomp + s_crossref / self.r_crossref

    @staticmethod
    def log2_seconds(seconds: float) -> float:
        return math.log2(seconds) if seconds > 0 else float("-inf")

    # -- config round-trips --------------------------------------------------

    def to_config(self) -> dict:
        return {key: getattr(self, attr) for key, attr in _KEY_TO_ATTR.items()}

    @classmethod
    def from_config(cls, data: dict) -> "CostModel":
        kwargs = {}
        for key, value in data.items():
            attr = _KEY_TO_ATTR.get(key, key if key in _KEY_TO_ATTR.values() else None)
            if attr is None:
                raise ValueError(f"unknown cost model key {key!r}")
            kwargs[attr] = float(value)
        return cls(**kwargs)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_config(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "CostModel":
        with open(path) as fh:
            text = fh.read()
        stripped = text.lstrip()
        if stripped.startswith("{"):
            return cls.from_config(json.loads(text))
        data = {}
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            data[key.strip()] = value.strip()
        return cls.from_config(data)
