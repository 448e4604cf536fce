"""Projected-runtime cost model: decomposition efficiency, per-calculation
rates, and the one price formula used for plan selection and benchmark
sweeps.

Every reduction, plain decomposition or one entry of a precomputed table, is
priced the same way: 2^(alpha*t) stabiliser-decomposition leaves at rDecomp.
Cross-referencing products cost 1/rCrossref each, and a partitioned plan
pays tOverhead once.

Default rates ship from measurements on commodity hardware (error bars in
the comments below); ``zxcut calibrate`` re-measures rDecomp locally from
the reports of ``direct`` runs, as projected leaves per second of a run's
time outside planning, so planning time is counted only in tOverhead.
rDecomp is thus a price per projected leaf, not a rate of leaves evaluated:
the decomposition tree ends in dense leaves, each of which stands for a
whole subtree, so it evaluates far fewer leaves than 2^(alpha*t).  All
estimates are labeled with the alpha used, since the implemented
decomposition set may be weaker than the one the default alpha describes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

# reference rates, calcs/second: decomp 1730 +/- 650, crossref 412000 +/- 145000;
# alpha 0.32 +/- 0.02
DEFAULTS = {
    "alpha": 0.32,
    "rDecomp": 1730.0,
    "rCrossref": 412000.0,
    "tOverhead": 0.0,
    "realRunThresholdSecs": 100.0,
}

_KEY_TO_ATTR = {
    "alpha": "alpha",
    "rDecomp": "r_decomp",
    "rCrossref": "r_crossref",
    "tOverhead": "t_overhead",
    "realRunThresholdSecs": "real_run_threshold_secs",
}


@dataclass
class CostModel:
    alpha: float = DEFAULTS["alpha"]
    r_decomp: float = DEFAULTS["rDecomp"]
    r_crossref: float = DEFAULTS["rCrossref"]
    t_overhead: float = DEFAULTS["tOverhead"]
    real_run_threshold_secs: float = DEFAULTS["realRunThresholdSecs"]

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must lie in (0, 1]")
        # each check is written so that NaN fails it
        for key, rate in (("rDecomp", self.r_decomp), ("rCrossref", self.r_crossref)):
            if not 0 < rate < math.inf:
                raise ValueError(f"{key} must be a finite rate above 0")
        if not 0 <= self.t_overhead < math.inf:
            raise ValueError("tOverhead must be finite and at least 0")
        if not self.real_run_threshold_secs >= 0:
            raise ValueError("realRunThresholdSecs must be at least 0 (inf measures every cell)")

    # -- the price ----------------------------------------------------------

    def seconds(self, leaves: float, products: float = 0.0,
                overhead: float = 0.0) -> float:
        """Projected seconds of a run that evaluates ``leaves`` decomposition
        leaves and ``products`` cross-referencing products after ``overhead``
        seconds of set-up: overhead + leaves/rDecomp + products/rCrossref."""
        return overhead + leaves / self.r_decomp + products / self.r_crossref

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
            attr = _KEY_TO_ATTR.get(key)
            if attr is None:
                raise ValueError(f"unknown cost model key {key!r}")
            # a JSON number or a string: float() would read true as 1.0 and
            # raise TypeError on null or a list
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                raise ValueError(f"{key} must be a number, not {json.dumps(value)}")
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
