import math

import pytest

from zxcut.costmodel import DEFAULTS, CostModel


def test_defaults_match_reference_rates():
    cm = CostModel()
    assert cm.alpha == 0.32
    assert cm.r_decomp == 1730
    assert cm.r_crossref == 412000
    assert cm.real_run_threshold_secs == 100


def test_t0_single_clifford_evaluation():
    cm = CostModel()
    assert cm.seconds(2.0 ** (cm.alpha * 0)) == pytest.approx(1 / 1730)


def test_t50_direct_estimate():
    cm = CostModel()
    # 2^(0.32*50) / 1730 = 2^16 / 1730 ~ 37.9 s
    assert cm.seconds(2.0 ** (cm.alpha * 50)) == pytest.approx(2 ** 16 / 1730)
    assert cm.seconds(2.0 ** (cm.alpha * 50)) == pytest.approx(37.9, abs=0.05)


def test_estimate_monotone():
    cm = CostModel()
    prev = -1.0
    for t in range(0, 80, 5):
        cur = cm.seconds(2.0 ** (cm.alpha * t))
        assert cur > prev
        prev = cur
    assert cm.seconds(100, 100) < cm.seconds(200, 100)
    assert cm.seconds(100, 100) < cm.seconds(100, 300)
    assert cm.seconds(100, 100) < cm.seconds(100, 100, overhead=0.5)


def test_equal_rates_reduce_to_count_minimisation():
    cm = CostModel(r_decomp=1000, r_crossref=1000, t_overhead=0)
    a = cm.seconds(120, 80)
    b = cm.seconds(150, 60)
    assert (a < b) == (120 + 80 < 150 + 60)


def test_config_roundtrip_json(tmp_path):
    cm = CostModel(alpha=0.4, r_decomp=2000, t_overhead=1.5)
    path = tmp_path / "cm.json"
    cm.save(str(path))
    back = CostModel.load(str(path))
    assert back == cm
    text = path.read_text()
    for key in DEFAULTS:
        assert key in text  # documented camelCase keys


def test_config_key_value_format(tmp_path):
    path = tmp_path / "cm.cfg"
    path.write_text("alpha = 0.35\nrDecomp = 1500  # local measurement\n")
    cm = CostModel.load(str(path))
    assert cm.alpha == 0.35
    assert cm.r_decomp == 1500
    assert cm.r_crossref == DEFAULTS["rCrossref"]


def test_config_rejects_unknown_keys():
    # attribute spellings are not config keys either
    for data in ({"bogus": 1}, {"r_decomp": 1}):
        with pytest.raises(ValueError):
            CostModel.from_config(data)


def test_config_rejects_the_removed_precompute_rate(tmp_path):
    # one leaf rate prices every reduction; a config that still sets a
    # second one is an unknown key, not silently ignored
    for text in ('{"rDecomp": 1500, "rPrecomp": 21400}\n', "rPrecomp = 21400\n"):
        path = tmp_path / "cm.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match="rPrecomp"):
            CostModel.load(str(path))
    assert len(DEFAULTS) == len(CostModel().to_config()) == 5


def test_validation():
    with pytest.raises(ValueError):
        CostModel(alpha=0)
    with pytest.raises(ValueError):
        CostModel(r_decomp=-1)


@pytest.mark.parametrize("key, value", [
    ("rDecomp", math.nan), ("rDecomp", math.inf), ("rDecomp", 0.0),
    ("rCrossref", math.nan), ("rCrossref", math.inf), ("rCrossref", -1.0),
    ("tOverhead", math.nan), ("tOverhead", math.inf), ("tOverhead", -5.0),
    ("realRunThresholdSecs", math.nan), ("realRunThresholdSecs", -1.0),
])
def test_config_rejects_values_that_break_the_price(key, value):
    # each would make tEstSeconds NaN or log2Seconds -inf, which --json
    # printed as invalid JSON; the error names the config key
    with pytest.raises(ValueError, match=key):
        CostModel.from_config({key: value})


def test_real_run_threshold_may_be_infinite():
    # inf measures every sweep cell
    cm = CostModel.from_config({"realRunThresholdSecs": math.inf})
    assert cm.real_run_threshold_secs == math.inf
    assert CostModel(t_overhead=0.0).t_overhead == 0.0


def test_log2_seconds():
    assert CostModel.log2_seconds(8.0) == 3.0
    assert CostModel.log2_seconds(0.0) == -math.inf
