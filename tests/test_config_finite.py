"""A float config key holding nan or inf is refused with a ConfigError that
names the key, whether it comes from a config file or from a flag."""

import dataclasses
import math

import pytest

from atebench.cli import main
from atebench.config import ExperimentConfig, load_config
from atebench.errors import ConfigError, ParameterError
from atebench.metrics import RegroupConfig

FLOAT_KEYS = (
    "weight_low",
    "weight_high",
    "ci_alpha",
    "regroup_rtol",
    "regroup_atol",
    "filter_tolerance",
    "treatment_value_a",
    "treatment_value_b",
)


def test_the_keys_checked_are_every_float_key():
    fields = dataclasses.fields(ExperimentConfig)
    assert FLOAT_KEYS == tuple(f.name for f in fields if isinstance(f.default, float))


@pytest.mark.parametrize("raw", ["nan", "inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_a_non_finite_float_in_a_config_file_is_refused(tmp_path, key, raw):
    path = tmp_path / "study.cfg"
    path.write_text(f"{key} = {raw}\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"config key {key!r}: must be finite, got {float(raw)}"


@pytest.mark.parametrize("raw", ["nan", "inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_a_non_finite_float_flag_is_exit_two(tmp_path, capsys, key, raw):
    root = tmp_path / "out"
    code = main(["generate", "--output-root", str(root), "--" + key.replace("_", "-"), raw])
    assert code == 2
    assert f"error: config key {key!r}: must be finite" in capsys.readouterr().err
    assert not root.exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_regroup_tolerances_must_be_finite(bad):
    with pytest.raises(ParameterError):
        RegroupConfig(rtol=bad)
    with pytest.raises(ParameterError):
        RegroupConfig(atol=bad)
