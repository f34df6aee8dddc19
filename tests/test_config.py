"""The range rule of every checked config field, and README's config example.

Each section rejects a value out of its field's range with `<field> must be
<rule>`: `ConfigError` for `ExperimentConfig`, `ValueError` for the other
sections, and through `config_from_dict` with the section's dotted path in
front.  A number field that no rule covers must be listed in EXEMPT, so a
field added later cannot go unchecked by accident.
"""

import json
import math
import re
import typing
from dataclasses import fields
from pathlib import Path

import pytest

from hambr.energy import EnergyParams
from hambr.losses import LossWeights
from hambr.partition import ConsensusWindow
from hambr.runner import ConfigError, ExperimentConfig, config_from_dict
from hambr.sampler import SamplerConfig
from hambr.synthgen import DatasetSpec, NoiseSpec

README = Path(__file__).resolve().parents[1] / "README.md"

# section -> (its path in a config document, None when it is no config
# section; the error its constructor raises; the other arguments it needs)
SECTIONS = {
    ExperimentConfig: ("", ConfigError, {}),
    DatasetSpec: ("dataset", ValueError, {}),
    NoiseSpec: ("dataset.noise", ValueError, {}),
    SamplerConfig: ("sampler", ValueError, {}),
    EnergyParams: ("energy", ValueError, {}),
    LossWeights: ("weights", ValueError, {}),
    ConsensusWindow: (None, ValueError, {"t_filter": 3, "n_samples": 10}),
}

# rule text -> values outside the rule
POSITIVE = ("positive and finite", [0.0, -1.0, math.inf, math.nan])
NON_NEGATIVE = ("non-negative and finite", [-1e-9, -0.1, -math.inf, math.inf, math.nan])
AT_LEAST_1 = (">= 1", [0, -3])
AT_LEAST_2 = (">= 2", [1, 0])
OPEN_UNIT = ("in (0, 1)", [0.0, 1.0, -0.5, math.nan])
HALF_OPEN_UNIT = ("in (0, 1]", [0.0, 1.5, math.nan])
CLOSED_UNIT = ("in [0, 1]", [-0.1, 1.1, math.nan])

RULES = {
    (ExperimentConfig, "clean_threshold"): OPEN_UNIT,
    (ExperimentConfig, "t_filter"): AT_LEAST_1,
    (ExperimentConfig, "epochs"): AT_LEAST_1,
    (ExperimentConfig, "learn_rate"): POSITIVE,
    (ExperimentConfig, "classifier_temperature"): POSITIVE,
    (ExperimentConfig, "aug_sigma"): NON_NEGATIVE,
    (DatasetSpec, "dim"): AT_LEAST_2,
    (DatasetSpec, "n_classes"): AT_LEAST_1,
    (DatasetSpec, "n_per_class"): AT_LEAST_1,
    (NoiseSpec, "mode"): ("one of ('symmetric', 'asymmetric')", ["uniform", "", "salty"]),
    (NoiseSpec, "rate"): CLOSED_UNIT,
    (SamplerConfig, "step_size"): POSITIVE,
    (SamplerConfig, "friction"): NON_NEGATIVE,
    (SamplerConfig, "n_rounds"): AT_LEAST_1,
    (SamplerConfig, "steps_per_round"): AT_LEAST_1,
    (SamplerConfig, "n_chains"): AT_LEAST_1,
    (SamplerConfig, "dyn_temperature"): POSITIVE,
    (SamplerConfig, "integrator_variant"): ("one of ('exponential', 'euler')", ["leapfrog"]),
    (EnergyParams, "tau_energy"): POSITIVE,
    (EnergyParams, "k_neighbors"): AT_LEAST_1,
    (LossWeights, "lambda_u"): NON_NEGATIVE,
    (LossWeights, "lambda_reg"): NON_NEGATIVE,
    (LossWeights, "lambda_c"): NON_NEGATIVE,
    (LossWeights, "lambda_hambr"): NON_NEGATIVE,
    (LossWeights, "tau_loss"): POSITIVE,
    (LossWeights, "tau_con"): POSITIVE,
    (LossWeights, "sharpen_T"): POSITIVE,
    (LossWeights, "gce_q"): HALF_OPEN_UNIT,
    (ConsensusWindow, "t_filter"): AT_LEAST_1,
    (ConsensusWindow, "n_samples"): AT_LEAST_1,
}

# number fields checked against other fields, or never range-checked
EXEMPT = {
    (ExperimentConfig, "warmup_epochs"),  # against epochs
    (ExperimentConfig, "seed"),
    (DatasetSpec, "kappa"),  # per class, against what the vMF sampler can draw
    (DatasetSpec, "means"),  # one distinct direction per class
    (DatasetSpec, "seed"),
    (SamplerConfig, "seed"),
}

CASES = [(cls, name, rule, value) for (cls, name), (rule, bad) in RULES.items()
         for value in bad]
IDS = [f"{cls.__name__}.{name}={value!r}" for cls, name, _, value in CASES]


def _number_fields(cls):
    hints = typing.get_type_hints(cls)
    return {(cls, f.name) for f in fields(cls) if hints[f.name] in (int, float)}


def _document(path, name, value):
    """A config document that sets `name` of the section at `path` to `value`."""
    doc = {name: value}
    for part in reversed(path.split(".") if path else []):
        doc = {part: doc}
    return doc


@pytest.mark.parametrize("cls, name, rule, value", CASES, ids=IDS)
def test_out_of_range_value_is_rejected_naming_field_and_rule(cls, name, rule, value):
    _, error, needed = SECTIONS[cls]
    with pytest.raises(ValueError) as info:
        cls(**{**needed, name: value})
    assert info.type is error
    assert str(info.value) == f"{name} must be {rule}"


@pytest.mark.parametrize("cls, name, rule, value",
                         [case for case in CASES if SECTIONS[case[0]][0] is not None],
                         ids=[i for case, i in zip(CASES, IDS)
                              if SECTIONS[case[0]][0] is not None])
def test_out_of_range_value_in_a_document_is_named_by_its_section(cls, name, rule, value):
    path = SECTIONS[cls][0]
    prefix = f"{path}: " if path else ""
    with pytest.raises(ConfigError, match="^" + re.escape(f"{prefix}{name} must be {rule}") + "$"):
        config_from_dict(_document(path, name, value))


FLOAT_FIELDS = sorted((cls.__name__, name) for cls, name in RULES
                      if typing.get_type_hints(cls)[name] is float)


@pytest.mark.parametrize("cls_name, name", FLOAT_FIELDS)
def test_every_float_field_rejects_nan(cls_name, name):
    cls = next(c for c in SECTIONS if c.__name__ == cls_name)
    _, error, needed = SECTIONS[cls]
    with pytest.raises(error, match="^" + re.escape(name) + " must be "):
        cls(**{**needed, name: math.nan})


@pytest.mark.parametrize("cls", list(SECTIONS), ids=lambda cls: cls.__name__)
def test_every_number_field_has_a_rule_or_is_exempt(cls):
    numbers = _number_fields(cls)
    assert numbers - set(RULES) - EXEMPT == set()
    assert {key for key in RULES if key[0] is cls} <= {(cls, f.name) for f in fields(cls)}


def test_the_checked_fields_are_those_that_declare_a_rule():
    declared = {(cls, f.name) for cls in SECTIONS for f in fields(cls) if "rule" in f.metadata}
    assert declared == set(RULES)


@pytest.mark.parametrize("cls", list(SECTIONS), ids=lambda cls: cls.__name__)
def test_defaults_are_in_range(cls):
    _, _, needed = SECTIONS[cls]
    cls(**needed)


def test_readme_config_example_is_the_default_config():
    text = README.read_text()
    lead = "A config is a single JSON object"
    block = re.search(r"```json\n(.*?)```", text[text.index(lead):], re.S).group(1)
    assert config_from_dict(json.loads(block)) == ExperimentConfig()
