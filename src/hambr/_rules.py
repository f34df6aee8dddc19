"""Range rules that config fields declare beside their defaults, and their one check."""

import math
from dataclasses import MISSING, field, fields

_TESTS = {  # NaN fails every comparison, so every rule
    "positive and finite": lambda v: 0 < v < math.inf,
    "non-negative and finite": lambda v: 0 <= v < math.inf,
    ">= 1": lambda v: v >= 1, ">= 2": lambda v: v >= 2,
    "in (0, 1)": lambda v: 0 < v < 1, "in (0, 1]": lambda v: 0 < v <= 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
}


def rule(text, default=MISSING):
    """A dataclass field whose value must be `text`: a _TESTS key, or a tuple of values."""
    test = text.__contains__ if isinstance(text, tuple) else _TESTS[text]
    text = f"one of {text}" if isinstance(text, tuple) else text
    return field(default=default, metadata={"rule": (text, test)})


def check_rules(obj, error=ValueError) -> None:
    """Raise `error("<field> must be <rule>")` for `obj`'s first field that breaks its rule."""
    for f in fields(obj):
        text, test = f.metadata.get("rule", (None, None))
        if test is not None and not test(getattr(obj, f.name)):
            raise error(f"{f.name} must be {text}")
