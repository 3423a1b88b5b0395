"""The one rule for JSON values, shared by the config sections
(NetworkConfig, DecodeParams, GtConfig, SkeletonDef, SceneConfig), by
synth's NoiseSpec and by evalkit's annotation and results readers.
``check_value`` checks a value against a type annotation, coercing
nothing: ints fill float fields (and are stored as floats), floats must
be finite, a bool is neither an int nor a float, and a JSON array fills
a tuple field element by element. ``from_config`` keeps the keys that
name fields (the rest are ignored, so old files still load) and checks
each field through the dataclass; subclasses add range checks after
``super().__post_init__()``.
"""

import math
import numbers
import typing
from dataclasses import asdict, fields


def check_value(name, value, kind):
    """Return ``value`` if it has the annotated type ``kind`` (a scalar type,
    or ``tuple[X, Y]`` / ``tuple[X, ...]``, filled by a tuple or a list), an
    int in a float field as a float and a list as a tuple; else raise
    ValueError naming ``name``."""
    if typing.get_origin(kind) is tuple:
        args = typing.get_args(kind)
        array = isinstance(value, (list, tuple))
        if args[-1] is Ellipsis and array:
            args = args[:1] * len(value)
        if not array or len(value) != len(args):
            raise ValueError(f"{name} must be {kind}, got {value!r}")
        return tuple(check_value(f"{name}[{i}]", v, k)
                     for i, (v, k) in enumerate(zip(value, args)))
    if kind is float:
        try:    # NaN and inf fail isfinite; an int past the float range raises
            ok = isinstance(value, numbers.Real) and math.isfinite(value)
        except OverflowError:
            ok = False
    else:
        ok = isinstance(value, numbers.Integral if kind is int else kind)
    if not ok or (isinstance(value, bool) and kind is not bool):
        what = "a finite number" if kind is float else kind.__name__
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return float(value) if kind is float else value


class Config:
    """Base of the frozen config dataclasses."""

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, check_value(f.name, getattr(self, f.name), f.type))

    def to_config(self):
        return asdict(self)

    @classmethod
    def from_config(cls, section):
        if not isinstance(section, dict):
            raise TypeError(f"must be an object, got {type(section).__name__}")
        return cls(**{k: v for k, v in section.items() if k in cls.__dataclass_fields__})
