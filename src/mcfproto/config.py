"""The config schema and its one rule: each key takes a value of its default's
type, and a key in BOUNDS only one in its interval. HeadConfig and TrainConfig
check themselves when built, so configs from files, checkpoints and library
callers meet the same rule. Imports nothing from mcfproto but store."""

import json
import math
from dataclasses import asdict, dataclass, fields

from . import store

# Width of an action: translation in 0-2, rotation in 3-5, gripper in 6.
ACTION_DIM = 7
DEFAULT_MAX_STEP = 0.05

# The interval each bounded config value must lie in, by "section.key"; the
# other keys are checked for their type only (see config_error).
BOUNDS = {
    **dict.fromkeys(("gym.episodes_per_task", "head.obs_dim", "head.hidden", "head.d",
                     "head.k_trans", "head.k_rot", "head.horizon", "train.steps",
                     "train.batch_size", "train.eval_interval", "diagnostics.time_bins"),
                    "[1, inf)"),
    **dict.fromkeys(("gym.noise_scale", "head.lambda_ortho", "head.lambda_smooth",
                     "train.warmup", "train.weight_decay", "train.weight_decay_scale",
                     "train.ckpt_interval", "diagnostics.min_displacement"),
                    "[0, inf)"),
    **dict.fromkeys(("gym.max_step", "head.beta", "train.lr", "train.eps"), "(0, inf)"),
    **dict.fromkeys(("train.beta1", "train.beta2", "train.val_fraction"), "[0, 1)"),
    # unsigned 32-bit, so that a seed, and theoremlab's seed * 1000 + trial,
    # fit a Philox key's unsigned 64 bits
    **dict.fromkeys(("gym.seed", "train.seed"), "[0, 4294967295]"),
}


@dataclass
class HeadConfig:
    obs_dim: int = 15
    hidden: int = 64
    d: int = 3
    k_trans: int = 16
    k_rot: int = 16
    horizon: int = 7
    lambda_ortho: float = 1e-3
    lambda_smooth: float = 1e-2
    beta: float = 1.0
    learn_frame: bool = True

    def __post_init__(self):
        check_config("head", vars(self), {f.name: f.default for f in fields(self)})


@dataclass
class TrainConfig:
    seed: int = 0
    batch_size: int = 64
    steps: int = 20000
    warmup: int = 500
    lr: float = 1e-3
    weight_decay: float = 1e-4
    weight_decay_scale: float = 10.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    eval_interval: int = 500
    ckpt_interval: int = 0      # 0 disables periodic checkpoints
    val_fraction: float = 0.2

    def __post_init__(self):
        check_config("train", vars(self), {f.name: f.default for f in fields(self)})
        if self.warmup > self.steps:
            raise ValueError("config key train.warmup must be at most train.steps, "
                             f"got {self.warmup} > {self.steps}")


def config_error(name, default, val):
    """None when config key `name` ("section.key"), whose default is `default`,
    may take `val`; otherwise the message that says what it takes."""
    if isinstance(default, bool):
        expected = None if isinstance(val, bool) else "true or false"
    elif isinstance(default, int):
        expected = None if type(val) is int else "an integer"  # not a bool
    else:
        try:  # json.load reads NaN, Infinity and integers past the float range
            number = not isinstance(val, bool) and math.isfinite(val)
        except (TypeError, OverflowError):
            number = False
        expected = (None if number or (val is None and default is None)
                    else "a finite number" + " or null" * (default is None))
    interval = BOUNDS.get(name)
    if interval and not expected and val is not None:
        low, high = map(float, interval[1:-1].split(","))
        if not ((low < val if interval[0] == "(" else low <= val)
                and (val < high if interval[-1] == ")" else val <= high)):
            expected = f"in {interval}"
    return expected and (f"config key {name} must be {expected}, "
                         f"got {json.dumps(val, default=repr)}")


def check_config(section, values, defaults):
    """Raise ValueError at the first key of `defaults` whose value in `values`
    config_error rejects."""
    for key, default in defaults.items():
        error = config_error(f"{section}.{key}", default, values[key])
        if error:
            raise ValueError(error)


def default_config():
    return {
        "gym": {
            "episodes_per_task": 200,
            "noise_scale": None,       # None -> 2% of max step size
            "seed": 0,
            "frame_randomize": True,
            "max_step": DEFAULT_MAX_STEP,
        },
        "head": asdict(HeadConfig()),
        "train": asdict(TrainConfig()),
        "diagnostics": {
            "time_bins": 10,
            "min_displacement": None,  # None -> 10% of median step norm
        },
    }


def load_config(path, overrides=None):
    """The default config updated from the JSON file `path`, if any, and then
    from `overrides`, {"section.key": value} with None for a flag not given.
    Raises ValueError naming the first key whose value is not allowed."""
    merged, defaults = default_config(), default_config()
    doc = {} if path is None else store.load_json_object(path, "config")
    for section, values in doc.items():
        if section not in merged:
            raise ValueError(f"unknown config section: {section!r}")
        if not isinstance(values, dict):
            raise ValueError(f"config section {section!r} must be an object")
        for key, val in values.items():
            if key not in merged[section]:
                raise ValueError(f"unknown config key: {section}.{key}")
            merged[section][key] = val
    for name, val in (overrides or {}).items():
        if val is not None:
            section, key = name.split(".")
            merged[section][key] = val
    check_config("gym", merged["gym"], defaults["gym"])
    HeadConfig(**merged["head"])
    TrainConfig(**merged["train"])
    check_config("diagnostics", merged["diagnostics"], defaults["diagnostics"])
    return merged
