"""Experiment configuration: one JSON file drives generation, the central
baseline, simulation, and networked deployment.

Schema (defaults in parentheses):

    model: "lr" | "nn"                       ("nn")
    privacy: {mode: "plain"|"dp"|"he",
              dp:  {fraction, epsilon, noise_var, gamma, tau},
              he:  {poly_degree, modulus_bits, scale_log2}}
    rounds (250), local_epochs (20), learning_rate (0.01), l2_penalty (1e-4)
    batch_size (20000), site_batch_sizes ({"stockholm": 100000})
    threshold (0.5), train_frac (0.8)
    central_epochs (400), central_folds (10)
    data: {source: "generate"|"csv", scale_factor (1.0), seed, sites, csv_dir}
    transport: "sim" | "tcp"                 ("sim")
    seed (12345), weighting: "unit"|"examples" (dp needs "unit"), timeout_seconds (600)
    out_dir ("out"), token (PRIVFED_TOKEN env overrides)

When privacy.mode is "dp" and no dp block is given, the reference per-learner
configuration for the selected model is used; mode "he" defaults to the
full-scale CKKS parameters (degree 8192, [60, 40, 40], scale 2^40).  A partial
dp or he block is merged onto those defaults, and a key that no block knows is
rejected with its dotted name, as is a numeric value outside its range
(``RANGES``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field

from .data import DEFAULT_SITES, GeneratorSpec, SiteSpec
from .dp import SvtConfig
from .errors import ConfigError
from .he import DEFAULT_PARAMS, CkksParams

DEFAULT_TOKEN = "privfed-dev-token"

# reference per-learner DP selections
DP_DEFAULTS = {
    "nn": SvtConfig(fraction=0.9, epsilon=1.0, noise_var=2.0, gamma=0.01, tau=1e-4),
    "lr": SvtConfig(fraction=0.99, epsilon=1e4, noise_var=1000.0, gamma=0.001, tau=1e-7),
}

METHOD_NAMES = {"plain": "fedavg", "dp": "fedavg_dp", "he": "fedavg_he"}

# (key, test, the range the test admits) of the numeric settings; a value
# outside its range would otherwise fail only inside a client or a fold
RANGES = (
    ("rounds", lambda v: v >= 0, "nonnegative"),
    ("learning_rate", lambda v: v > 0, "positive"),
    ("batch_size", lambda v: v >= 1, "at least 1"),
    ("local_epochs", lambda v: v >= 0, "nonnegative"),
    ("central_epochs", lambda v: v >= 0, "nonnegative"),
    ("l2_penalty", lambda v: v >= 0, "nonnegative"),
    ("threshold", lambda v: 0 <= v <= 1, "in [0, 1]"),
    ("train_frac", lambda v: 0 < v < 1, "in (0, 1)"),
    ("central_folds", lambda v: v >= 2, "at least 2"),
    ("timeout_seconds", lambda v: v > 0, "positive"),
)

# the settings that decide what a site sends; every party of a run must agree
# on them.  The seed stays out: the digest travels in cleartext.
SESSION_KEYS = ("model", "privacy_mode", "dp", "he", "weighting")


@dataclass
class DataConfig:
    source: str = "generate"
    scale_factor: float = 1.0
    sites: tuple[SiteSpec, ...] = DEFAULT_SITES
    csv_dir: str | None = None

    def generator_spec(self, seed: int) -> GeneratorSpec:
        return GeneratorSpec(sites=self.sites, seed=seed, scale_factor=self.scale_factor)


@dataclass
class ExperimentConfig:
    model: str = "nn"
    privacy_mode: str = "plain"
    dp: SvtConfig | None = None
    he: CkksParams | None = None
    rounds: int = 250
    local_epochs: int = 20
    learning_rate: float = 0.01
    l2_penalty: float = 1e-4
    batch_size: int = 20000
    site_batch_sizes: dict = field(default_factory=lambda: {"stockholm": 100000})
    threshold: float = 0.5
    train_frac: float = 0.8
    central_epochs: int = 400
    central_folds: int = 10
    data: DataConfig = field(default_factory=DataConfig)
    transport: str = "sim"
    seed: int = 12345
    weighting: str = "unit"
    timeout_seconds: float = 600.0
    out_dir: str = "out"
    token: str = DEFAULT_TOKEN

    def __post_init__(self):
        if self.model not in ("lr", "nn"):
            raise ConfigError(f"unknown model {self.model!r}")
        if self.privacy_mode not in ("plain", "dp", "he"):
            raise ConfigError(f"unknown privacy mode {self.privacy_mode!r}")
        if self.privacy_mode == "dp" and self.dp is None:
            self.dp = DP_DEFAULTS[self.model]
        if self.privacy_mode == "he" and self.he is None:
            self.he = DEFAULT_PARAMS
        if self.privacy_mode != "dp" and self.dp is not None:
            raise ConfigError("dp settings given but privacy mode is not 'dp'")
        if self.privacy_mode != "he" and self.he is not None:
            raise ConfigError("he settings given but privacy mode is not 'he'")
        for key, test, meaning in RANGES:
            _check_range(key, getattr(self, key), test, meaning)
        if not isinstance(self.site_batch_sizes, dict):
            raise ConfigError(
                f"config key 'site_batch_sizes' must be an object, got {self.site_batch_sizes!r}"
            )
        for site, size in self.site_batch_sizes.items():
            _check_range(f"site_batch_sizes.{site}", size, lambda v: v >= 1, "at least 1")
        if self.weighting not in ("unit", "examples"):
            raise ConfigError(f"unknown weighting {self.weighting!r}")
        if self.privacy_mode == "dp" and self.weighting == "examples":
            # the client scales its delta by n_train before the SVT filter,
            # so the per-step ±gamma clip would saturate
            raise ConfigError("privacy mode 'dp' needs weighting 'unit'")
        if self.transport not in ("sim", "tcp"):
            raise ConfigError(f"unknown transport {self.transport!r}")

    @property
    def method(self) -> str:
        return METHOD_NAMES[self.privacy_mode]

    def site_names(self) -> list[str]:
        return [s.name for s in self.data.sites]

    def batch_for(self, site: str) -> int:
        return int(self.site_batch_sizes.get(site, self.batch_size))

    def session_digest(self) -> bytes:
        """The first 8 bytes of the SHA-256 of the canonical JSON of the
        ``SESSION_KEYS`` settings as ``to_dict`` writes them; a site sends it
        in its JOIN."""
        settings = {key: getattr(self, key) for key in SESSION_KEYS}
        canonical = json.dumps(
            settings, default=dataclasses.asdict, sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).digest()[:8]

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["data"]["sites"] = [dataclasses.asdict(s) for s in self.data.sites]
        if self.dp is not None:
            out["dp"] = dataclasses.asdict(self.dp)
        if self.he is not None:
            out["he"] = {
                "poly_degree": self.he.poly_degree,
                "modulus_bits": list(self.he.modulus_bits),
                "scale_log2": self.he.scale_log2,
            }
        return out


def _check_range(key: str, value, test, meaning: str) -> None:
    try:
        ok = bool(test(value))
    except TypeError:
        ok = False
    if not ok:
        raise ConfigError(f"config key {key!r} must be {meaning}, got {value!r}")


def _block(raw, path: str, known) -> dict:
    """``raw`` as a config object whose keys all lie in ``known``; ``path`` is
    its dotted name ("" at the top)."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config key {path!r} must be an object, got {raw!r}")
    for key in raw:
        if key not in known:
            dotted = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key {dotted!r}")
    return dict(raw)


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def _make(cls, path: str, base: dict, raw: dict):
    """``cls`` built from ``base`` with the ``raw`` block merged onto it."""
    try:
        return cls(**{**base, **_block(raw, path, _field_names(cls))})
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from None


def _build(raw: dict) -> ExperimentConfig:
    raw = _block(raw, "", _field_names(ExperimentConfig) | {"privacy"})
    kwargs = {}
    privacy = _block(raw.pop("privacy", {}), "privacy", ("mode", "dp", "he"))
    kwargs["privacy_mode"] = privacy.get("mode", raw.pop("privacy_mode", "plain"))
    dp_raw = privacy.get("dp", raw.pop("dp", None))
    if dp_raw is not None:
        # partial dp blocks inherit the reference per-learner defaults
        base = DP_DEFAULTS.get(raw.get("model", "nn"), DP_DEFAULTS["nn"])
        kwargs["dp"] = _make(SvtConfig, "privacy.dp", dataclasses.asdict(base), dp_raw)
    he_raw = privacy.get("he", raw.pop("he", None))
    if he_raw is not None:
        kwargs["he"] = _make(CkksParams, "privacy.he", dataclasses.asdict(DEFAULT_PARAMS), he_raw)
    data_raw = raw.pop("data", None)
    if data_raw is not None:
        data_raw = _block(data_raw, "data", _field_names(DataConfig))
        sites_raw = data_raw.pop("sites", None)
        if sites_raw is not None:
            data_raw["sites"] = tuple(
                _make(SiteSpec, f"data.sites[{i}]", {}, s) for i, s in enumerate(sites_raw)
            )
        kwargs["data"] = _make(DataConfig, "data", {}, data_raw)
    cfg = ExperimentConfig(**kwargs, **raw)
    token_env = os.environ.get("PRIVFED_TOKEN")
    if token_env:
        cfg.token = token_env
    return cfg


def load_config(path: str | None, overrides: list[str] | None = None) -> ExperimentConfig:
    """Load a JSON config file and apply dotted --set overrides.

    Override values parse as JSON when possible, else as strings:
    ``--set privacy.mode=dp --set rounds=50 --set data.scale_factor=0.02``.
    """
    raw: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as err:
            raise ConfigError(f"config line {err.lineno}: {err.msg}") from None
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not KEY=VALUE")
        key, text = item.split("=", 1)
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {key!r} crosses a non-object")
        node[parts[-1]] = value
    return _build(raw)
