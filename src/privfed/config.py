"""Experiment configuration: one JSON file drives generation, the central
baseline, simulation, and networked deployment.

Schema (defaults in parentheses):

    model: "lr" | "nn"                       ("nn")
    privacy: {mode: "plain"|"dp"|"he"        ("plain"),
              dp:  {fraction, epsilon, noise_var, gamma, tau},
              he:  {poly_degree, modulus_bits, scale_log2}}
    rounds (250), local_epochs (20), learning_rate (0.01), l2_penalty (1e-4)
    batch_size (20000), site_batch_sizes ({"stockholm": 100000} if a site is
    named stockholm, else {})
    threshold (0.5), train_frac (0.8)
    central_epochs (400), central_folds (10)
    data: {scale_factor (1.0), sites (the reference cohort), csv_dir (none)}
    seed (12345), weighting: "unit"|"examples" (dp needs "unit"), timeout_seconds (600)
    out_dir ("out"), token (PRIVFED_TOKEN env overrides)

When privacy.mode is "dp" and no dp block is given, the reference per-learner
configuration for the selected model is used; mode "he" defaults to the
full-scale CKKS parameters (degree 8192, [60, 40, 40], scale 2^40).  A partial
dp or he block is merged onto those defaults, and a key that no block knows is
rejected with its dotted name, as is a value of the wrong type (an integer
setting given 2.5, any number given a bool, a string setting given a number)
or outside its range or set (``RANGES``), a missing site entry, a
``site_batch_sizes`` key that names no site, a dp or he block outside its
mode, and an HE chain whose primes do not exist.  Sites are read from
``<data.csv_dir>/<site>.csv`` when ``data.csv_dir`` is set and generated
otherwise.

This schema is the only spelling ``load_config`` reads, and ``to_dict`` writes
it back, less the token, as the config echo of every report; so a report's
config loads back as a config file.
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
from .he.ntt import generate_ntt_primes

DEFAULT_TOKEN = "privfed-dev-token"

# reference per-learner DP selections
DP_DEFAULTS = {
    "nn": SvtConfig(fraction=0.9, epsilon=1.0, noise_var=2.0, gamma=0.01, tau=1e-4),
    "lr": SvtConfig(fraction=0.99, epsilon=1e4, noise_var=1000.0, gamma=0.001, tau=1e-7),
}

METHOD_NAMES = {"plain": "fedavg", "dp": "fedavg_dp", "he": "fedavg_he"}

# (dotted key, type, test, the range the test admits) of the top-level
# settings, whose attribute is the key with "_" for "."; a value of another
# type or outside its range would otherwise fail only inside a client or a
# fold, or run something other than what was asked
RANGES = (
    ("model", str, lambda v: v in ("lr", "nn"), "'lr' or 'nn'"),
    ("privacy.mode", str, lambda v: v in METHOD_NAMES, "'plain', 'dp' or 'he'"),
    ("weighting", str, lambda v: v in ("unit", "examples"), "'unit' or 'examples'"),
    ("out_dir", str, lambda v: True, "a string"),
    ("token", str, lambda v: True, "a string"),
    ("rounds", int, lambda v: v >= 0, "nonnegative"),
    ("learning_rate", float, lambda v: v > 0, "positive"),
    ("batch_size", int, lambda v: v >= 1, "at least 1"),
    ("local_epochs", int, lambda v: v >= 0, "nonnegative"),
    ("central_epochs", int, lambda v: v >= 0, "nonnegative"),
    ("l2_penalty", float, lambda v: v >= 0, "nonnegative"),
    ("threshold", float, lambda v: 0 <= v <= 1, "in [0, 1]"),
    ("train_frac", float, lambda v: 0 < v < 1, "in (0, 1)"),
    ("central_folds", int, lambda v: v >= 2, "at least 2"),
    ("timeout_seconds", float, lambda v: v > 0, "positive"),
    ("seed", int, lambda v: True, "an integer"),
)

# the settings that decide what a site sends; every party of a run must agree
# on them.  The seed stays out: the digest travels in cleartext.
SESSION_KEYS = ("model", "privacy_mode", "dp", "he", "weighting")


@dataclass
class DataConfig:
    scale_factor: float = 1.0
    sites: tuple[SiteSpec, ...] = DEFAULT_SITES
    csv_dir: str | None = None

    def generator_spec(self, seed: int) -> GeneratorSpec:
        return GeneratorSpec(sites=self.sites, seed=seed, scale_factor=self.scale_factor)

    def __post_init__(self):
        if self.csv_dir is not None:
            _check("data.csv_dir", self.csv_dir, str)
        else:
            # generated sites: the generator's own range and class-count
            # rule, checked at load rather than first inside a run
            try:
                self.generator_spec(seed=0)
            except ConfigError as err:
                raise ConfigError(
                    f"config key 'data.scale_factor' is {self.scale_factor!r}: {err}"
                ) from None


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
    site_batch_sizes: dict | None = None  # None: the reference run's, for the cohort's sites
    threshold: float = 0.5
    train_frac: float = 0.8
    central_epochs: int = 400
    central_folds: int = 10
    data: DataConfig = field(default_factory=DataConfig)
    seed: int = 12345
    weighting: str = "unit"
    timeout_seconds: float = 600.0
    out_dir: str = "out"
    token: str = DEFAULT_TOKEN

    def __post_init__(self):
        for key, kind, test, meaning in RANGES:
            _check(key, getattr(self, key.replace(".", "_")), kind, test, meaning)
        if self.privacy_mode == "dp" and self.dp is None:
            self.dp = DP_DEFAULTS[self.model]
        if self.privacy_mode == "he" and self.he is None:
            self.he = DEFAULT_PARAMS
        for block in ("dp", "he"):
            if self.privacy_mode != block and getattr(self, block) is not None:
                raise ConfigError(
                    f"config key 'privacy.{block}' needs privacy.mode {block!r}, got {self.privacy_mode!r}"
                )
        if self.privacy_mode == "he":
            bits = list(self.he.modulus_bits)
            if self.he.fresh_level < 1:
                # aggregation rescales a fresh ciphertext once, down one level
                raise ConfigError(
                    f"config key 'privacy.he.modulus_bits' needs at least 3 entries in mode 'he', got {bits}"
                )
            try:
                generate_ntt_primes(bits, self.he.poly_degree)
            except ValueError as err:
                raise ConfigError(f"config key 'privacy.he.modulus_bits' is {bits}: {err}") from None
        names = self.site_names()
        if self.site_batch_sizes is None:
            self.site_batch_sizes = {"stockholm": 100000} if "stockholm" in names else {}
        if not isinstance(self.site_batch_sizes, dict):
            raise ConfigError(
                f"config key 'site_batch_sizes' must be an object, got {self.site_batch_sizes!r}"
            )
        for site, size in self.site_batch_sizes.items():
            if site not in names:
                raise ConfigError(f"config key 'site_batch_sizes.{site}' names no site of data.sites")
            _check(f"site_batch_sizes.{site}", size, int, lambda v: v >= 1, "at least 1")
        if self.privacy_mode == "dp" and self.weighting == "examples":
            # the client scales its delta by n_train before the SVT filter,
            # so the per-step ±gamma clip would saturate
            raise ConfigError("config key 'weighting' must be 'unit' in privacy mode 'dp', got 'examples'")
        for name in names:
            if names.count(name) > 1:
                raise ConfigError(f"config key 'data.sites' lists site {name!r} more than once")

    @property
    def method(self) -> str:
        return METHOD_NAMES[self.privacy_mode]

    def site_names(self) -> list[str]:
        return [s.name for s in self.data.sites]

    def batch_for(self, site: str) -> int:
        return self.site_batch_sizes.get(site, self.batch_size)

    def session_digest(self) -> bytes:
        """The first 8 bytes of the SHA-256 of the canonical JSON of the
        ``SESSION_KEYS`` attributes, keyed by attribute name (``privacy_mode``,
        not the file's ``privacy.mode``); a site sends it in its JOIN."""
        settings = {key: getattr(self, key) for key in SESSION_KEYS}
        canonical = json.dumps(
            settings, default=dataclasses.asdict, sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).digest()[:8]

    def to_dict(self) -> dict:
        """The config file that gives this config, less the token."""
        out = json.loads(json.dumps(dataclasses.asdict(self)))
        del out["token"]
        privacy = {"mode": out.pop("privacy_mode"), "dp": out.pop("dp"), "he": out.pop("he")}
        return {"model": out.pop("model"), "privacy": privacy, **out}


# a setting's type: the Python types a value of it may have, and its name
_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string")}


def _check(key: str, value, kind: type, test=lambda v: True, meaning: str = "") -> None:
    """Refuse ``value`` for ``key`` unless it is of ``kind`` (an int also
    serves as a float, a bool as neither) and passes ``test``."""
    types, what = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")
    if not test(value):
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
    """``cls`` built from ``base`` with the ``raw`` block merged onto it, once
    every entry without a default is given and each ``int``, ``float`` or
    ``str`` entry is of its declared type.  A ``ConfigError`` or
    ``ValueError`` from ``cls`` whose message begins with an entry's name
    (``CkksParams``'s, ``SvtConfig``'s and ``SiteSpec``'s do) is reraised
    naming that entry's dotted key."""
    fields = {**base, **_block(raw, path, _field_names(cls))}
    kinds = {kind.__name__: kind for kind in _KINDS}
    for f in dataclasses.fields(cls):
        key = f"{path}.{f.name}"
        if f.name not in fields and f.default is dataclasses.MISSING:
            raise ConfigError(f"config key {key!r} is missing")
        if f.name in fields and f.type in kinds:
            _check(key, fields[f.name], kinds[f.type])
    try:
        return cls(**fields)
    except (ConfigError, ValueError) as err:
        key, _, rest = str(err).partition(" ")
        if key not in fields:
            raise
        raise ConfigError(f"config key '{path}.{key}' {rest}") from None


def _build(raw: dict) -> ExperimentConfig:
    top = _field_names(ExperimentConfig) - {"privacy_mode", "dp", "he"}
    raw = _block(raw, "", top | {"privacy"})
    privacy = _block(raw.pop("privacy", {}), "privacy", ("mode", "dp", "he"))
    kwargs = {"privacy_mode": privacy.get("mode", "plain")}
    if privacy.get("dp") is not None:
        # partial dp blocks inherit the reference per-learner defaults
        base = DP_DEFAULTS["lr" if raw.get("model") == "lr" else "nn"]
        kwargs["dp"] = _make(SvtConfig, "privacy.dp", dataclasses.asdict(base), privacy["dp"])
    if privacy.get("he") is not None:
        kwargs["he"] = _make(CkksParams, "privacy.he", dataclasses.asdict(DEFAULT_PARAMS), privacy["he"])
    data_raw = raw.pop("data", None)
    if data_raw is not None:
        data_raw = _block(data_raw, "data", _field_names(DataConfig))
        sites_raw = data_raw.pop("sites", None)
        if sites_raw is not None:
            if not isinstance(sites_raw, list) or not sites_raw:
                raise ConfigError(f"config key 'data.sites' must be a non-empty list, got {sites_raw!r}")
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
