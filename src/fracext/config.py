"""Experiment configuration: strict JSON schema, defaults, canonical hashing.

One human-editable JSON file per experiment.  Unknown keys anywhere fail
loudly; range violations are collected and reported together.  The canonical
form (defaults applied, keys sorted) is what gets hashed into run manifests,
so identical configs reproduce identical config hashes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from .gridfn import write_json

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _num(lo, hi=None, integer=False, lo_open=False, hi_open=False):
    def check(v):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return "must be a number"
        if isinstance(v, float) and not math.isfinite(v):
            return "must be finite"
        if integer and int(v) != v:
            return "must be an integer"
        if lo is not None and (v <= lo if lo_open else v < lo):
            return f"must be {'>' if lo_open else '>='} {lo}"
        if hi is not None and (v >= hi if hi_open else v > hi):
            return f"must be {'<' if hi_open else '<='} {hi}"
        return None
    return check


# Largest node count per mesh axis: the 1-D stepper's dense float64 mode
# matrix (`SemigroupStepper._modes`, which only the heat semigroup applies; the
# semigroup extension's contour solves hold O(nodes N) numbers, 22 MiB at
# 4096) stays below 128 MiB up to here, and the extension's one dense factor
# is its my x my y-pencil.  Wave numbers and quadrature node counts share it.
MAX_MESH_POINTS = 4096

# Largest count of any other kind (samples, family members, ladder scales,
# strides): per-sample arrays stay in the tens of MiB.
MAX_COUNT = 1_000_000

# Largest accepted `threads` value; the key has no effect.
MAX_THREADS = 64


def _mesh(lo):
    return _num(lo, MAX_MESH_POINTS, integer=True)


def _count(lo):
    return _num(lo, MAX_COUNT, integer=True)


def _boolean(v):
    return None if isinstance(v, bool) else "must be a boolean"


def _string(v):
    return None if isinstance(v, str) else "must be a string"


def _choice(*options):
    # `in` would let True stand for 1 and 2.0 for 2, and hash them apart
    def check(v):
        ok = any(type(v) is type(o) and v == o for o in options)
        return None if ok else f"must be one of {options}"
    return check


# the default of a key that other keys fix (`_derived_case`): absent, the
# key takes the derived value in the validated data; sent, it must equal it
_DERIVED = object()

_SETUP_SCHEMA = {
    "s": (0.5, _num(0.0, 1.0, lo_open=True, hi_open=True)),
    "lambda": (1.0, _num(0.0, lo_open=True)),
    "Lambda": (1.0, _num(0.0, lo_open=True)),
    "alpha": (0.5, _num(0.0, 1.0, lo_open=True, hi_open=True)),
}

_QUAD_SCHEMA = {
    "t_min": (1e-8, _num(0.0, lo_open=True)),
    "t_max": (1e4, _num(0.0, lo_open=True)),
    "nodes": (96, _mesh(8)),
    "substeps": (96, _mesh(1)),  # no effect; kept because benchmark configs send it
}

_PROBLEM_SCHEMAS = {
    "geometry-check": {
        "samples": (100_000, _count(1)),
        "engulfing_samples": (10_000, _count(2)),  # the exponent fit needs two points
        "dimension": (1, _choice(1, 2)),
    },
    "fractional-apply": {
        "k": (2, _mesh(1)),
        "grid_points": (512, _mesh(16)),
        "inverse": (False, _boolean),
        "quadrature": _QUAD_SCHEMA,  # validated, kept for compatibility, no effect
    },
    "solve-extension": {
        "k": (2, _mesh(1)),
        "nx": (257, _mesh(17)),
        "my": (96, _mesh(8)),
        "Z": (1.0, _num(0.0, lo_open=True)),
    },
    "barrier-check": {
        "case": (_DERIVED, _choice(1, 2)),
        "R": (0.5, _num(0.0, lo_open=True)),
        "rho_fraction": (0.5, _num(0.0, 1.0, lo_open=True, hi_open=True)),
        "alpha": (9.0, _num(0.0, lo_open=True)),
        "samples": (10_000, _count(1)),
    },
    "slide-paraboloids": {
        "fixture": ("convex", _choice("convex", "paraboloid", "harmonic")),
        "opening": (1.0, _num(0.0, lo_open=True)),
        "nx": (61, _mesh(9)),
        "nz": (61, _mesh(9)),
        "vertex_stride": (6, _count(1)),
        "check_refinement": (True, _boolean),
        "eps_infconv": (0.05, _num(0.0, lo_open=True)),
    },
    "harnack": {
        "family_size": (20, _count(1)),
        "kappa": (0.5, _num(0.0, 1.0, lo_open=True, hi_open=True)),
        "R": (0.5, _num(0.0, lo_open=True)),
        "nx": (97, _mesh(17)),
        "my": (48, _mesh(8)),
        "check_refinement": (True, _boolean),
    },
    "schauder-decay": {
        "case": (_DERIVED, _choice(1, 2, 3)),
        "benchmark": ("kinked", _choice("kinked", "harmonic", "polynomial")),
        "rho": (0.5, _num(0.0, 1.0, lo_open=True, hi_open=True)),
        "depth": (9, _count(2)),
        "fit_window": (5, _count(2)),
        "mx": (260, _mesh(40)),
        "my": (140, _mesh(24)),
    },
    "end-to-end": {
        "k": (2, _mesh(1)),
        "grid_points": (512, _mesh(16)),
        "subdomain_fraction": (0.5, _num(0.0, 1.0, lo_open=True, hi_open=True)),
    },
}

EXPERIMENT_KINDS = tuple(_PROBLEM_SCHEMAS)

_TOP_SCHEMA = {
    "schema_version": (SCHEMA_VERSION, _choice(SCHEMA_VERSION)),
    "experiment": (None, _choice(*EXPERIMENT_KINDS)),
    "setup": _SETUP_SCHEMA,
    "output_dir": (".", _string),
    "seed": (0, _num(0, integer=True)),
    "threads": (1, _num(1, MAX_THREADS, integer=True)),
    "emit_plots": (False, _boolean),
}


class _Optional:
    """A schema entry whose key may be absent: absent, or equal to its
    default, the key stays out of the validated data and the config hash."""

    def __init__(self, entry):
        self.entry = entry


def _apply_schema(data, schema, path, errors):
    """data checked against schema, defaults filled in, messages appended to
    errors.  An entry is (default, check), None marking a required key, or a
    nested schema for a block that may be absent or null; _Optional wraps either."""
    out = {}
    for key in data:
        if key not in schema:
            errors.append(f"{path}{key}: unknown key")
    for key, entry in schema.items():
        optional = isinstance(entry, _Optional)
        if optional and key not in data:
            continue
        entry = entry.entry if optional else entry
        if isinstance(entry, dict):
            block = data.get(key) or {}
            if not isinstance(block, dict):
                errors.append(f"{path}{key}: must be an object")
                block = {}
            out[key] = _apply_schema(block, entry, f"{path}{key}.", errors)
            default = _apply_schema({}, entry, path, []) if optional else None
        else:
            default, check = entry
            if key in data:
                msg = check(data[key])
                if msg:
                    errors.append(f"{path}{key}: {msg}")
                out[key] = data[key]
            elif default is not None:
                out[key] = default
            else:
                errors.append(f"{path}{key}: missing required key")
        if optional and out[key] == default:
            del out[key]
    return out


def _derived_case(kind, setup, prob):
    """The case other keys fix: barrier-check's by s (1 for s <= 1/2, else 2),
    a kinked schauder-decay's by alpha + 2s (floor(alpha + 2s) + 1, the case
    whose interval holds it); the other decay benchmarks take case 2 unless
    another is sent."""
    if kind == "barrier-check":
        return 1 if setup["s"] <= 0.5 else 2
    if prob["benchmark"] == "kinked":
        return math.floor(setup["alpha"] + 2.0 * setup["s"]) + 1
    return 2


def _barrier_errors(s, prob):
    """Case 1 needs s <= 1/2 and alpha > (n+1)/rho, n = 1; case 2 needs s > 1/2."""
    case, rho = prob["case"], prob["R"] * prob["rho_fraction"]
    if (case == 1) != (s <= 0.5):
        return [f"problem.case: case {case} requires setup.s {'<=' if case == 1 else '>'} 0.5"]
    floor = 2.0 / rho if rho > 0 else math.inf
    if case == 1 and prob["alpha"] <= floor:
        return [f"problem.alpha: case 1 requires alpha > 2 / (R rho_fraction) = {floor:.6g}"]
    return []


@dataclass
class ExperimentConfig:
    data: dict

    @property
    def experiment(self):
        return self.data["experiment"]

    @property
    def seed(self):
        return int(self.data["seed"])

    @property
    def threads(self):
        """The `threads` key, accepted for compatibility; it has no effect."""
        return int(self.data["threads"])

    @property
    def emit_plots(self):
        return bool(self.data["emit_plots"])

    @property
    def output_dir(self):
        return self.data["output_dir"]

    @property
    def problem(self):
        return self.data["problem"]

    @property
    def setup(self):
        """The validated setup block: s, lambda, Lambda and alpha."""
        return self.data["setup"]

    def canonical_bytes(self) -> bytes:
        """The hash input: the data with `output_dir` at its default "." (where
        a run writes is not part of the experiment), compact, keys sorted."""
        return json.dumps({**self.data, "output_dir": "."}, sort_keys=True,
                          separators=(",", ":")).encode()

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def emit(self, path):
        write_json(path, self.data)


def validate(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    errors = []
    kind = raw.get("experiment")
    # the problem block's schema is the experiment's; an unknown experiment
    # has none, so every problem key is unknown beside the experiment's error
    known = kind in EXPERIMENT_KINDS  # a tuple: an unhashable kind compares unequal
    top = _apply_schema(raw, {**_TOP_SCHEMA, "problem": _PROBLEM_SCHEMAS[kind] if known else {}},
                        "", errors)
    setup, prob = top["setup"], top["problem"]
    if not errors and prob.get("case") is _DERIVED:
        prob["case"] = _derived_case(kind, setup, prob)
    if not errors:  # the rules across fields, once every field passed its own check
        if setup["lambda"] > setup["Lambda"]:
            errors.append("setup.Lambda: must be >= setup.lambda")
        quad = prob.get("quadrature")
        if quad and quad["t_max"] <= quad["t_min"]:
            errors.append("problem.quadrature.t_max: must exceed t_min")
        if kind == "barrier-check":
            errors += _barrier_errors(setup["s"], prob)
        # sin(k x) vanishes on every node of (0, pi) cut into k cells, and aliases on fewer
        key = {"fractional-apply": "grid_points", "end-to-end": "grid_points",
               "solve-extension": "nx"}.get(kind)
        cells = prob["nx"] - 1 if key == "nx" else prob.get(key)
        if key and prob["k"] >= cells:
            errors.append(f"problem.k: must be below the {cells} cells that problem.{key} gives, "
                          f"where sin(k x) vanishes on every node or aliases to a lower mode; "
                          f"got {prob['k']}")
        gamma = setup["alpha"] + 2.0 * setup["s"]
        kinked = kind == "schauder-decay" and prob["benchmark"] == "kinked"
        if (kind == "end-to-end" or kinked) and gamma == math.floor(gamma):
            errors.append(f"setup.alpha: {kind} needs setup.alpha + 2 setup.s off the "
                          f"integers, where C^(2s+alpha) has no Hoelder part; got {gamma:g}")
        elif kinked and not prob["case"] - 1 < gamma < prob["case"]:
            case = prob["case"]
            errors.append(f"setup.alpha: kinked schauder-decay case {case} needs "
                          f"{case - 1} < setup.alpha + 2 setup.s < {case}; got {gamma:g}")
        if kind == "end-to-end" and prob["subdomain_fraction"] * prob["grid_points"] < 4:
            errors.append(f"problem.subdomain_fraction: must span >= 4 grid cells for Hoelder "
                          f"pairs; got {prob['subdomain_fraction']:g} of {prob['grid_points']}")
    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(sorted(errors)))
    return ExperimentConfig(top)


def read_config(path):
    """The parsed, not yet validated JSON of a config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: parse error at line {exc.lineno}, column "
                          f"{exc.colno}: {exc.msg}") from exc


def load_config(path) -> ExperimentConfig:
    return validate(read_config(path))


def default_raw(kind, s=None) -> dict:
    """Unvalidated built-in config for an experiment kind (the bare CLI
    subcommands start from it)."""
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    raw = {"experiment": kind, "setup": {}, "problem": {}}
    if s is not None:
        raw["setup"]["s"] = s
    return raw


def default_config(kind, s=None) -> ExperimentConfig:
    """Built-in config for an experiment kind."""
    return validate(default_raw(kind, s))
