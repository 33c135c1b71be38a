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

from .geometry import FractionalSetup
from .gridfn import write_json

SCHEMA_VERSION = 1

EXPERIMENT_KINDS = (
    "geometry-check", "fractional-apply", "solve-extension", "barrier-check",
    "slide-paraboloids", "harnack", "schauder-decay", "end-to-end",
)


class ConfigError(ValueError):
    pass


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _num(lo=None, hi=None, integer=False, lo_open=False, hi_open=False):
    def check(v):
        if not _is_number(v):
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


# Largest node count per mesh axis: the 1-D heat stepper's dense float64 mode
# matrix (`SemigroupStepper._modes`) stays below 128 MiB up to here, and the
# extension's one dense factor is its my x my y-pencil.  Wave numbers and
# quadrature node counts share it.
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
    def check(v):
        return None if v in options else f"must be one of {options}"
    return check


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
        "engulfing_samples": (10_000, _count(1)),
        "dimension": (1, _choice(1, 2)),
    },
    "fractional-apply": {
        "k": (2, _mesh(1)),
        "grid_points": (512, _mesh(16)),
        "inverse": (False, _boolean),
        "quadrature": (None, None),  # nested; validated, kept for compatibility, no effect
    },
    "solve-extension": {
        "k": (2, _mesh(1)),
        "nx": (257, _mesh(17)),
        "my": (96, _mesh(8)),
        "Z": (1.0, _num(0.0, lo_open=True)),
    },
    "barrier-check": {
        "case": (1, _choice(1, 2)),
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
        "case": (2, _choice(1, 2, 3)),
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

_TOP_SCHEMA = {
    "schema_version": (SCHEMA_VERSION, _choice(SCHEMA_VERSION)),
    "experiment": (None, _choice(*EXPERIMENT_KINDS)),
    "setup": (None, None),
    "problem": (None, None),
    "output_dir": (".", _string),
    "seed": (0, _num(0, integer=True)),
    "threads": (1, _num(1, MAX_THREADS, integer=True)),
    "emit_plots": (False, _boolean),
}


def _apply_schema(data, schema, path, errors):
    out = {}
    for key in data:
        if key not in schema:
            errors.append(f"{path}{key}: unknown key")
    for key, (default, check) in schema.items():
        if key in data:
            value = data[key]
            if check is not None:
                msg = check(value)
                if msg:
                    errors.append(f"{path}{key}: {msg}")
            out[key] = value
        elif default is not None or key in ("setup", "problem", "quadrature"):
            out[key] = default
        else:
            errors.append(f"{path}{key}: missing required key")
    return out


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

    def setup(self) -> FractionalSetup:
        st = self.data["setup"]
        return FractionalSetup(s=st["s"], lam=st["lambda"], Lam=st["Lambda"],
                               alpha=st["alpha"])

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.data, sort_keys=True, separators=(",", ":")).encode()

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def emit(self, path):
        write_json(path, self.data)


def validate(raw: dict) -> ExperimentConfig:
    errors = []
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    top = _apply_schema(raw, _TOP_SCHEMA, "", errors)
    kind = raw.get("experiment")
    if kind in EXPERIMENT_KINDS:  # a tuple: an unhashable kind compares unequal
        setup_in = raw.get("setup") or {}
        if not isinstance(setup_in, dict):
            errors.append("setup: must be an object")
            setup_in = {}
        top["setup"] = _apply_schema(setup_in, _SETUP_SCHEMA, "setup.", errors)
        lam, Lam = top["setup"].get("lambda"), top["setup"].get("Lambda")
        if _is_number(lam) and _is_number(Lam) and lam > Lam:
            errors.append("setup.Lambda: must be >= setup.lambda")
        prob_in = raw.get("problem") or {}
        if not isinstance(prob_in, dict):
            errors.append("problem: must be an object")
            prob_in = {}
        prob = _apply_schema(prob_in, _PROBLEM_SCHEMAS[kind], "problem.", errors)
        if kind == "fractional-apply":
            quad_in = prob.get("quadrature") or {}
            if not isinstance(quad_in, dict):
                errors.append("problem.quadrature: must be an object")
                quad_in = {}
            prob["quadrature"] = _apply_schema(quad_in, _QUAD_SCHEMA,
                                               "problem.quadrature.", errors)
            t_min, t_max = prob["quadrature"]["t_min"], prob["quadrature"]["t_max"]
            if _is_number(t_min) and _is_number(t_max) and t_max <= t_min:
                errors.append("problem.quadrature.t_max: must exceed t_min")
        if kind == "barrier-check" and not errors:
            errors += _barrier_errors(top["setup"]["s"], prob)
        top["problem"] = prob
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
    if kind == "barrier-check" and (s or 0.5) > 0.5:
        raw["problem"] = {"case": 2}
    return raw


def default_config(kind, s=None) -> ExperimentConfig:
    """Built-in config for an experiment kind."""
    return validate(default_raw(kind, s))
