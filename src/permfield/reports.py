"""Experiment configuration and reproducible report objects.

Reports are deterministic functions of (config, seed): serialization is
canonical (sorted keys, repr floats, no timestamps), so re-running an
experiment with the same config yields byte-identical JSON and CSV. The
thread count is deliberately excluded from the echoed config because it
only affects scheduling, never results.
"""

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigError

__all__ = ["ExperimentConfig", "ExperimentReport", "VERSION"]

VERSION = "0.1.0"


@dataclass
class ExperimentConfig:
    """Knobs shared by the experiment harness; unknown keys are rejected."""

    name: str = ""
    n_values: tuple = (1000000,)
    replicas: int = 20
    seed: int = 0
    mesh_factor: int = 2
    theta_num: int = 1
    theta_den: int = 7
    xi0: int = 5
    kappa: float = 0.0  # 0 -> derived as N^{-alpha} where a width is needed
    alpha: float = 0.3
    rho: float = 0.05
    m: int = 185
    n_blocks: int = 32
    q: int = 32
    y: float = 0.0  # 0 -> experiment-specific default (x_crit or calibrated)
    t: str = ""  # torus point spec: "golden", "sqrt2", "p/q", or a decimal
    kind: str = "real"
    samples: int = 1000000
    threads: int = 0  # 0 -> PERMFIELD_THREADS or cpu count; not echoed

    # per field type: the exact types (so no bool) a value may take, and their name
    _TAKES = {int: ((int,), "an int"), float: ((int, float), "a number"),
              str: ((str,), "a string"), tuple: ((list, tuple), "a list of ints")}

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            types, kind = self._TAKES[f.type]
            if type(value) not in types or (
                    f.type is tuple and any(type(v) is not int for v in value)):
                raise ConfigError(f"config key {f.name!r} = {value!r}: expected {kind}")
        self.n_values = tuple(self.n_values)
        if self.replicas < 1:
            raise ConfigError("replicas must be >= 1")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if not self.n_values:
            raise ConfigError("n_values must not be empty")
        if list(self.n_values) != sorted(self.n_values):
            raise ConfigError("n_values must be sorted ascending")
        if self.kind not in ("real", "imag"):
            raise ConfigError(f"kind must be real|imag, got {self.kind}")

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def echo(self):
        d = asdict(self)
        d.pop("threads")  # scheduling only; keeps reports thread-count invariant
        d["n_values"] = list(self.n_values)
        return d


def _sanitize(obj):
    """JSON-safe copy: non-finite floats become their repr strings."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


@dataclass
class ExperimentReport:
    """Config echo, per-cell statistics, raw rows, verdicts, plot series."""

    name: str
    seed: int
    config: dict
    cells: list = field(default_factory=list)
    columns: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    series: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    version: str = VERSION

    def add_verdict(self, name, passed, detail="", warning=False):
        self.verdicts.append(
            {"name": name, "passed": bool(passed), "warning": bool(warning),
             "detail": detail}
        )

    @property
    def passed(self):
        return all(v["passed"] or v["warning"] for v in self.verdicts)

    def to_json_dict(self):
        return _sanitize(
            {
                "name": self.name,
                "seed": self.seed,
                "version": self.version,
                "config": self.config,
                "cells": self.cells,
                "verdicts": self.verdicts,
                "series": self.series,
                "notes": self.notes,
                "columns": self.columns,
                "row_count": len(self.rows),
            }
        )

    def json_bytes(self):
        return (
            json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
            + "\n"
        ).encode("utf-8")

    def csv_text(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)  # a float is written as its repr
        return buf.getvalue()

    def write(self, outdir):
        """Write <name>-<seed>.json and .csv into outdir; returns the paths."""
        import os

        os.makedirs(outdir, exist_ok=True)
        base = os.path.join(outdir, f"{self.name}-{self.seed}")
        json_path, csv_path = base + ".json", base + ".csv"
        with open(json_path, "wb") as fh:
            fh.write(self.json_bytes())
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(self.csv_text())
        return json_path, csv_path
