"""Declarative sweep specs and their expansion into study points.

A *study spec* describes a design-space exploration declaratively: a
design source (suite circuit or Bookshelf ``.aux``), a config preset, a
seed list, and a set of *axes* — each axis naming one dotted-path
:class:`~repro.core.config.PlacerConfig` knob and the values to sweep it
over (an explicit list, or a linear/log grid).  :meth:`StudySpec.expand`
takes the cartesian product of the axes (seeds innermost), filters it
through optional constraints, and yields deterministic, content-addressed
:class:`StudyPoint`\\ s — the same spec always expands to the same points
in the same order, with the same ids, which is what makes a killed study
resumable without resubmitting anything.

Specs load from JSON or TOML (``tomllib``; no third-party dependency)::

    {
      "name": "zeta-gamma",
      "circuit": "ibm01", "scale": 0.004, "macro_scale": 0.04,
      "preset": "fast",
      "seeds": [0, 1],
      "axes": [
        {"knob": "zeta", "values": [0.6, 0.9]},
        {"knob": "gamma_params", "values": [[3.0, 0.25], [4.0, 0.25]]}
      ],
      "constraints": [
        {"exclude": {"zeta": 0.6, "gamma_params": [4.0, 0.25]}}
      ]
    }

Every knob value is validated at parse time by probing it through
:func:`repro.core.config.apply_overrides` — an unknown knob, a reserved
execution knob, or a type-invalid value fails fast with the full field
list, before anything is submitted.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field, replace

from repro.runtime.errors import UsageError

#: expansion safety cap: a spec whose raw product exceeds this is almost
#: certainly a typo'd grid, not a study anyone will wait for
MAX_POINTS = 4096

#: knobs that must be swept via ``seeds``, not an axis (the expansion
#: puts seeds innermost and tags points with them explicitly)
_SEED_KNOBS = frozenset({"seed", "seeds"})


def _grid_values(grid: dict, knob: str) -> tuple:
    """Expand a ``{"start", "stop", "count", ...}`` grid description."""
    try:
        start = float(grid["start"])
        stop = float(grid["stop"])
        count = int(grid["count"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(
            f"axis {knob!r}: grid needs numeric 'start'/'stop' and "
            "integer 'count'",
            grid=grid,
        ) from exc
    if count < 1:
        raise UsageError(f"axis {knob!r}: grid count must be >= 1", grid=grid)
    spacing = grid.get("spacing", "linear")
    if spacing not in ("linear", "log"):
        raise UsageError(
            f"axis {knob!r}: spacing must be 'linear' or 'log'", grid=grid
        )
    if spacing == "log" and (start <= 0 or stop <= 0):
        raise UsageError(
            f"axis {knob!r}: log spacing needs positive endpoints", grid=grid
        )
    if count == 1:
        values = [start]
    elif spacing == "linear":
        step = (stop - start) / (count - 1)
        values = [start + i * step for i in range(count)]
        values[-1] = stop  # exact endpoint, no float drift
    else:
        import math

        lo, hi = math.log(start), math.log(stop)
        step = (hi - lo) / (count - 1)
        values = [math.exp(lo + i * step) for i in range(count)]
        values[0], values[-1] = start, stop
    digits = grid.get("round")
    if digits is not None:
        values = [round(v, int(digits)) for v in values]
    if grid.get("dtype") == "int":
        values = [int(round(v)) for v in values]
    return tuple(values)


@dataclass(frozen=True)
class SweepAxis:
    """One swept knob and its value list (grids are resolved at parse)."""

    knob: str
    values: tuple

    @classmethod
    def from_json(cls, payload: dict) -> "SweepAxis":
        if not isinstance(payload, dict) or not payload.get("knob"):
            raise UsageError("each axis needs a 'knob' name", axis=payload)
        knob = str(payload["knob"])
        if knob in _SEED_KNOBS:
            raise UsageError(
                "sweep seeds via the top-level 'seeds' list, not an axis",
                axis=payload,
            )
        has_values = "values" in payload
        has_grid = "grid" in payload
        if has_values == has_grid:
            raise UsageError(
                f"axis {knob!r} needs exactly one of 'values' or 'grid'",
                axis=payload,
            )
        if has_values:
            raw = payload["values"]
            if not isinstance(raw, (list, tuple)) or not raw:
                raise UsageError(
                    f"axis {knob!r}: 'values' must be a non-empty list",
                    axis=payload,
                )
            values = tuple(
                tuple(v) if isinstance(v, list) else v for v in raw
            )
        else:
            values = _grid_values(payload["grid"], knob)
        return cls(knob=knob, values=values)

    def to_json(self) -> dict:
        return {
            "knob": self.knob,
            "values": [
                list(v) if isinstance(v, tuple) else v for v in self.values
            ],
        }


# -- constraints -------------------------------------------------------------
_OPS = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "in": lambda a, b: a in b,
}


def _normalize(value):
    return tuple(value) if isinstance(value, list) else value


def _conds_match(conds: dict, assignment: dict) -> bool:
    """Does *assignment* (knob -> value) satisfy every condition?

    A condition value is either a scalar (equality) or an operator dict
    like ``{"le": 2.5}`` / ``{"in": [0.5, 1.05]}``.
    """
    for knob, cond in conds.items():
        if knob not in assignment:
            raise UsageError(
                f"constraint references {knob!r}, which is not a swept axis",
                constraint=conds,
            )
        actual = _normalize(assignment[knob])
        if isinstance(cond, dict):
            for op, operand in cond.items():
                fn = _OPS.get(op)
                if fn is None:
                    raise UsageError(
                        f"unknown constraint operator {op!r}; choose from "
                        f"{sorted(_OPS)}",
                        constraint=conds,
                    )
                operand = _normalize(operand)
                if op == "in":
                    operand = tuple(_normalize(v) for v in operand)
                if not fn(actual, operand):
                    return False
        elif actual != _normalize(cond):
            return False
    return True


def _passes_constraints(constraints: tuple, assignment: dict) -> bool:
    for constraint in constraints:
        if "exclude" in constraint and _conds_match(
            constraint["exclude"], assignment
        ):
            return False
        if "require" in constraint and not _conds_match(
            constraint["require"], assignment
        ):
            return False
    return True


# -- points ------------------------------------------------------------------
@dataclass(frozen=True)
class StudyPoint:
    """One expanded sweep point: a knob assignment plus a seed.

    ``point_id`` is a content hash of the point's full job identity
    (design source, preset, seed, overrides, budget), so the
    derived job id is deterministic: resubmitting the same point is
    idempotent at the service inbox, which is the whole crash-safety
    story of ``repro study run``.
    """

    index: int
    point_id: str
    seed: int
    #: ``(knob, value)`` pairs in axis order
    values: tuple

    def assignment(self) -> dict:
        return dict(self.values)

    @property
    def job_id(self) -> str:
        return f"study-{self.point_id}"

    def to_job_spec(self, spec: "StudySpec"):
        from repro.service.jobs import JobSpec

        return JobSpec(
            circuit=spec.circuit,
            aux=spec.aux,
            scale=spec.scale,
            macro_scale=spec.macro_scale,
            preset=spec.preset,
            seed=self.seed,
            budget_seconds=spec.budget_seconds,
            overrides=self.values or None,
        )

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "point_id": self.point_id,
            "seed": self.seed,
            "values": [[k, list(v) if isinstance(v, tuple) else v]
                       for k, v in self.values],
        }


# -- the spec ----------------------------------------------------------------
@dataclass(frozen=True)
class StudySpec:
    """A declarative design-space-exploration study."""

    name: str
    circuit: str | None = None
    aux: str | None = None
    scale: float = 0.01
    macro_scale: float = 0.08
    preset: str = "fast"
    seeds: tuple = (0,)
    axes: tuple = ()
    constraints: tuple = ()
    priority: int = 0
    budget_seconds: float | None = None
    max_points: int = field(default=MAX_POINTS)

    # -- parsing --------------------------------------------------------------
    @classmethod
    def from_json(cls, payload: dict) -> "StudySpec":
        if not isinstance(payload, dict):
            raise UsageError("study spec must be a JSON/TOML table")
        # a retired execution knob that older spec.json files carry; its
        # value never changed a result, so it is dropped, not rejected
        payload = {k: v for k, v in payload.items() if k != "terminal_workers"}
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise UsageError(
                f"unknown study spec keys {sorted(unknown)}",
                known=sorted(cls.__dataclass_fields__),
            )
        axes = tuple(
            SweepAxis.from_json(axis) for axis in payload.get("axes", ())
        )
        seeds = payload.get("seeds", [0])
        if not isinstance(seeds, (list, tuple)) or not seeds:
            raise UsageError("'seeds' must be a non-empty list of integers")
        constraints = payload.get("constraints", ())
        known = {
            k: payload[k]
            for k in cls.__dataclass_fields__
            if k in payload and k not in ("axes", "seeds", "constraints")
        }
        spec = cls(
            axes=axes,
            seeds=tuple(int(s) for s in seeds),
            constraints=tuple(constraints),
            **known,
        )
        spec.validate()
        return spec

    @classmethod
    def from_file(cls, path: str) -> "StudySpec":
        """Load a spec from a ``.json`` or ``.toml`` file."""
        if not os.path.exists(path):
            raise UsageError(f"study spec not found: {path}")
        if path.endswith(".toml"):
            import tomllib

            with open(path, "rb") as f:
                try:
                    payload = tomllib.load(f)
                except tomllib.TOMLDecodeError as exc:
                    raise UsageError(
                        f"study spec is not valid TOML: {exc}", path=path
                    ) from exc
        else:
            with open(path) as f:
                try:
                    payload = json.load(f)
                except json.JSONDecodeError as exc:
                    raise UsageError(
                        f"study spec is not valid JSON: {exc}", path=path
                    ) from exc
        return cls.from_json(payload)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "circuit": self.circuit,
            "aux": self.aux,
            "scale": self.scale,
            "macro_scale": self.macro_scale,
            "preset": self.preset,
            "seeds": list(self.seeds),
            "axes": [axis.to_json() for axis in self.axes],
            "constraints": [dict(c) for c in self.constraints],
            "priority": self.priority,
            "budget_seconds": self.budget_seconds,
            "max_points": self.max_points,
        }

    def fingerprint(self) -> str:
        """Content hash guarding a study dir against spec drift."""
        text = json.dumps(self.to_json(), sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    # -- validation -----------------------------------------------------------
    def validate(self) -> None:
        from repro.core.config import PlacerConfig, apply_overrides
        from repro.service.jobs import JobSpec

        if not self.name:
            raise UsageError("study spec needs a 'name'")
        # Reuse the job spec's own validation for design/preset fields.
        JobSpec(
            circuit=self.circuit, aux=self.aux, preset=self.preset
        ).validate()
        knobs = [axis.knob for axis in self.axes]
        if len(set(knobs)) != len(knobs):
            raise UsageError(f"duplicate axis knobs in {knobs}")
        raw = len(self.seeds)
        for axis in self.axes:
            raw *= len(axis.values)
        if raw > self.max_points:
            raise UsageError(
                f"spec expands to {raw} raw points, over the "
                f"{self.max_points}-point cap",
                axes={a.knob: len(a.values) for a in self.axes},
                seeds=len(self.seeds),
            )
        # Probe every axis value through the real override machinery so a
        # bad knob/value fails at parse time, not mid-study.
        base = PlacerConfig.preset(self.preset)
        for axis in self.axes:
            for value in axis.values:
                apply_overrides(base, {axis.knob: value})
        for constraint in self.constraints:
            if not isinstance(constraint, dict) or not (
                set(constraint) <= {"exclude", "require"} and constraint
            ):
                raise UsageError(
                    "each constraint is {'exclude': {...}} or "
                    "{'require': {...}}",
                    constraint=constraint,
                )

    # -- expansion ------------------------------------------------------------
    def expand(self) -> tuple[StudyPoint, ...]:
        """The deterministic point list: axis product, seeds innermost,
        constraints applied, indexed after filtering."""
        self.validate()
        points: list[StudyPoint] = []
        seen: set[str] = set()
        value_lists = [axis.values for axis in self.axes]
        for combo in itertools.product(*value_lists):
            assignment = {
                axis.knob: value for axis, value in zip(self.axes, combo)
            }
            if not _passes_constraints(self.constraints, assignment):
                continue
            values = tuple(zip([a.knob for a in self.axes], combo))
            for seed in self.seeds:
                point = StudyPoint(
                    index=len(points),
                    point_id=_point_id(self, seed, values),
                    seed=seed,
                    values=values,
                )
                if point.point_id in seen:
                    continue  # duplicate axis values collapse to one job
                seen.add(point.point_id)
                points.append(point)
        if not points:
            raise UsageError(
                "constraints filtered out every point", name=self.name
            )
        return tuple(points)


def _point_id(spec: StudySpec, seed: int, values: tuple) -> str:
    """Hash of the point's *job identity* — everything that decides what
    the job computes — so identical points across studies (or across a
    re-created study dir) share one job id and dedupe at the inbox."""
    payload = {
        "circuit": spec.circuit,
        "aux": spec.aux,
        "scale": spec.scale,
        "macro_scale": spec.macro_scale,
        "preset": spec.preset,
        # a retired execution knob, kept at its only value so point ids
        # (study journal keys and service job ids) stay what they were
        "terminal_workers": 1,
        "budget_seconds": spec.budget_seconds,
        "seed": seed,
        "values": [[k, list(v) if isinstance(v, tuple) else v]
                   for k, v in values],
    }
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:12]
