"""Configuration of the full placement flow.

``PlacerConfig()`` is CPU-sized (small grid/network, few episodes) so a
full run finishes in seconds; :meth:`PlacerConfig.paper` reconstructs the
paper's settings (ζ=16, 128-channel 10-block tower, ν=0.001 clustering,
c=1.05 PUCT, 50 calibration episodes, updates every 30 episodes) at the
cost of hours of single-core runtime.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace

from repro.agent.network import NetworkConfig
from repro.coarsen.scores import GammaParams, PhiParams
from repro.mcts.search import MCTSConfig


#: the preset names :meth:`PlacerConfig.preset` resolves
PRESETS = ("benchmark", "fast", "paper")


@dataclass(frozen=True)
class PlacerConfig:
    """All knobs of :class:`repro.core.flow.MCTSGuidedPlacer`."""

    # Preprocessing (Sec. II-A)
    zeta: int = 8
    gamma_params: GammaParams = field(default_factory=GammaParams)
    phi_params: PhiParams = field(default_factory=PhiParams)
    prototype_iterations: int = 3

    # RL pre-training (Sec. III)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    episodes: int = 120
    update_every: int = 30
    calibration_episodes: int = 20
    alpha: float = 0.75
    learning_rate: float = 1e-3
    #: entropy bonus and per-update epochs: 0/1 match the paper's plain A2C;
    #: the CPU-budget benchmark preset turns both up for sample efficiency.
    entropy_coef: float = 0.0
    epochs_per_update: int = 1
    checkpoint_every: int | None = None

    # MCTS (Sec. IV)
    mcts: MCTSConfig = field(default_factory=MCTSConfig)
    #: two-tier terminal evaluation: admit only candidates ranking in the
    #: search's running top-K by surrogate HPWL to the exact
    #: legalize-and-place pipeline (``repro.surrogate``).  ``None`` keeps
    #: every terminal exact — bit-for-bit today's search.  Set here it is
    #: mirrored into ``mcts.exact_topk``; a finite K changes which leaves
    #: get exact values, so it IS part of the run-dir config fingerprint.
    exact_topk: int | None = None

    # Fault-tolerant runtime (repro.runtime): stage checkpoint/resume,
    # wall-clock budgets, and guard tolerances.
    #: directory for the run manifest, stage artifacts, and the event log
    #: (None disables persistence; ``place(..., run_dir=...)`` overrides)
    run_dir: str | None = None
    #: skip stages the run dir already completed and restore their artifacts
    resume: bool = False
    #: wall-clock budget of RL pre-training — training ends early with the
    #: anytime best-so-far history (None = unlimited)
    rl_budget_seconds: float | None = None
    #: wall-clock budget of the MCTS stage — remaining groups are committed
    #: by visit count / policy prior when it runs out (None = unlimited)
    mcts_budget_seconds: float | None = None
    #: default budget for every other stage; exceeding it raises
    #: :class:`repro.runtime.errors.StageTimeoutError` at the next safe point
    stage_budget_seconds: float | None = None
    #: consecutive non-finite updates tolerated (each rolls parameters back)
    #: before RL training raises ``TrainingDivergedError``
    max_divergence_rollbacks: int = 8
    #: total failed episodes tolerated before RL training gives up
    max_episode_failures: int = 8

    # Terminal evaluation (Sec. II-B/II-C)
    cell_place_iterations: int = 3
    #: explicit path for the cross-run terminal cache JSONL, overriding the
    #: per-run-dir default.  The placement service points every job at one
    #: shared file so terminal HPWL results amortize across its jobs and
    #: attempt workers (entries are fingerprint-keyed, so unrelated
    #: designs coexist).  An
    #: execution knob, not a result knob — excluded from the run-dir
    #: config fingerprint.
    terminal_cache_path: str | None = None
    #: run the row-based cell legalizer after the final cell placement and
    #: report the legalized HPWL as well (an extension beyond the paper,
    #: which measures the analytical cell placement directly).
    legalize_cells: bool = False
    #: re-check the final placement with the independent verifier
    #: (``repro.verify``): macro overlaps, bounds, grid capacity, HPWL
    #: recomputed through a separate code path.  A failure raises
    #: :class:`repro.runtime.errors.VerificationError`.  Verification
    #: observes the result without changing it, so — like the execution
    #: knobs above — it is excluded from the run-dir config fingerprint.
    verify_results: bool = False

    seed: int = 0

    def __post_init__(self) -> None:
        if self.network.zeta != self.zeta:
            object.__setattr__(self, "network", replace(self.network, zeta=self.zeta))
        if (
            self.exact_topk is not None
            and self.mcts.exact_topk != self.exact_topk
        ):
            object.__setattr__(
                self, "mcts", replace(self.mcts, exact_topk=self.exact_topk)
            )

    @classmethod
    def paper(cls) -> "PlacerConfig":
        """The paper's published settings (Table I, Sec. II/III/IV text)."""
        return cls(
            zeta=16,
            network=NetworkConfig.paper(),
            episodes=3000,
            update_every=30,
            calibration_episodes=50,
            alpha=0.75,  # paper: α ∈ [0.5, 1]
            mcts=MCTSConfig(c_puct=1.05, explorations=400),
            cell_place_iterations=5,
        )

    @classmethod
    def benchmark(cls, seed: int = 0) -> "PlacerConfig":
        """The CPU-budget preset used by the benchmark harness.

        Tuned so a suite circuit finishes in ~1–2 minutes on one core while
        preserving the paper's qualitative results (MCTS ≥ RL, ours
        competitive with the analytical baselines).
        """
        return cls(
            zeta=8,
            network=NetworkConfig(zeta=8, channels=16, res_blocks=2, seed=seed),
            episodes=600,
            update_every=10,
            calibration_episodes=20,
            learning_rate=2e-3,
            entropy_coef=0.01,
            epochs_per_update=3,
            mcts=MCTSConfig(c_puct=1.05, explorations=300, seed=seed),
            cell_place_iterations=2,
            seed=seed,
        )

    @classmethod
    def preset(cls, name: str, seed: int = 0) -> "PlacerConfig":
        """The preset *name* (one of :data:`PRESETS`) at *seed*.

        ``paper`` takes *seed* as the flow seed only; its network and
        MCTS keep their default seeds.  An unknown name raises
        :class:`~repro.runtime.errors.UsageError`.
        """
        if name not in PRESETS:
            from repro.runtime.errors import UsageError

            raise UsageError(
                f"unknown preset {name!r}; choose from {sorted(PRESETS)}",
                preset=name,
            )
        if name == "paper":
            return replace(cls.paper(), seed=seed)
        return getattr(cls, name)(seed=seed)

    def override(self, knob: str, value) -> "PlacerConfig":
        """One dotted-path override; see :func:`apply_overrides`."""
        return apply_overrides(self, {knob: value})

    @classmethod
    def fast(cls, seed: int = 0) -> "PlacerConfig":
        """Smallest sensible configuration (unit tests, CI)."""
        return cls(
            zeta=8,
            network=NetworkConfig(zeta=8, channels=8, res_blocks=1, seed=seed),
            episodes=20,
            update_every=10,
            calibration_episodes=5,
            mcts=MCTSConfig(explorations=8, seed=seed),
            cell_place_iterations=2,
            prototype_iterations=2,
            seed=seed,
        )


#: knobs that must stay under the caller's (job spec / service) control —
#: overriding them through the generic path would desynchronize the
#: service's run-dir and cache management from the config it thinks it is
#: running.
_RESERVED_KNOBS = frozenset({"run_dir", "resume", "terminal_cache_path"})


def _coerce(current, value, path: str):
    """Nudge a JSON-decoded *value* toward the type *current* holds.

    JSON has no int/float or list/tuple distinction, so a sweep spec
    saying ``"episodes": [100.0, 200.0]`` or ``"seeds": [0, 1]`` must not
    fail on a spurious type mismatch.  Only safe, lossless conversions
    are applied; anything else is returned unchanged (``replace`` — and
    eventually the flow — surfaces genuinely wrong values).
    """
    if isinstance(current, bool) or isinstance(value, bool):
        return value
    if isinstance(current, int) and isinstance(value, float):
        if value.is_integer():
            return int(value)
        from repro.runtime.errors import UsageError

        raise UsageError(
            f"config knob {path!r} holds an int; got {value!r}",
            knob=path,
            value=value,
        )
    if isinstance(current, float) and isinstance(value, int):
        return float(value)
    if isinstance(current, tuple) and isinstance(value, list):
        return tuple(value)
    return value


def _apply_one(obj, parts: list[str], value, path: str):
    from repro.runtime.errors import UsageError

    head, rest = parts[0], parts[1:]
    if not dataclasses.is_dataclass(obj):
        raise UsageError(
            f"config knob {path!r}: {head!r} is not a config section",
            knob=path,
        )
    names = {f.name for f in dataclasses.fields(obj)}
    if head not in names:
        raise UsageError(
            f"unknown config knob {path!r} ({head!r} is not a field of "
            f"{type(obj).__name__}; choose from {sorted(names)})",
            knob=path,
        )
    current = getattr(obj, head)
    if rest:
        return replace(obj, **{head: _apply_one(current, rest, value, path)})
    return replace(obj, **{head: _coerce(current, value, path)})


def apply_overrides(config: PlacerConfig, overrides) -> PlacerConfig:
    """Apply dotted-path knob overrides to a :class:`PlacerConfig`.

    *overrides* maps dotted paths to values (a mapping, or an iterable of
    ``(path, value)`` pairs): ``"zeta"`` hits a top-level knob,
    ``"mcts.c_puct"`` / ``"network.channels"`` / ``"gamma_params.k1"``
    reach into the nested config dataclasses.  Every application goes
    through ``dataclasses.replace``, so ``__post_init__`` invariants
    (network ζ sync, ``exact_topk`` mirroring) re-run on each step.
    Unknown paths raise :class:`~repro.runtime.errors.UsageError` —
    a sweep spec with a typo fails at expansion, not after hours of
    placement.  This is the single override path shared by the study
    engine, ``JobSpec.overrides``, and ``repro submit --set``.
    """
    from repro.runtime.errors import UsageError

    items = overrides.items() if hasattr(overrides, "items") else overrides
    for path, value in items:
        parts = [p for p in str(path).split(".") if p]
        if not parts:
            raise UsageError("empty config knob path", knob=path)
        if parts[0] in _RESERVED_KNOBS:
            raise UsageError(
                f"config knob {path!r} is reserved (execution knobs are "
                "set by the job spec / service, not by overrides)",
                knob=path,
            )
        config = _apply_one(config, parts, value, str(path))
    return config
