"""Study engine: spec expansion, warm-aware DAG orchestration, reports.

The orchestration tests drive :meth:`Study.step` cycles against a *fake
daemon* — a plain :class:`JobStore` over the real service directory
whose admission and terminal transitions the test scripts by hand — so
every scheduling decision (leader/follower release, quarantine
promotion, kill-and-resume idempotence) is exercised deterministically
without running a single placement flow.
"""

from __future__ import annotations

import copy
import json
import os

import pytest

from repro.core.config import PlacerConfig, apply_overrides
from repro.netlist.bookshelf import write_design
from repro.netlist.generator import generate_design
from repro.runtime import config_fingerprint, pretraining_fingerprint
from repro.runtime.errors import UsageError
from repro.service.jobs import (
    DONE,
    QUARANTINED,
    JobSpec,
    JobStore,
    ServicePaths,
    write_json_atomic,
)
from repro.study import (
    Study,
    StudySpec,
    axis_sensitivity,
    build_report,
    pareto_front,
    render_report,
    save_report,
)
from repro.study.engine import PENDING, SUBMITTED
from repro.utils.events import read_jsonl
from tests.conftest import _SMALL_SPEC


@pytest.fixture(scope="module")
def aux_path(tmp_path_factory) -> str:
    design = generate_design(copy.deepcopy(_SMALL_SPEC))
    return write_design(design, str(tmp_path_factory.mktemp("aux")))


def _spec_payload(aux: str, **extra) -> dict:
    payload = {
        "name": "t",
        "aux": aux,
        "preset": "fast",
        "seeds": [5],
        "axes": [{"knob": "mcts.c_puct", "values": [0.5, 1.05, 2.5]}],
    }
    payload.update(extra)
    return payload


# ---------------------------------------------------------------------------
# spec expansion
# ---------------------------------------------------------------------------


class TestSpecExpansion:
    def test_grid_times_list_times_seeds(self, aux_path):
        spec = StudySpec.from_json(_spec_payload(
            aux_path,
            seeds=[0, 1],
            axes=[
                {"knob": "mcts.c_puct", "values": [0.5, 2.5]},
                {"knob": "zeta",
                 "grid": {"start": 6, "stop": 10, "count": 3, "dtype": "int"}},
            ],
        ))
        points = spec.expand()
        assert len(points) == 2 * 3 * 2
        zetas = {dict(p.values)["zeta"] for p in points}
        assert zetas == {6, 8, 10}

    def test_log_grid_endpoints_exact(self, aux_path):
        spec = StudySpec.from_json(_spec_payload(
            aux_path,
            axes=[{"knob": "learning_rate",
                   "grid": {"start": 1e-4, "stop": 1e-2, "count": 3,
                            "spacing": "log"}}],
        ))
        values = [dict(p.values)["learning_rate"] for p in spec.expand()]
        assert values[0] == 1e-4 and values[-1] == 1e-2
        assert values[1] == pytest.approx(1e-3)

    def test_deterministic_ordering_and_ids(self, aux_path):
        spec = StudySpec.from_json(_spec_payload(aux_path, seeds=[0, 1]))
        a, b = spec.expand(), spec.expand()
        assert [p.point_id for p in a] == [p.point_id for p in b]
        assert [p.index for p in a] == list(range(len(a)))
        # seeds innermost: consecutive points share knob values
        assert a[0].values == a[1].values and a[0].seed != a[1].seed

    def test_constraints_exclude_require_and_ops(self, aux_path):
        spec = StudySpec.from_json(_spec_payload(
            aux_path,
            axes=[
                {"knob": "mcts.c_puct", "values": [0.5, 1.05, 2.5]},
                {"knob": "zeta", "values": [6, 8]},
            ],
            constraints=[
                {"exclude": {"mcts.c_puct": 2.5, "zeta": 6}},
                {"require": {"mcts.c_puct": {"le": 2.5}}},
            ],
        ))
        assignments = [dict(p.values) for p in spec.expand()]
        assert len(assignments) == 5  # 6 raw - 1 excluded combo
        assert {"mcts.c_puct": 2.5, "zeta": 6} not in assignments

    def test_constraint_filtering_everything_errors(self, aux_path):
        spec = StudySpec.from_json(_spec_payload(
            aux_path,
            constraints=[{"require": {"mcts.c_puct": {"gt": 100.0}}}],
        ))
        with pytest.raises(UsageError):
            spec.expand()

    def test_unknown_knob_rejected_at_parse(self, aux_path):
        with pytest.raises(UsageError):
            StudySpec.from_json(_spec_payload(
                aux_path, axes=[{"knob": "mcts.nope", "values": [1]}]
            ))

    def test_seed_axis_rejected(self, aux_path):
        with pytest.raises(UsageError):
            StudySpec.from_json(_spec_payload(
                aux_path, axes=[{"knob": "seed", "values": [1, 2]}]
            ))

    def test_expansion_cap(self, aux_path):
        with pytest.raises(UsageError):
            StudySpec.from_json(_spec_payload(
                aux_path,
                max_points=4,
                axes=[{"knob": "zeta", "values": [4, 6, 8, 10, 12]}],
            ))

    def test_toml_round_trip(self, aux_path, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(
            f'name = "toml-study"\naux = "{aux_path}"\npreset = "fast"\n'
            'seeds = [5]\n'
            '[[axes]]\nknob = "mcts.c_puct"\nvalues = [0.5, 2.5]\n'
        )
        spec = StudySpec.from_file(str(path))
        json_spec = StudySpec.from_json(spec.to_json())
        assert json_spec.fingerprint() == spec.fingerprint()
        assert len(spec.expand()) == 2

    def test_points_get_distinct_config_but_shared_pretrain_fp(
        self, aux_path
    ):
        spec = StudySpec.from_json(_spec_payload(aux_path))
        configs = [
            p.to_job_spec(spec).build_config() for p in spec.expand()
        ]
        assert len({config_fingerprint(c) for c in configs}) == 3
        assert len({pretraining_fingerprint(c) for c in configs}) == 1

    def test_pretrain_knob_sweep_splits_groups(self, aux_path):
        spec = StudySpec.from_json(_spec_payload(
            aux_path, axes=[{"knob": "zeta", "values": [6, 8]}]
        ))
        configs = [
            p.to_job_spec(spec).build_config() for p in spec.expand()
        ]
        assert len({pretraining_fingerprint(c) for c in configs}) == 2


class TestStudyDirCompatibility:
    #: a spec.json in the older format, which carries a retired knob
    SPEC_JSON = {
        "aux": None,
        "axes": [{"knob": "mcts.c_puct", "values": [1.05, 2.5]}],
        "budget_seconds": None,
        "circuit": "ibm01",
        "constraints": [],
        "macro_scale": 0.04,
        "max_points": 4096,
        "name": "parent-format",
        "preset": "fast",
        "priority": 0,
        "scale": 0.004,
        "seeds": [0, 1],
        "terminal_workers": 1,
    }
    #: the point ids that spec.json expanded to back then: the study
    #: journal keys, and (as ``study-<id>``) the service job ids
    POINT_IDS = ["7e7fe74b4a1d", "322dee28c0d0", "ecfe6da695e1", "0dd4946ada67"]

    def test_older_spec_json_loads_with_the_same_point_ids(self, tmp_path):
        root = tmp_path / "study"
        root.mkdir()
        (root / "spec.json").write_text(json.dumps(self.SPEC_JSON))
        study = Study.load(str(root))
        assert [p.point_id for p in study.points] == self.POINT_IDS
        # a re-run with the same spec passes the drift check
        again = Study.create(str(root), StudySpec.from_json(self.SPEC_JSON))
        assert [p.point_id for p in again.points] == self.POINT_IDS
        # only that one retired key is forgiven
        with pytest.raises(UsageError, match="unknown study spec keys"):
            StudySpec.from_json(dict(self.SPEC_JSON, workers=2))


# ---------------------------------------------------------------------------
# orchestration against a scripted fake daemon
# ---------------------------------------------------------------------------


class FakeDaemon:
    """Admits inbox submissions into the real journal and finishes them
    only when the test says so — the minimal stand-in for the service."""

    def __init__(self, service_dir: str):
        self.paths = ServicePaths(service_dir).ensure()
        self.store = JobStore(self.paths.journal).load()

    def admit(self) -> list[str]:
        admitted = []
        for name in sorted(os.listdir(self.paths.inbox)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.paths.inbox, name)
            with open(path) as f:
                payload = json.load(f)
            job_id = payload["id"]
            if self.store.get(job_id) is None:
                self.store.add(
                    JobSpec.from_json(payload["spec"]), job_id=job_id
                )
                admitted.append(job_id)
            os.remove(path)
        return admitted

    def finish(self, job_id: str, state: str = DONE, hpwl: float = 100.0,
               warm: bool = False, seconds: float = 1.0) -> None:
        self.store.transition(
            job_id, state, hpwl=hpwl, warm_hit=warm, seconds=seconds
        )
        write_json_atomic(self.paths.result_file(job_id), {
            "id": job_id, "state": state, "hpwl": hpwl,
            "warm_hit": warm, "seconds": seconds,
            "error": (None if state == DONE
                      else {"kind": "Fault", "message": "injected"}),
        })
        run_dir = self.paths.run_dir(job_id)
        os.makedirs(run_dir, exist_ok=True)
        write_json_atomic(os.path.join(run_dir, "manifest.json"), {
            "stages": {"rl_training": {"completed": True, "warm": warm}},
        })


def _states(study: Study) -> dict[str, str]:
    return {
        pid: rec["state"] for pid, rec in study.journal_states().items()
    }


class TestOrchestration:
    def _study(self, aux_path, tmp_path, **extra) -> Study:
        spec = StudySpec.from_json(_spec_payload(aux_path, **extra))
        return Study.create(str(tmp_path / "study"), spec)

    def test_leader_submitted_first_then_followers(self, aux_path, tmp_path):
        study = self._study(aux_path, tmp_path)
        svc = str(tmp_path / "svc")
        daemon = FakeDaemon(svc)
        study.step(svc)
        leaders = daemon.admit()
        assert len(leaders) == 1  # one fingerprint group -> one cold leader
        study.step(svc)
        assert daemon.admit() == []  # leader in flight: followers held
        daemon.finish(leaders[0], hpwl=90.0)
        study.step(svc)
        followers = daemon.admit()
        assert len(followers) == 2  # warm artifacts ready: all released
        for job_id in followers:
            daemon.finish(job_id, hpwl=95.0, warm=True)
        status = study.run(svc, poll=0.0, max_seconds=0.0)
        assert status["complete"] and status["counts"][DONE] == 3

    def test_kill_and_resume_never_resubmits(self, aux_path, tmp_path):
        study = self._study(aux_path, tmp_path)
        svc = str(tmp_path / "svc")
        daemon = FakeDaemon(svc)
        study.step(svc)
        (leader,) = daemon.admit()
        daemon.finish(leader, hpwl=90.0)
        study.step(svc)  # releases + journals the two followers
        # "kill": drop every in-memory object; reload from disk only.
        study2 = Study.load(study.paths.root)
        inbox_before = sorted(os.listdir(daemon.paths.inbox))
        study2.step(svc)
        assert sorted(os.listdir(daemon.paths.inbox)) == inbox_before
        # journal has exactly one SUBMITTED record per point
        submits = [
            r["id"] for r in read_jsonl(study2.paths.journal)
            if r.get("state") == SUBMITTED
        ]
        assert sorted(submits) == sorted(set(submits))
        # the DONE leader stays DONE and was not resubmitted
        done = [
            pid for pid, st in _states(study2).items() if st == DONE
        ]
        assert len(done) == 1

    def test_crash_between_inbox_and_journal_is_repaired(
        self, aux_path, tmp_path
    ):
        study = self._study(aux_path, tmp_path)
        svc = str(tmp_path / "svc")
        daemon = FakeDaemon(svc)
        # Simulate the torn submit: inbox file landed (and was admitted)
        # but the study journal never recorded SUBMITTED.
        point = study.points[0]
        from repro.service.service import submit_job

        submit_job(svc, point.to_job_spec(study.spec),
                   job_id=point.job_id)
        daemon.admit()
        assert _states(study)[point.point_id] == PENDING
        study.step(svc)  # reconcile adopts, does not resubmit
        assert _states(study)[point.point_id] == SUBMITTED
        assert [n for n in os.listdir(daemon.paths.inbox)
                if n.endswith(".json")] == []

    def test_quarantined_leader_promotes_next_cold_leader(
        self, aux_path, tmp_path
    ):
        study = self._study(aux_path, tmp_path)
        svc = str(tmp_path / "svc")
        daemon = FakeDaemon(svc)
        study.step(svc)
        (leader,) = daemon.admit()
        daemon.finish(leader, state=QUARANTINED, hpwl=None)
        study.step(svc)
        promoted = daemon.admit()
        assert len(promoted) == 1 and promoted[0] != leader
        daemon.finish(promoted[0], hpwl=90.0)
        study.step(svc)
        last = daemon.admit()
        assert len(last) == 1
        daemon.finish(last[0], hpwl=92.0, warm=True)
        status = study.run(svc, poll=0.0, max_seconds=0.0)
        assert status["complete"]
        assert status["counts"][QUARANTINED] == 1
        assert status["counts"][DONE] == 2

    def test_spec_drift_guard(self, aux_path, tmp_path):
        study = self._study(aux_path, tmp_path)
        other = StudySpec.from_json(_spec_payload(aux_path, seeds=[7]))
        with pytest.raises(UsageError):
            Study.create(study.paths.root, other)

    def test_status_overlays_live_service_state(self, aux_path, tmp_path):
        study = self._study(aux_path, tmp_path)
        svc = str(tmp_path / "svc")
        daemon = FakeDaemon(svc)
        study.step(svc)
        (leader,) = daemon.admit()
        daemon.finish(leader, hpwl=88.0)
        # no further step(): the journal still says SUBMITTED, but the
        # live overlay sees DONE
        journal_only = study.status()
        live = study.status(service_dir=svc)
        assert journal_only["counts"][DONE] == 0
        assert live["counts"][DONE] == 1


# ---------------------------------------------------------------------------
# report math
# ---------------------------------------------------------------------------


def _row(hpwl, runtime, **values):
    return {
        "hpwl": hpwl,
        "runtime": runtime,
        "values": tuple(values.items()),
        "state": DONE,
    }


class TestReportMath:
    def test_pareto_front_drops_dominated(self):
        rows = [
            _row(100.0, 5.0),   # on front (best hpwl)
            _row(110.0, 2.0),   # on front (faster)
            _row(120.0, 3.0),   # dominated by the 110/2 row
            _row(105.0, 5.0),   # dominated by 100/5
            _row(150.0, 1.0),   # on front (fastest)
        ]
        assert pareto_front(rows) == [0, 1, 4]

    def test_pareto_ignores_missing_metrics(self):
        rows = [_row(None, 1.0), _row(100.0, None), _row(90.0, 2.0)]
        assert pareto_front(rows) == [2]

    def test_sensitivity_marginalizes_and_ranks(self, aux_path):
        spec = StudySpec.from_json(_spec_payload(
            aux_path,
            axes=[
                {"knob": "mcts.c_puct", "values": [0.5, 2.5]},
                {"knob": "zeta", "values": [6, 8]},
            ],
        ))
        rows = [
            _row(100.0, 1.0, **{"mcts.c_puct": 0.5, "zeta": 6}),
            _row(104.0, 1.0, **{"mcts.c_puct": 0.5, "zeta": 8}),
            _row(120.0, 1.0, **{"mcts.c_puct": 2.5, "zeta": 6}),
            _row(124.0, 1.0, **{"mcts.c_puct": 2.5, "zeta": 8}),
        ]
        sens = axis_sensitivity(spec.axes, rows)
        c = sens["mcts.c_puct"]
        assert c["best"] == 0.5
        assert c["spread"] == pytest.approx(20.0)
        by_value = {e["value"]: e for e in c["values"]}
        assert by_value[0.5]["mean"] == pytest.approx(102.0)
        assert by_value[0.5]["n"] == 2
        assert by_value[0.5]["low"] <= 102.0 <= by_value[0.5]["high"]
        assert sens["zeta"]["spread"] == pytest.approx(4.0)

    def test_build_report_and_records_round_trip(self, aux_path, tmp_path):
        spec = StudySpec.from_json(_spec_payload(aux_path))
        study = Study.create(str(tmp_path / "study"), spec)
        svc = str(tmp_path / "svc")
        daemon = FakeDaemon(svc)
        study.step(svc)
        (leader,) = daemon.admit()
        daemon.finish(leader, hpwl=90.0, seconds=4.0)
        study.step(svc)
        for i, job_id in enumerate(daemon.admit()):
            daemon.finish(job_id, hpwl=95.0 + i, warm=True, seconds=1.0)
        study.run(svc, poll=0.0, max_seconds=0.0)

        report = build_report(study, svc)
        assert report["complete"]
        assert report["pareto"] and report["pareto_front"]
        assert set(report["sensitivity"]) == {"mcts.c_puct"}
        assert report["sensitivity"]["mcts.c_puct"]["values"]
        assert report["one_cold_per_fingerprint"]
        (group,) = report["warm_groups"]
        assert group["cold_pretrains"] == 1 and group["warm_reuses"] == 2
        assert report["best"]["hpwl"] == 90.0
        assert report["failures"] == []
        assert "pareto front" in render_report(report)

        save_report(study, report)
        assert os.path.exists(study.paths.report)
        from repro.experiments.records import RecordStore

        store = RecordStore(study.paths.records)
        latest = store.load_latest(f"study-{spec.name}")
        assert latest is not None
        assert latest.data["spec_fingerprint"] == spec.fingerprint()
        assert latest.data["one_cold_per_fingerprint"] is True

    def test_report_flags_double_cold_pretrain(self, aux_path, tmp_path):
        spec = StudySpec.from_json(_spec_payload(aux_path))
        study = Study.create(str(tmp_path / "study"), spec)
        svc = str(tmp_path / "svc")
        daemon = FakeDaemon(svc)
        study.step(svc)
        (leader,) = daemon.admit()
        daemon.finish(leader, hpwl=90.0)
        study.step(svc)
        jobs = daemon.admit()
        daemon.finish(jobs[0], hpwl=95.0, warm=False)  # ran cold: a bug
        daemon.finish(jobs[1], hpwl=95.0, warm=True)
        study.run(svc, poll=0.0, max_seconds=0.0)
        report = build_report(study, svc)
        assert report["one_cold_per_fingerprint"] is False


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------


class TestCLI:
    def test_status_json(self, aux_path, tmp_path, capsys):
        from repro.cli import main
        from repro.service.service import submit_job

        svc = str(tmp_path / "svc")
        daemon = FakeDaemon(svc)
        job_id = submit_job(svc, JobSpec(aux=aux_path, preset="fast", seed=5))
        daemon.admit()
        daemon.finish(job_id, hpwl=77.0)
        assert main(["status", "--service-dir", svc, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"][DONE] == 1
        (job,) = doc["jobs"]
        assert job["id"] == job_id and job["hpwl"] == 77.0
        assert job["spec"]["aux"] == aux_path

    def test_submit_set_overrides(self, aux_path, tmp_path, capsys):
        from repro.cli import main

        svc = str(tmp_path / "svc")
        assert main([
            "submit", "--service-dir", svc, "--aux", aux_path,
            "--set", "mcts.c_puct=2.5", "--set", "zeta=10",
        ]) == 0
        job_id = capsys.readouterr().out.strip()
        daemon = FakeDaemon(svc)
        daemon.admit()
        config = daemon.store.get(job_id).spec.build_config()
        assert config.mcts.c_puct == 2.5 and config.zeta == 10

    def test_study_status_json(self, aux_path, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_spec_payload(aux_path)))
        study_dir = str(tmp_path / "study")
        assert main([
            "study", "status", "--study-dir", study_dir,
            "--spec", str(spec_path), "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == 3 and doc["counts"][PENDING] == 3
        assert len(doc["groups"]) == 1


class TestOverrides:
    def test_apply_overrides_rejects_reserved(self):
        with pytest.raises(UsageError):
            apply_overrides(PlacerConfig.fast(), {"run_dir": "/tmp/x"})

    def test_apply_overrides_nested_and_coerced(self):
        config = apply_overrides(
            PlacerConfig.fast(),
            {"mcts.c_puct": 2.5, "zeta": 10.0, "mcts.explorations": 4},
        )
        assert config.mcts.c_puct == 2.5
        assert config.zeta == 10 and isinstance(config.zeta, int)
        assert config.mcts.explorations == 4

    def test_jobspec_overrides_round_trip_and_fingerprint(self, aux_path):
        spec = JobSpec(
            aux=aux_path, preset="fast", seed=5,
            overrides=(("mcts.c_puct", 2.5),),
        )
        replayed = JobSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert replayed == spec
        assert (config_fingerprint(replayed.build_config())
                == config_fingerprint(spec.build_config()))
