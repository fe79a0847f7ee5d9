"""``export_bench_obs.py --check`` runs with the committed parameters.

An unset ``REPRO_BENCH_*`` variable takes the committed snapshot's
``run`` value; a variable set to something else is a parameter
mismatch, reported before any pipeline runs.
"""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import export_bench_obs  # noqa: E402
from obs_export import check_run, env_run, render  # noqa: E402

PARAMS = export_bench_obs.WILD_PARAMS
COMMITTED = {"backend": "process", "days": 110, "scale": 0.35,
             "seed": 2019, "shards": 4}


@pytest.fixture
def snapshot(tmp_path):
    path = tmp_path / "wild_obs.json"
    path.write_text(render({"fabric": {}, "run": COMMITTED}))
    return path


class TestCheckRun:
    def test_unset_variables_take_the_committed_run(self, snapshot):
        run, mismatches = check_run(PARAMS, snapshot, {})
        assert run == COMMITTED
        assert mismatches == []

    def test_matching_variables_are_not_a_mismatch(self, snapshot):
        environ = {"REPRO_BENCH_SCALE": "0.35", "REPRO_BENCH_SHARDS": "4",
                   "REPRO_BENCH_BACKEND": "process"}
        run, mismatches = check_run(PARAMS, snapshot, environ)
        assert run == COMMITTED
        assert mismatches == []

    def test_contradicting_variable_is_a_parameter_mismatch(self,
                                                            snapshot):
        environ = {"REPRO_BENCH_SHARDS": "1",
                   "REPRO_BENCH_BACKEND": "thread"}
        run, mismatches = check_run(PARAMS, snapshot, environ)
        assert len(mismatches) == 2
        assert "REPRO_BENCH_SHARDS=1" in mismatches[0]
        assert "shards=4" in mismatches[0]
        assert "REPRO_BENCH_BACKEND=thread" in mismatches[1]

    def test_missing_snapshot_falls_back_to_the_environment(self,
                                                            tmp_path):
        run, mismatches = check_run(PARAMS, tmp_path / "absent.json",
                                    {"REPRO_BENCH_DAYS": "3"})
        assert run == env_run(PARAMS, {"REPRO_BENCH_DAYS": "3"})
        assert run["days"] == 3 and run["shards"] == 1
        assert mismatches == []


class TestExportCheck:
    def test_mismatch_fails_without_running_the_pipeline(
            self, snapshot, tmp_path, capsys):
        def build(run):
            raise AssertionError("a mismatched check must not run")

        status = export_bench_obs._export(
            "wild", build, PARAMS, tmp_path / "BENCH_wild.json", snapshot,
            check=True, environ={"REPRO_BENCH_SHARDS": "1"})
        assert status == 1
        out = capsys.readouterr().out
        assert "parameter mismatch" in out and "drift" not in out
        assert not (tmp_path / "BENCH_wild.json").exists()

    def test_check_builds_with_the_committed_run(self, snapshot, tmp_path,
                                                 capsys):
        built = []

        def build(run):
            built.append(run)
            return {"fabric": {}, "run": dict(run)}

        status = export_bench_obs._export(
            "wild", build, PARAMS, tmp_path / "BENCH_wild.json", snapshot,
            check=True, environ={})
        assert built == [COMMITTED]
        assert status == 0
        assert "snapshot up to date" in capsys.readouterr().out
