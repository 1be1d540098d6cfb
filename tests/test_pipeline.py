from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from datetime import timedelta
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import sbsflow
from sbsflow import config, pipeline
from sbsflow.cli import main as cli_main
from sbsflow.pipeline import (
    MANIFEST_JSON,
    PLOT_CSV,
    SCORES_CSV,
    GRANGER_CSV,
    QUESTIONS_CSV,
    WEEKLY_CSV,
    ConfigError,
    PipelineError,
    run_pipeline,
    score_window,
    validate_config,
)
from sbsflow.stemming import PorterStemmer
from sbsflow.synthetic import make_fixture
from sbsflow.textproc import TextConfig

from conftest import score_fixture

ARTIFACTS = [SCORES_CSV, WEEKLY_CSV, GRANGER_CSV, QUESTIONS_CSV, PLOT_CSV]
# manifest stage names per mode, in run order
STAGES = {
    "run": ["registry", "ingest", "scores", "write_scores", "read_scores", "targets", "causality", "write_tables"],
    "score": ["registry", "ingest", "scores", "write_scores"],
    "test": ["registry", "read_scores", "targets", "causality", "write_tables"],
}
# integer config fields and their minimum values
INTEGER_FIELDS = {"window_size": 2, "min_edge_weight": 1, "min_token_len": 1, "p_max": 1, "workers": 1}

# arbitrary YAML-able values for the config fuzz test
_YAML_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12) | st.dates(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=5,
)


def _overrides(known: frozenset[str]):
    """Some known keys and some made-up ones, each with an arbitrary value."""
    return st.dictionaries(st.sampled_from(sorted(known)) | st.text(max_size=8), _YAML_VALUES, max_size=4)


def _rewritten_config(fixture, corpus=None, out=None, **overrides) -> str:
    """Fixture config with absolute paths, optionally pointing elsewhere."""
    conf = yaml.safe_load(fixture.config_path.read_text())
    base = fixture.config_path.parent
    conf["corpus"]["path"] = str(corpus if corpus else base / conf["corpus"]["path"])
    conf["registry"] = str(base / conf["registry"])
    conf["monthly_targets"] = str(base / conf["monthly_targets"])
    if out is not None:
        conf["output_dir"] = str(out)
    conf.update(overrides)
    return yaml.safe_dump(conf)


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    return make_fixture(tmp_path_factory.mktemp("fx"), seed=11)


@pytest.fixture(scope="module")
def completed_run(fixture):
    cfg = validate_config(fixture.config_path)
    manifest = run_pipeline(cfg)
    return fixture, cfg, manifest


class TestValidateConfig:
    def test_valid_fixture_config_with_defaults(self, fixture):
        cfg = validate_config(fixture.config_path)
        assert cfg.window_size == 3
        assert cfg.p_max == 4
        assert cfg.include_title is True
        assert cfg.language == "english"

    def test_wrong_threshold_order_names_field(self, fixture, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            fixture.config_path.read_text() + "star_thresholds: [0.01, 0.05, 0.10]\n"
        )
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        assert "star_thresholds: unknown key" in err.value.failures

    def test_multiple_failures_reported_together(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "corpus: {path: missing.jsonl}\n"
            "registry: missing.yaml\n"
            "monthly_targets: missing.csv\n"
            "window_size: 1\n"
            "windw_size: 7\n"
            "start_date: 2021-06-01\n"
            "end_date: 2021-01-01\n"
        )
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        failures = err.value.failures
        assert len(failures) >= 5
        assert "windw_size: unknown key" in failures
        assert any("window_size" in f for f in failures)
        assert any("start_date" in f for f in failures)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError):
            validate_config(tmp_path / "none.yaml")

    def test_non_mapping_corpus_section_reported(self, fixture, tmp_path):
        bad = tmp_path / "bad.yaml"
        conf = yaml.safe_load(_rewritten_config(fixture))
        conf["corpus"] = "corpus.jsonl"
        bad.write_text(yaml.safe_dump(conf))
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        assert err.value.failures == [
            "corpus: must be a mapping, got 'corpus.jsonl'",
            "corpus.path: required",
        ]

    @pytest.mark.parametrize("value", ["abc", 2.9, True])
    @pytest.mark.parametrize("name", INTEGER_FIELDS)
    def test_integer_field_rejects_non_integer(self, fixture, tmp_path, name, value):
        bad = tmp_path / "bad.yaml"
        bad.write_text(_rewritten_config(fixture, **{name: value}))
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        assert err.value.failures == [f"{name}: expected an integer >= {INTEGER_FIELDS[name]}, got {value!r}"]

    @pytest.mark.parametrize("value", ["abc", 2.9, True])
    def test_all_bad_integer_fields_listed_together(self, fixture, tmp_path, value):
        bad = tmp_path / "bad.yaml"
        bad.write_text(_rewritten_config(fixture, **{name: value for name in INTEGER_FIELDS}))
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        named = [f.split(":")[0] for f in err.value.failures]
        assert named == list(INTEGER_FIELDS)

    @pytest.mark.parametrize(
        "name,value,expected",
        [
            ("climate_targets", "climate", "a list of strings"),
            ("climate_targets", [1, 2], "a list of strings"),
            ("question_targets", {"a": 1}, "a list of strings"),
            ("corpus.fields", "x", "a mapping of strings"),
            ("corpus.fields", {"id": 7}, "a mapping of strings"),
            ("corpus.include_title", "false", "true or false"),
            ("corpus.include_title", 0, "true or false"),
            ("language", None, "a string"),
            ("output_dir", ["a"], "a string"),
            ("registry", ["a"], "a string"),
            ("monthly_targets", 1, "a string"),
            ("stopwords", None, "a string"),
            ("corpus.path", ["a"], "a string"),
            ("corpus.date_format", 1, "a string"),
        ],
    )
    def test_typed_field_rejects_wrong_type(self, fixture, tmp_path, name, value, expected):
        conf = yaml.safe_load(_rewritten_config(fixture))
        section, _, key = name.rpartition(".")
        (conf[section] if section else conf)[key] = value
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(conf))
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        assert err.value.failures == [f"{name}: expected {expected}, got {value!r}"]

    @pytest.mark.parametrize(
        "extra,key",
        [
            ({"edge_length": "direct"}, "edge_length"),
            ({"sentence_split": False}, "sentence_split"),
            ({"star_thresholds": [0.1, 0.05, 0.01]}, "star_thresholds"),
            ({"windw_size": 7}, "windw_size"),
            ({"corpus": {"includ_title": False}}, "corpus.includ_title"),
            ({"corpus": {"fields": {"idd": "x"}}}, "corpus.fields.idd"),
            ({"corpus": {"fields": {"source": "outlet"}}}, "corpus.fields.source"),
        ],
    )
    def test_unknown_key_refused(self, fixture, tmp_path, capsys, extra, key):
        conf = yaml.safe_load(_rewritten_config(fixture))
        for name, value in extra.items():
            if name == "corpus":
                conf["corpus"].update(value)
            else:
                conf[name] = value
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(conf))
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        assert err.value.failures == [f"{key}: unknown key"]
        assert cli_main(["validate", "--config", str(bad)]) == 1
        assert f"{key}: unknown key" in capsys.readouterr().err

    def test_overlong_file_name_reported_as_not_found(self, fixture, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(_rewritten_config(fixture, registry="k" * 300))
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        assert err.value.failures == [f"registry: file not found: {tmp_path / ('k' * 300)}"]

    @pytest.mark.parametrize(
        "targets,failure",
        [
            ({"climate_targets": ["climate", "climate"]}, "climate_targets: repeated name 'climate'"),
            (
                {"climate_targets": ["climate", "personal"], "question_targets": ["personal"]},
                "question_targets: repeated name 'personal'",
            ),
        ],
        ids=["within-climate", "climate-and-question"],
    )
    def test_repeated_target_name_refused(self, fixture, tmp_path, targets, failure):
        # a repeated name would repeat its battery rows and plot_data.csv columns
        bad = tmp_path / "bad.yaml"
        bad.write_text(_rewritten_config(fixture, **targets))
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        assert err.value.failures == [failure]

    @settings(max_examples=60)
    @given(top=_overrides(config._TOP_KEYS), corpus=_overrides(config._CORPUS_KEYS),
           fields=_overrides(config._FIELD_KEYS))
    def test_fuzzed_config_validates_or_raises_config_error(
        self, fixture, tmp_path_factory, top, corpus, fields
    ):
        conf = yaml.safe_load(_rewritten_config(fixture))
        conf["corpus"] = {**conf["corpus"], "fields": fields, **corpus}
        conf.update(top)
        path = tmp_path_factory.getbasetemp() / "fuzzed.yaml"
        path.write_text(yaml.safe_dump(conf))
        try:
            assert isinstance(validate_config(path), pipeline.RunConfig)
        except ConfigError:
            pass


class TestRunPipeline:
    def test_all_artifacts_present_with_expected_rows(self, completed_run):
        fixture, cfg, manifest = completed_run
        out = cfg.output_dir
        for name in ARTIFACTS:
            assert (out / name).is_file(), name
        assert manifest["status"] == "ok"
        with (out / SCORES_CSV).open() as fh:
            rows = list(csv.DictReader(fh))
        # one row per (window, keyword)
        assert len(rows) == fixture.n_windows * len(fixture.keywords)
        with (out / GRANGER_CSV).open() as fh:
            fh.readline()  # caveat comment
            battery_rows = list(csv.DictReader(fh))
        assert len(battery_rows) == len(fixture.keywords) * 3  # three climate targets

    def test_manifest_lists_every_artifact_with_hash(self, completed_run):
        _, cfg, manifest = completed_run
        listed = {a["path"] for a in manifest["artifacts"]}
        assert listed == set(ARTIFACTS)
        import hashlib

        for entry in manifest["artifacts"]:
            digest = hashlib.sha256((cfg.output_dir / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_manifest_records_environment(self, completed_run):
        import os
        import platform

        import numpy
        import scipy

        _, cfg, manifest = completed_run
        expected = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
        }
        assert manifest["environment"] == expected
        on_disk = json.loads((cfg.output_dir / MANIFEST_JSON).read_text())
        assert on_disk["environment"] == expected

    def test_no_temporary_files_left(self, completed_run):
        _, cfg, _ = completed_run
        assert list(cfg.output_dir.glob("*.tmp")) == []

    def test_failed_write_keeps_previous_artifact(self, fixture, tmp_path, monkeypatch):
        cfg = validate_config(fixture.config_path)
        run_pipeline(cfg, out_dir=tmp_path)
        before = (tmp_path / PLOT_CSV).read_bytes()

        def torn_rows(*args):
            yield ["window_index", "week_start"]
            raise RuntimeError("disk gone")

        monkeypatch.setattr(pipeline, "_plot_rows", torn_rows)
        with pytest.raises(RuntimeError):
            run_pipeline(cfg, out_dir=tmp_path)
        assert (tmp_path / PLOT_CSV).read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []
        manifest = json.loads((tmp_path / MANIFEST_JSON).read_text())
        assert manifest["failed_stage"] == manifest["stages"][-1]["stage"] == "write_tables"
        assert PLOT_CSV not in {a["path"] for a in manifest["artifacts"]}

    def test_score_fixture_matches_score_dump(self, completed_run):
        fixture, cfg, _ = completed_run
        _, series_by_kw = score_fixture(fixture)
        helper = {
            (kw, idx): repr(value)
            for kw, s in series_by_kw.items()
            for idx, value in enumerate(s.values)
        }
        with (cfg.output_dir / SCORES_CSV).open() as fh:
            dumped = {(row["keyword"], int(row["window_index"])): row["sbs"] for row in csv.DictReader(fh)}
        assert helper == dumped

    def test_series_name_with_comma_is_quoted(self, tmp_path):
        fx = make_fixture(tmp_path / "fx", seed=5)
        fx.monthly_path.write_text(
            fx.monthly_path.read_text().replace("personal", '"cons, conf"', 1)
        )
        config = tmp_path / "cfg.yaml"
        config.write_text(
            _rewritten_config(fx, out=tmp_path / "out", climate_targets=["climate", "cons, conf"])
        )
        run_pipeline(validate_config(config))
        tables = {}
        for name in (WEEKLY_CSV, GRANGER_CSV, PLOT_CSV):
            with (tmp_path / "out" / name).open(newline="") as fh:
                rows = [row for row in csv.reader(fh) if not row[0].startswith("# caveat")]
            assert {len(row) for row in rows} == {len(rows[0])}, name
            tables[name] = rows
        weekly = tables[WEEKLY_CSV]
        assert weekly[0] == ["series", "window_index", "week_start", "value"]
        first = next(row for row in weekly if row[0] == "cons, conf")
        assert first[1:3] == ["0", "2021-01-04"]
        assert repr(float(first[3])) == first[3]
        assert {row[1] for row in tables[GRANGER_CSV][1:]} == {"climate", "cons, conf"}
        assert "target:cons, conf" in tables[PLOT_CSV][0]

    def test_scores_csv_decomposition_bit_for_bit(self, completed_run):
        _, cfg, _ = completed_run
        with (cfg.output_dir / SCORES_CSV).open() as fh:
            for row in csv.DictReader(fh):
                zsum = (
                    float(row["z_prevalence"])
                    + float(row["z_diversity"])
                    + float(row["z_connectivity"])
                )
                assert float(row["sbs"]) == zsum  # exact, not approx

    def test_empty_corpus_fails_at_scores_stage_naming_window_range(self, fixture, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        bad = tmp_path / "cfg.yaml"
        bad.write_text(_rewritten_config(fixture, corpus=empty, out=tmp_path / "out"))
        cfg = validate_config(bad)
        with pytest.raises(PipelineError) as err:
            run_pipeline(cfg)
        msg = str(err.value)
        assert "2021-01-04" in msg and "window" in msg
        manifest = json.loads((tmp_path / "out" / MANIFEST_JSON).read_text())
        assert manifest["status"] == "failed"
        assert manifest["failed_stage"] == manifest["stages"][-1]["stage"] == "scores"

    def test_worker_count_does_not_change_bytes(self, fixture, tmp_path):
        cfg = validate_config(fixture.config_path)
        digests = {}
        for workers in (1, 4):
            out = tmp_path / f"w{workers}"
            run_pipeline(cfg, out_dir=out, workers=workers)
            digests[workers] = {
                name: (out / name).read_bytes() for name in ARTIFACTS
            }
        assert digests[1] == digests[4]

    def test_score_then_test_equals_run(self, fixture, tmp_path):
        cfg = validate_config(fixture.config_path)
        split = tmp_path / "split"
        manifests = {"score": run_pipeline(cfg, out_dir=split, stage_mode="score")}
        assert (split / SCORES_CSV).is_file()
        assert not (split / GRANGER_CSV).exists()
        manifests["test"] = run_pipeline(cfg, out_dir=split, stage_mode="test")
        whole = tmp_path / "whole"
        manifests["run"] = run_pipeline(cfg, out_dir=whole, stage_mode="run")
        for name in ARTIFACTS:
            assert (split / name).read_bytes() == (whole / name).read_bytes(), name
        assert {mode: [s["stage"] for s in m["stages"]] for mode, m in manifests.items()} == STAGES

    def test_unset_climate_targets_leave_out_question_targets(self, completed_run, tmp_path):
        fixture, cfg, _ = completed_run
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(cfg.output_dir / SCORES_CSV, out / SCORES_CSV)
        conf = yaml.safe_load(_rewritten_config(fixture, out=out, question_targets=["personal"]))
        del conf["climate_targets"]
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump(conf))
        run_pipeline(validate_config(config), stage_mode="test")
        with (out / PLOT_CSV).open(newline="") as fh:
            header = next(csv.reader(fh))
        assert header.count("target:personal") == 1
        with (out / GRANGER_CSV).open(newline="") as fh:
            fh.readline()  # caveat comment
            assert {row["target"] for row in csv.DictReader(fh)} == {"climate", "economic"}
        with (out / QUESTIONS_CSV).open(newline="") as fh:
            fh.readline()
            assert next(csv.reader(fh)) == ["keyword", "personal"]

    def test_run_battery_reads_the_score_dump(self, fixture, tmp_path, monkeypatch):
        # the dump is the one hand-off: shift what is written and the plot follows
        rows = pipeline._scores_rows

        def shifted_rows(starts, scores_by_window):
            header, *body = rows(starts, scores_by_window)
            yield header
            for row in body:
                yield [*row[:-1], repr(float(row[-1]) + 1.0)]

        monkeypatch.setattr(pipeline, "_scores_rows", shifted_rows)
        out = tmp_path / "out"
        run_pipeline(validate_config(fixture.config_path), out_dir=out)
        dumped: dict[str, list[str]] = {}
        with (out / SCORES_CSV).open(newline="") as fh:
            for row in csv.DictReader(fh):
                dumped.setdefault(f"sbs:{row['keyword']}", []).append(row["sbs"])
        with (out / PLOT_CSV).open(newline="") as fh:
            plotted = list(csv.DictReader(fh))
        assert {col: [row[col] for row in plotted] for col in dumped} == dumped

    def test_test_mode_without_scores_fails(self, fixture, tmp_path):
        cfg = validate_config(fixture.config_path)
        with pytest.raises(PipelineError):
            run_pipeline(cfg, out_dir=tmp_path / "fresh", stage_mode="test")


@pytest.fixture(scope="module")
def scored_and_tested(fixture, tmp_path_factory):
    """Output directory of `sbsflow score` then `sbsflow test` on the fixture config."""
    out = tmp_path_factory.mktemp("scored")
    for command in ("score", "test"):
        assert cli_main([command, "--config", str(fixture.config_path), "--out", str(out)]) == 0
    return out


class CountingStemmer(PorterStemmer):
    def __init__(self):
        self.calls: Counter = Counter()

    def stem(self, word):
        self.calls[word] += 1
        return super().stem(word)


def test_score_window_stems_each_distinct_token_once():
    texts = ["Markets fell. Markets and prices fell again!", "Prices rose; markets rose."]
    words = {"markets", "fell", "prices", "again", "rose"}
    counting = CountingStemmer()
    cfg = TextConfig(stemmer=counting, stopwords=frozenset({"and"}))
    scores = score_window(texts, 4, cfg, ["market", "price"], min_edge_weight=1)
    assert counting.calls == Counter(dict.fromkeys(words, 1))
    # the memo lives for one window: the next call stems every token again
    assert score_window(texts, 4, cfg, ["market", "price"], min_edge_weight=1) == scores
    assert counting.calls == Counter(dict.fromkeys(words, 2))
    plain = TextConfig(stemmer=PorterStemmer(), stopwords=frozenset({"and"}))
    assert score_window(texts, 4, plain, ["market", "price"], min_edge_weight=1) == scores


def test_battery_workers_leave_artifacts_identical(fixture, scored_and_tested, tmp_path):
    artifacts = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        shutil.copytree(scored_and_tested, out)
        argv = ["test", "--config", str(fixture.config_path), "--out", str(out)]
        assert cli_main([*argv, "--workers", str(workers)]) == 0
        artifacts[workers] = {name: (out / name).read_bytes() for name in ARTIFACTS}
    assert artifacts[1] == artifacts[2]


def _ending_covid_row(tail):
    """A dump edit that puts ``tail`` in place of the sbs cell of line ``i``."""
    return lambda lines, i: [*lines[:i], lines[i].rsplit(",", 1)[0] + tail + "\n", *lines[i + 1:]]


class TestStaleScoreDump:
    """`sbsflow test` refuses a score dump that is not this config's windows x keywords."""

    def _test_with(self, fixture, scored_and_tested, tmp_path, edit_dump=None, **overrides):
        out = tmp_path / "out"
        shutil.copytree(scored_and_tested, out)
        if edit_dump is not None:
            dump = out / SCORES_CSV
            dump.write_text("".join(edit_dump(dump.read_text().splitlines(keepends=True))))
        config = tmp_path / "cfg.yaml"
        config.write_text(_rewritten_config(fixture, out=out, **overrides))
        before = {name: (out / name).read_bytes() for name in ARTIFACTS}
        rc = cli_main(["test", "--config", str(config)])
        return rc, out, before

    @pytest.mark.parametrize(
        "weeks, mismatch",
        [
            (-4, "has window {n_cfg}, outside this config's windows 0..{n_cfg_last}"),
            (4, "window {n_dump} of 0..{n_cfg_last} has 0 rows"),
        ],
        ids=["config_ends_earlier", "dump_ends_earlier"],
    )
    def test_other_date_range_refused(
        self, fixture, scored_and_tested, tmp_path, capsys, weeks, mismatch
    ):
        end = validate_config(fixture.config_path).end_date + timedelta(weeks=weeks)
        rc, out, before = self._test_with(fixture, scored_and_tested, tmp_path, end_date=end)
        assert rc == 2
        n_dump, n_cfg = fixture.n_windows, fixture.n_windows + weeks
        message = mismatch.format(n_dump=n_dump, n_cfg=n_cfg, n_cfg_last=n_cfg - 1)
        assert message in capsys.readouterr().err
        self._assert_refused_at_read_scores(out, before)

    def test_registry_with_another_label_refused(self, fixture, scored_and_tested, tmp_path, capsys):
        registry = tmp_path / "keywords.yaml"
        registry.write_text(fixture.registry_path.read_text() + '- label: zzextra\n  members: ["zzextra"]\n')
        rc, out, before = self._test_with(fixture, scored_and_tested, tmp_path, registry=str(registry))
        assert rc == 2
        err = capsys.readouterr().err
        assert "window 0 of" in err and "missing ['zzextra']" in err
        self._assert_refused_at_read_scores(out, before)

    def test_same_length_shifted_grid_refused(self, fixture, scored_and_tested, tmp_path, capsys):
        # same window count, every week_start one week later than the dump's
        cfg = validate_config(fixture.config_path)
        shift = timedelta(weeks=1)
        rc, out, before = self._test_with(
            fixture, scored_and_tested, tmp_path,
            start_date=cfg.start_date + shift, end_date=cfg.end_date + shift,
        )
        assert rc == 2
        dumped, wanted = cfg.start_date.isoformat(), (cfg.start_date + shift).isoformat()
        assert f"dates window 0 {dumped}, this config {wanted}" in capsys.readouterr().err
        self._assert_refused_at_read_scores(out, before)

    @pytest.mark.parametrize(
        "edit, refusal",
        [
            (lambda lines, i: [line.rsplit(",", 1)[0] + "\n" for line in lines],
             ", line 1: header ['window_index', 'week_start', 'keyword', 'prevalence_raw', "
             "'diversity_raw', 'connectivity_raw', 'z_prevalence', 'z_diversity', 'z_connectivity'], "
             "not ['window_index', 'week_start', 'keyword', 'prevalence_raw', 'diversity_raw', "
             "'connectivity_raw', 'z_prevalence', 'z_diversity', 'z_connectivity', 'sbs']"),
            (_ending_covid_row(",abc"), ", line {line}, column 'sbs': expected a finite float, got 'abc'"),
            (_ending_covid_row(",nan"), ", line {line}, column 'sbs': expected a finite float, got 'nan'"),
            (_ending_covid_row(""), ", line {line}: expected 10 cells, got 9"),
            (lambda lines, i: [*lines[: i + 1], lines[i], *lines[i + 1:]],
             ", line {repeat}: keyword 'covid' appears twice in window 0"),
        ],
        ids=["no_sbs_column", "non_numeric_cell", "nan_cell", "short_row", "repeated_row"],
    )
    def test_malformed_dump_refused_with_location(
        self, fixture, scored_and_tested, tmp_path, capsys, edit, refusal
    ):
        # i: the 0-based position of window 0's 'covid' row among the dump's lines
        lines = (scored_and_tested / SCORES_CSV).read_text().splitlines()
        i = next(n for n, line in enumerate(lines) if line.split(",")[2] == "covid")
        rc, out, before = self._test_with(
            fixture, scored_and_tested, tmp_path, edit_dump=lambda lines: edit(lines, i)
        )
        assert rc == 2
        where = f"score dump {out / SCORES_CSV}"
        assert where + refusal.format(line=i + 1, repeat=i + 2) in capsys.readouterr().err
        self._assert_refused_at_read_scores(out, before)

    @staticmethod
    def _assert_refused_at_read_scores(out, before):
        manifest = json.loads((out / MANIFEST_JSON).read_text())
        assert manifest["failed_stage"] == manifest["stages"][-1]["stage"] == "read_scores"
        assert manifest["artifacts"] == []
        assert {name: (out / name).read_bytes() for name in ARTIFACTS} == before


class TestCli:
    def test_validate_ok(self, fixture, capsys):
        assert cli_main(["validate", "--config", str(fixture.config_path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_failure_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("window_size: 0\n")
        assert cli_main(["validate", "--config", str(bad)]) == 1
        assert "window_size" in capsys.readouterr().err

    def test_validate_loads_no_numeric_stack(self, fixture):
        # a fresh interpreter, so modules imported by the suite do not count
        code = (
            "import sys\n"
            "from sbsflow.cli import main\n"
            f"assert main(['validate', '--config', {str(fixture.config_path)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'scipy'))))\n"
        )
        src = str(Path(sbsflow.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert done.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("workers", [0, -1])
    def test_nonpositive_workers_option_exit_1(self, fixture, tmp_path, capsys, workers):
        out = tmp_path / "o"
        argv = ["score", "--config", str(fixture.config_path), "--out", str(out)]
        assert cli_main([*argv, "--workers", str(workers)]) == 1
        assert f"--workers: expected an integer >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    def test_test_subcommand_refuses_nonpositive_workers(self, fixture, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["test", "--config", str(fixture.config_path), "--out", str(out)]
        assert cli_main([*argv, "--workers", "0"]) == 1
        assert "--workers: expected an integer >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_run_success_exit_0(self, fixture, tmp_path, capsys):
        rc = cli_main(
            ["run", "--config", str(fixture.config_path), "--out", str(tmp_path / "o")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert SCORES_CSV in out and GRANGER_CSV in out

    def test_runtime_failure_exit_2(self, fixture, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        bad = tmp_path / "cfg.yaml"
        bad.write_text(_rewritten_config(fixture, corpus=empty, out=tmp_path / "out"))
        assert cli_main(["run", "--config", str(bad)]) == 2
        assert "failed" in capsys.readouterr().err

    def test_score_then_test_subcommands(self, fixture, tmp_path):
        out = tmp_path / "o"
        assert cli_main(["score", "--config", str(fixture.config_path), "--out", str(out)]) == 0
        assert cli_main(["test", "--config", str(fixture.config_path), "--out", str(out)]) == 0
        for name in ARTIFACTS:
            assert (out / name).is_file()
