from __future__ import annotations

import csv
import hashlib
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import unicodedata
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from datetime import timedelta
from functools import partial
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import sbsflow
from sbsflow import causality, config, pipeline
from sbsflow.cli import main as cli_main
from sbsflow.corpus import load_corpus
from sbsflow.keywords import compile_canonical_map, fixture_path, load_stopwords, parse_registry
from sbsflow.network import build_graph, prevalence, sbs
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
from sbsflow.stemming import PorterStemmer, get_stemmer
from sbsflow.synthetic import make_fixture
from sbsflow.textproc import normalize_document, sequence_cooccurrences

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

    @pytest.mark.parametrize(
        "line, failure",
        [
            ("start_date: 2021-13-04", "start_date: expected YYYY-MM-DD date, got '2021-13-04'"),
            ("window_size: 1" + "0" * 5_000, "config holds a value Python cannot build: "),
        ],
        ids=["date", "long_integer"],
    )
    def test_value_yaml_cannot_build_reported(self, fixture, tmp_path, capsys, line, failure):
        # YAML built it while loading, so validate ended in a ValueError traceback
        if line.startswith("window_size") and not sys.get_int_max_str_digits():
            pytest.skip("integers have no digit limit in this interpreter")
        key = line.split(":")[0]
        bad = tmp_path / "bad.yaml"
        bad.write_text(re.sub(rf"^{key}: .*$", line, _rewritten_config(fixture), flags=re.M))
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        assert len(err.value.failures) == 1 and err.value.failures[0].startswith(failure)
        assert cli_main(["validate", "--config", str(bad)]) == 1
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, got",
        [
            ("start_date: 20210104", "20210104"),
            ("start_date: 2021-W01-1", "'2021-W01-1'"),
            ("start_date: 2021W011", "'2021W011'"),
            ("start_date: '2021-01-04 '", "'2021-01-04 '"),
            ("start_date: '\uff12\uff10\uff12\uff11-01-04'", "'\uff12\uff10\uff12\uff11-01-04'"),
        ],
        ids=["integer", "iso_week", "iso_week_basic", "padded", "full_width_digits"],
    )
    def test_date_other_than_yyyy_mm_dd_refused(self, fixture, tmp_path, line, got):
        # date.fromisoformat reads the first three as 2021-01-04 from Python 3.11 on
        bad = tmp_path / "bad.yaml"
        bad.write_text(re.sub(r"^start_date: .*$", line, _rewritten_config(fixture), flags=re.M))
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        assert err.value.failures == [f"start_date: expected YYYY-MM-DD date, got {got}"]

    @pytest.mark.parametrize(
        "name, value, failure",
        [
            ("language", "French", "language: must be 'italian', 'english' or 'none', got 'french'"),
            ("stopwords", "absent.txt", "stopwords: file not found: {base}/absent.txt"),
            ("corpus.format", "xml", "corpus.format: must be 'jsonl' or 'csv', got 'xml'"),
        ],
        ids=["language", "stopwords", "corpus_format"],
    )
    def test_value_that_names_nothing_refused(self, fixture, tmp_path, name, value, failure):
        conf = yaml.safe_load(_rewritten_config(fixture))
        section, _, key = name.rpartition(".")
        (conf[section] if section else conf)[key] = value
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(conf))
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        assert err.value.failures == [failure.format(base=tmp_path)]

    @pytest.mark.parametrize(
        "text, failure",
        [("corpus: [unclosed\n", "config does not parse as YAML: "), ("- a list\n", "config root must be a mapping")],
        ids=["not_yaml", "not_a_mapping"],
    )
    def test_file_that_is_not_a_yaml_mapping_refused(self, tmp_path, text, failure):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        assert len(err.value.failures) == 1 and err.value.failures[0].startswith(failure)

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
        # more workers than windows start one process per window
        counts = (1, 2, 4, fixture.n_windows + 1)
        for workers in counts:
            out = tmp_path / f"w{workers}"
            run_pipeline(cfg, out_dir=out, workers=workers)
            digests[workers] = {
                name: (out / name).read_bytes() for name in ARTIFACTS
            }
        assert all(digests[workers] == digests[1] for workers in counts)

    def test_one_window_grid_scores_alike_on_any_worker_count(self, fixture, tmp_path):
        start = validate_config(fixture.config_path).start_date
        config = tmp_path / "cfg.yaml"
        config.write_text(_rewritten_config(fixture, end_date=start + timedelta(days=7)))
        cfg = validate_config(config)
        dumps = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            manifest = run_pipeline(cfg, out_dir=out, workers=workers, stage_mode="score")
            assert manifest["corpus"]["windows"] == 1
            dumps[workers] = (out / SCORES_CSV).read_bytes()
        assert dumps[1] == dumps[2]

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

    def test_unknown_stage_mode_refused(self, completed_run, tmp_path):
        _, cfg, _ = completed_run
        with pytest.raises(ValueError, match="unknown stage_mode 'tset'"):
            run_pipeline(cfg, out_dir=tmp_path, stage_mode="tset")
        assert not list(tmp_path.iterdir())

    def test_configured_series_missing_from_the_monthly_file_fails_at_targets(
        self, fixture, scored_and_tested, tmp_path, capsys
    ):
        out = tmp_path / "out"
        shutil.copytree(scored_and_tested, out)
        config = tmp_path / "cfg.yaml"
        config.write_text(_rewritten_config(fixture, out=out, question_targets=["absent"]))
        assert cli_main(["test", "--config", str(config)]) == 2
        assert "monthly target file lacks configured series: ['absent']" in capsys.readouterr().err
        manifest = json.loads((out / MANIFEST_JSON).read_text())
        assert manifest["failed_stage"] == "targets"

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
    score = partial(score_window, keywords=["market", "price"], window_size=3, min_edge_weight=1)
    canonical = compile_canonical_map([], counting, frozenset({"and"}))
    scores = score(texts, 4, canonical)
    assert counting.calls == Counter(dict.fromkeys(words, 1))
    # the memo lives as long as the map: a second call stems nothing
    assert score(texts, 4, canonical) == scores
    assert counting.calls == Counter(dict.fromkeys(words, 1))
    # a fresh map stems every token again
    fresh = compile_canonical_map([], counting, frozenset({"and"}))
    assert score(texts, 4, fresh) == scores
    assert counting.calls == Counter(dict.fromkeys(words, 2))
    plain = compile_canonical_map([], PorterStemmer(), frozenset({"and"}))
    assert score(texts, 4, plain) == scores


def test_nfc_and_nfd_spellings_score_alike(tmp_path):
    # decomposed accents used to split "città" into the node "citta"
    texts = [
        "La città di Roma è più sággia. Perché la città cresce?",
        "Il sággio parla della città e di Roma perché è bella.",
    ]
    stopwords_file = tmp_path / "stop.txt"
    stopwords_file.write_text(unicodedata.normalize("NFD", "la\nil\nè\ndi\ne\nperché\n"), encoding="utf-8")
    canonical = compile_canonical_map([], get_stemmer("none"), load_stopwords(stopwords_file))
    assert {"è", "perché"} <= canonical.stopwords
    score = partial(score_window, keywords=["città", "roma", "sággio"], window_size=3, min_edge_weight=1)
    nfc = score(texts, 0, canonical)
    nfd = score([unicodedata.normalize("NFD", t) for t in texts], 0, canonical)
    assert nfd == nfc
    assert [s.prevalence_raw for s in nfc] == [3, 2, 1]


def test_score_window_is_the_hand_built_window(fixture):
    # the tests that build windows by hand make the calls score_window makes
    stemmer = get_stemmer("english")
    stopwords = load_stopwords(fixture_path("stopwords_en.txt"))
    sets = parse_registry(fixture.registry_path)
    canonical = compile_canonical_map(sets, stemmer, stopwords)
    texts = [doc.text() for doc in load_corpus(fixture.corpus_path)][:60]
    keywords = [*sorted(s.label for s in sets), "ghost"]
    seqs = [normalize_document(text, canonical) for text in texts]
    prev = prevalence(seqs)
    graph = build_graph(sequence_cooccurrences(seqs, 3), min_edge_weight=2, extra_nodes=prev.keys())
    assert prev["interest_rate"] > 0  # the window collapses a phrase
    scores = score_window(texts, 0, canonical, keywords, window_size=3, min_edge_weight=2)
    assert scores == sbs(graph, prev, keywords)


@pytest.mark.parametrize("include_title, covid_count", [(False, "0"), (True, "2")])
def test_include_title_decides_whether_titles_are_scored(fixture, tmp_path, include_title, covid_count):
    # "covid" appears only in the titles, "economy" only in the bodies
    day = validate_config(fixture.config_path).start_date.isoformat()
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": f"d{i}", "date": day, "title": "covid update", "body": body}) + "\n"
        for i, body in enumerate(["markets watched the economy", "traders doubted the economy"])
    ))
    conf = yaml.safe_load(_rewritten_config(fixture, corpus=corpus, out=tmp_path / "out"))
    conf["corpus"]["include_title"] = include_title
    config_path = tmp_path / "cfg.yaml"
    config_path.write_text(yaml.safe_dump(conf))
    run_pipeline(validate_config(config_path), stage_mode="score")
    with (tmp_path / "out" / SCORES_CSV).open(encoding="utf-8", newline="") as fh:
        counts = {row["keyword"]: row["prevalence_raw"] for row in csv.DictReader(fh) if row["window_index"] == "0"}
    assert counts["covid"] == covid_count
    assert counts["economy"] == "2"


def test_serial_run_stems_each_distinct_token_once(fixture, tmp_path, monkeypatch):
    counting = CountingStemmer()
    monkeypatch.setattr(pipeline, "get_stemmer", lambda language: counting)
    cfg = validate_config(fixture.config_path)
    run_pipeline(cfg, tmp_path, workers=1, stage_mode="score")
    # the registry stems its single-word members with the bare stemmer
    registry = CountingStemmer()
    compile_canonical_map(parse_registry(cfg.registry_path), registry, load_stopwords(cfg.stopwords_path))
    corpus_calls = counting.calls - registry.calls
    assert set(corpus_calls.values()) == {1}


class LoggingStemmer(PorterStemmer):
    """Appends ``<pid> <word>`` to ``log`` for every stem call. It pickles as
    the path of its log, so every pool worker's copy writes to one file."""

    def __init__(self, log: Path):
        self.log = log

    def stem(self, word):
        with self.log.open("a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {word}\n")
        return super().stem(word)


# every start method this platform offers; forkserver and spawn pickle the
# pool's initializer arguments, fork does not
START_METHODS = [m for m in ("fork", "forkserver", "spawn") if m in multiprocessing.get_all_start_methods()]


def _pool_with(monkeypatch, start_method: str) -> None:
    """Make every pool of the run start its workers with ``start_method``."""
    context = multiprocessing.get_context(start_method)
    monkeypatch.setattr(causality, "ProcessPoolExecutor", partial(ProcessPoolExecutor, mp_context=context))


@pytest.mark.parametrize("start_method", START_METHODS)
def test_pooled_run_stems_each_distinct_token_once_per_worker(
    fixture, tmp_path, monkeypatch, start_method
):
    # however the pool shares the windows out, even all to one worker, a
    # worker process stems each distinct token once
    log = tmp_path / "stems.log"
    monkeypatch.setattr(pipeline, "get_stemmer", lambda language: LoggingStemmer(log))
    _pool_with(monkeypatch, start_method)
    run_pipeline(validate_config(fixture.config_path), tmp_path / "out", workers=2, stage_mode="score")
    # the registry is stemmed in this process; the windows only in the workers
    calls = Counter(
        (int(pid), word)
        for pid, word in (line.split() for line in log.read_text(encoding="utf-8").splitlines())
        if int(pid) != os.getpid()
    )
    assert 1 <= len({pid for pid, _ in calls}) <= 2
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("start_method", START_METHODS)
def test_battery_workers_leave_artifacts_identical(
    fixture, scored_and_tested, tmp_path, monkeypatch, start_method
):
    _pool_with(monkeypatch, start_method)
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
            lines = dump.read_text(encoding="utf-8").splitlines(keepends=True)
            dump.write_text("".join(edit_dump(lines)), encoding="utf-8")
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
            # float() and int() alone read these three as -33.0, 3.0 and 0
            (_ending_covid_row(",-3_3"), ", line {line}, column 'sbs': expected a finite float, got '-3_3'"),
            (_ending_covid_row(",\u0663"), ", line {line}, column 'sbs': expected a finite float, got '\u0663'"),
            (lambda lines, i: [*lines[:i], " " + lines[i], *lines[i + 1:]],
             ", line {line}, column 'window_index': expected a finite int, got ' 0'"),
            # an int past a float's range stopped the run with a bare OverflowError
            (lambda lines, i: [*lines[:i], "9" * 400 + lines[i][1:], *lines[i + 1:]],
             ", line {line} has window " + "9" * 400 + ", outside this config's windows"),
            (_ending_covid_row(""), ", line {line}: expected 10 cells, got 9"),
            (lambda lines, i: [*lines[: i + 1], lines[i], *lines[i + 1:]],
             ", line {repeat}: keyword 'covid' appears twice in window 0"),
        ],
        ids=[
            "no_sbs_column", "non_numeric_cell", "nan_cell", "digit_separator_cell",
            "non_ascii_digit_cell", "padded_window_index", "window_index_past_float_range",
            "short_row", "repeated_row",
        ],
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

    def test_dump_that_is_not_utf8_refused_at_its_line(self, fixture, scored_and_tested, tmp_path, capsys):
        # a bare UnicodeDecodeError named neither the file nor the line
        latin_1 = tmp_path / "latin_1"
        shutil.copytree(scored_and_tested, latin_1)
        lines = (latin_1 / SCORES_CSV).read_text(encoding="utf-8").splitlines(keepends=True)
        idx, start, _, rest = lines[3].split(",", 3)
        lines[3] = ",".join([idx, start, "città", rest])
        (latin_1 / SCORES_CSV).write_bytes("".join(lines).encode("latin-1"))
        rc, out, before = self._test_with(fixture, latin_1, tmp_path)
        assert rc == 2
        assert f"score dump {out / SCORES_CSV}, line 4: not UTF-8 text" in capsys.readouterr().err
        self._assert_refused_at_read_scores(out, before)

    @staticmethod
    def _assert_refused_at_read_scores(out, before):
        manifest = json.loads((out / MANIFEST_JSON).read_text())
        assert manifest["failed_stage"] == manifest["stages"][-1]["stage"] == "read_scores"
        assert manifest["artifacts"] == []
        assert {name: (out / name).read_bytes() for name in ARTIFACTS} == before


class TestCorpusChangedAfterIngest:
    """Scoring reads each window's records again at the positions ingest
    indexed, and refuses a corpus that is no longer the one it indexed."""

    def _score_after(self, fixture, tmp_path, monkeypatch, rewrite, workers=1):
        corpus = tmp_path / "corpus.jsonl"
        shutil.copyfile(fixture.corpus_path, corpus)
        config = tmp_path / "cfg.yaml"
        config.write_text(_rewritten_config(fixture, corpus=corpus, out=tmp_path / "out"))
        assign = pipeline.assign_windows

        def rewrite_then_assign(*args, **kwargs):
            # between the ingest pass and the first window's read
            before = corpus.stat()
            corpus.write_bytes(rewrite(corpus.read_bytes()))
            # an edit that keeps the size and the modification time leaves
            # the check of each re-read record to catch it
            if corpus.stat().st_size == before.st_size:
                os.utime(corpus, ns=(before.st_atime_ns, before.st_mtime_ns))
            return assign(*args, **kwargs)

        monkeypatch.setattr(pipeline, "assign_windows", rewrite_then_assign)
        with pytest.raises(PipelineError, match=f"corpus {corpus} changed after ingest") as err:
            run_pipeline(validate_config(config), workers=workers, stage_mode="score")
        manifest = json.loads((tmp_path / "out" / MANIFEST_JSON).read_text())
        assert manifest["failed_stage"] == manifest["stages"][-1]["stage"] == "scores"
        assert not (tmp_path / "out" / SCORES_CSV).exists()
        return str(err.value)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_grown_corpus_is_refused(self, fixture, tmp_path, monkeypatch, workers):
        grow = lambda data: data + b'{"id": "late", "date": "2021-01-04", "title": "t", "body": "b"}\n'
        message = self._score_after(fixture, tmp_path, monkeypatch, grow, workers)
        assert "its size or modification time differs" in message

    def test_swapped_ids_are_refused_at_an_unchanged_size_and_time(self, fixture, tmp_path, monkeypatch):
        swap = lambda data: data.replace(b"doc-00000", b"doc-swap0").replace(b"doc-00001", b"doc-00000").replace(
            b"doc-swap0", b"doc-00001"
        )
        message = self._score_after(fixture, tmp_path, monkeypatch, swap)
        assert "has id 'doc-00001', not 'doc-00000'" in message

    def test_a_record_that_no_longer_loads_is_refused(self, fixture, tmp_path, monkeypatch):
        # the first record's opening brace becomes a space
        message = self._score_after(fixture, tmp_path, monkeypatch, lambda data: b" " + data[1:])
        assert "the record at byte 0 no longer loads: invalid JSON" in message


def _corpus_in_both_formats(fx, root: Path) -> dict[str, Path]:
    """The fixture's records as JSON Lines and as CSV, and each again with
    lone \\r line ends. Some bodies hold a newline and NFD accents; the CSV
    has CRLF line ends and a byte-order mark, so those bodies are quoted
    fields that span lines."""
    records = [json.loads(line) for line in fx.corpus_path.read_text(encoding="utf-8").splitlines()]
    for i, rec in enumerate(records):
        if i % 3 == 0:
            rec["body"] = rec["body"].replace(" ", "\n", 2)
        if i % 4 == 0:
            rec["body"] += " Caffe\u0301 citta\u0300 economy\n"
    paths = {"jsonl": root / "corpus.jsonl", "csv": root / "corpus.csv"}
    paths["jsonl"].write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
    columns = ["id", "date", "title", "body", "source"]
    with paths["csv"].open("w", encoding="utf-8-sig", newline="") as fh:
        writer = csv.writer(fh)  # CRLF line ends
        writer.writerow(columns)
        writer.writerows([rec[c] for c in columns] for rec in records)
    # JSON escapes a newline inside a string, and no CSV cell holds a \r\n
    for fmt, line_end in (("jsonl", b"\n"), ("csv", b"\r\n")):
        paths[f"{fmt} with lone CR"] = root / f"corpus_cr.{fmt}"
        paths[f"{fmt} with lone CR"].write_bytes(paths[fmt].read_bytes().replace(line_end, b"\r"))
    return paths


@pytest.fixture(scope="module")
def two_format_fixture(tmp_path_factory):
    fx = make_fixture(tmp_path_factory.mktemp("formats"), seed=21, n_docs=160, n_months=4)
    return fx, _corpus_in_both_formats(fx, fx.root)


# sha256 of the five data artifacts of two_format_fixture, whatever the
# corpus format, the worker count and the pool's start method
TWO_FORMAT_SHA256 = {
    SCORES_CSV: "ca35cc191ca49c021866c91155b4168e5d70c7c5d2f0b393abbbd250dd282aa9",
    WEEKLY_CSV: "c425d7027d3022dbd1978ae5b787beca61fc5183b64238daa2d0713259e0ddb9",
    GRANGER_CSV: "7975a7b7dbccf334faab6f25c8e29b64bc2ca12fe9f1a9873449d9fa0afd2603",
    QUESTIONS_CSV: "55e8a184d7acae3b9e13a6455da3cd997e6090de727e136cc69b08de7ab21ce5",
    PLOT_CSV: "7dc0330a3d6621a994992bbcaf8034d9c8ef99b38d429af4548786c2d6cb45e7",
}


@pytest.mark.parametrize(
    "fmt, workers, start_method",
    [
        ("jsonl", 1, None),
        ("csv", 1, None),
        ("jsonl", 2, None),
        ("csv", 2, None),
        ("csv", "more than windows", None),
        ("csv", 2, "spawn"),
        ("csv", 2, "forkserver"),
        ("jsonl with lone CR", 1, None),
        ("csv with lone CR", 2, None),
    ],
)
def test_artifacts_do_not_depend_on_corpus_format_or_workers(
    two_format_fixture, tmp_path, monkeypatch, fmt, workers, start_method
):
    fx, corpora = two_format_fixture
    if start_method is not None:
        if start_method not in START_METHODS:
            pytest.skip(f"no {start_method} start method on this platform")
        _pool_with(monkeypatch, start_method)
    conf = yaml.safe_load(_rewritten_config(fx, corpus=corpora[fmt], out=tmp_path))
    conf["corpus"]["format"] = fmt.split()[0]
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump(conf))
    workers = fx.n_windows + 1 if workers == "more than windows" else workers
    manifest = run_pipeline(validate_config(config), workers=workers)
    assert manifest["corpus"]["loaded"] == fx.n_docs
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ARTIFACTS}
    assert digests == TWO_FORMAT_SHA256


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_a_record_that_is_not_utf8_is_rejected_and_the_run_goes_on(two_format_fixture, tmp_path, fmt):
    # a Latin-1 byte used to end the run at stage ingest with a bare UnicodeDecodeError
    fx, corpora = two_format_fixture
    data = corpora[fmt].read_bytes()
    # the first record's body ends "citta\u0300 economy", its accent decomposed
    # (escaped in JSON Lines); in CSV that is the third line of a quoted cell
    spelled = {"jsonl": b"citta\\u0300", "csv": "citta\u0300".encode()}[fmt]
    assert spelled in data
    corpus = tmp_path / f"corpus.{fmt}"
    corpus.write_bytes(data.replace(spelled, "citt\u00e0".encode("latin-1"), 1))
    conf = yaml.safe_load(_rewritten_config(fx, corpus=corpus, out=tmp_path / "out"))
    conf["corpus"]["format"] = fmt
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump(conf))
    manifest = run_pipeline(validate_config(config), stage_mode="score")
    assert (manifest["corpus"]["loaded"], manifest["corpus"]["rejected"]) == (fx.n_docs - 1, 1)
    assert (tmp_path / "out" / SCORES_CSV).exists()


class TestCli:
    def test_validate_ok(self, fixture, capsys):
        assert cli_main(["validate", "--config", str(fixture.config_path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_failure_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("window_size: 0\n")
        assert cli_main(["validate", "--config", str(bad)]) == 1
        assert "window_size" in capsys.readouterr().err

    @staticmethod
    def _after(argv: list[str], **env: str) -> dict:
        """What a fresh interpreter holds after ``sbsflow <argv>`` succeeds under
        ``env``: its ``modules`` (so modules imported by the suite do not count),
        its ``OPENBLAS_NUM_THREADS`` and its ``threads`` (None where there is no
        ``/proc/self/task``). ``OPENBLAS_NUM_THREADS`` is unset unless given."""
        code = (
            "import json, os, sys\n"
            "from sbsflow.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "tasks = '/proc/self/task'\n"
            "print(json.dumps({\n"
            "    'modules': sorted(sys.modules),\n"
            "    'OPENBLAS_NUM_THREADS': os.environ.get('OPENBLAS_NUM_THREADS'),\n"
            "    'threads': len(os.listdir(tasks)) if os.path.isdir(tasks) else None,\n"
            "}))\n"
        )
        src = str(Path(sbsflow.__file__).parents[1])
        base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        pythonpath = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**base, "PYTHONPATH": pythonpath, **env},
        )
        after = json.loads(done.stdout.splitlines()[-1])
        return {**after, "modules": set(after["modules"])}

    def test_validate_loads_no_numeric_stack(self, fixture):
        modules = self._after(["validate", "--config", str(fixture.config_path)])["modules"]
        assert sorted(m for m in modules if m.startswith(("numpy", "scipy"))) == []

    def test_test_loads_neither_network_nor_special_nor_sparse(self, fixture, tmp_path):
        out = str(tmp_path / "o")
        assert cli_main(["score", "--config", str(fixture.config_path), "--out", out]) == 0
        modules = self._after(["test", "--config", str(fixture.config_path), "--out", out])["modules"]
        assert "scipy.linalg" in modules  # the battery's least squares
        loaded = {"scipy.special", "scipy.sparse", "sbsflow.network"} & modules
        assert loaded == set()

    def test_run_loads_no_special(self, fixture, tmp_path):
        argv = ["run", "--config", str(fixture.config_path), "--out", str(tmp_path / "o")]
        modules = self._after(argv)["modules"]
        assert "scipy.sparse" in modules  # betweenness distances
        assert "scipy.special" not in modules

    def test_run_keeps_one_blas_thread(self, fixture, tmp_path):
        # serial: OpenBLAS stops its helper threads before a fork, so only a
        # run that forks no pool would still show them
        argv = ["run", "--config", str(fixture.config_path), "--out", str(tmp_path / "o")]
        after = self._after([*argv, "--workers", "1"])
        assert after["OPENBLAS_NUM_THREADS"] == "1"
        assert after["threads"] in (1, None)

    def test_exported_blas_thread_count_wins(self, fixture, tmp_path):
        argv = ["run", "--config", str(fixture.config_path), "--out", str(tmp_path / "o")]
        after = self._after(argv, OPENBLAS_NUM_THREADS="2")
        assert after["OPENBLAS_NUM_THREADS"] == "2"

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

    @staticmethod
    def _config_with_vitamin_d(fixture, tmp_path, **overrides):
        registry = tmp_path / "keywords.yaml"
        registry.write_text(fixture.registry_path.read_text() + '- label: vitamin_d\n  members: ["vitamin d"]\n')
        config = tmp_path / "cfg.yaml"
        config.write_text(_rewritten_config(fixture, out=tmp_path / "out", registry=str(registry), **overrides))
        return config

    @pytest.mark.parametrize("command", ["run", "score", "test"])
    def test_registry_member_no_text_keeps_exit_2_at_registry_stage(
        self, fixture, tmp_path, capsys, command
    ):
        # at min_token_len 2 the member compiled and then scored zeros every week
        config = self._config_with_vitamin_d(fixture, tmp_path)
        out = tmp_path / "out"
        # validate reads no registry
        assert cli_main(["validate", "--config", str(config)]) == 0
        assert cli_main([command, "--config", str(config)]) == 2
        assert "'vitamin d' of 'vitamin_d' has the word 'd'" in capsys.readouterr().err
        manifest = json.loads((out / MANIFEST_JSON).read_text())
        assert manifest["failed_stage"] == manifest["stages"][-1]["stage"] == "registry"
        assert manifest["artifacts"] == []
        assert not [name for name in ARTIFACTS if (out / name).exists()]

    def test_registry_compiled_at_the_configs_min_token_len(self, fixture, tmp_path):
        config = self._config_with_vitamin_d(fixture, tmp_path, min_token_len=1)
        assert cli_main(["score", "--config", str(config)]) == 0

    def test_score_then_test_subcommands(self, fixture, tmp_path):
        out = tmp_path / "o"
        assert cli_main(["score", "--config", str(fixture.config_path), "--out", str(out)]) == 0
        assert cli_main(["test", "--config", str(fixture.config_path), "--out", str(out)]) == 0
        for name in ARTIFACTS:
            assert (out / name).is_file()
