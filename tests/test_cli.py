import base64
import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from atlasflow import atlas, cli
from atlasflow import cover as cov
from atlasflow import flow as fl
from atlasflow import synth


def _run(argv):
    return cli.main(argv)


def _read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def torus_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "torus.csv"
    rc = _run(["synth", "--manifold", "torus", "--n", "1200", "--noise", "0.1",
               "--seed", "0", "-o", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def cover_json(torus_csv, tmp_path_factory):
    path = tmp_path_factory.mktemp("cover") / "cover.json"
    rc = _run(["cover", "--data", str(torus_csv), "--n-cubes", "5",
               "--perc-overlap", "0.45", "--threshold", "1.0", "-o", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def tiny_checkpoint(torus_csv, cover_json, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    ckpt = out / "model.json"
    log = out / "log.csv"
    rc = _run([
        "train", "--data", str(torus_csv), "--cover", str(cover_json),
        "--layers", "3", "--hidden", "16,16",
        "--epochs-e1", "2", "--epochs-e2", "2", "--epochs-e3", "2",
        "--epochs-e4", "2", "--epochs-e5", "2",
        "--seed", "1", "--log", str(log), "-o", str(ckpt),
    ])
    assert rc == 0
    return ckpt, log


class TestSynthCommand:
    def test_row_count_and_header(self, torus_csv):
        lines = torus_csv.read_text().splitlines()
        assert lines[0] == "x0,x1,x2,t0,t1"
        assert len(lines) == 1201

    def test_unknown_manifold_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["synth", "--manifold", "klein", "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "trefoil" in err and "torus" in err

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            _run(["synth", "--manifold", "trefoil", "--n", "300", "--seed", "7", "-o", str(path)])
        assert a.read_bytes() == b.read_bytes()


class TestCoverCommand:
    def test_chart_count_printed(self, torus_csv, tmp_path, capsys):
        out = tmp_path / "c.json"
        _run(["cover", "--data", str(torus_csv), "-o", str(out)])
        stdout = capsys.readouterr().out
        cover = cov.load_cover(out)
        assert f"{cover.n_charts} charts" in stdout
        assert f"{len(cover.nerve_edges)} nerve edges" in stdout

    def test_torus_six_charts_at_paper_scale(self, tmp_path, capsys):
        data = tmp_path / "torus10k.csv"
        _run(["synth", "--manifold", "torus", "--n", "10000", "--seed", "0", "-o", str(data)])
        out = tmp_path / "c.json"
        _run(["cover", "--data", str(data), "-o", str(out)])
        assert "6 charts" in capsys.readouterr().out

    def test_trefoil_four_charts(self, tmp_path, capsys):
        data = tmp_path / "knot.csv"
        _run(["synth", "--manifold", "trefoil", "--n", "4000", "--seed", "0", "-o", str(data)])
        out = tmp_path / "c.json"
        _run(["cover", "--data", str(data), "--n-cubes", "2", "--perc-overlap", "0.2",
              "--n-latent", "1", "-o", str(out)])
        assert "4 charts" in capsys.readouterr().out

    def test_zero_overlap_no_nerve_edges(self, torus_csv, tmp_path):
        out = tmp_path / "c.json"
        _run(["cover", "--data", str(torus_csv), "--perc-overlap", "0", "-o", str(out)])
        cover = cov.load_cover(out)
        assert len(cover.nerve_edges) == 0

    def test_defaults_match_explicit_flags(self, torus_csv, cover_json, tmp_path):
        out = tmp_path / "c.json"
        _run(["cover", "--data", str(torus_csv), "-o", str(out)])
        assert out.read_bytes() == cover_json.read_bytes()

    def test_bad_mapper_flag_exit_2(self, torus_csv, tmp_path, capsys):
        rc = _run(["cover", "--data", str(torus_csv), "--n-cubes", "0", "-o", str(tmp_path / "c.json")])
        assert rc == 2
        assert "n_cubes must be >= 1" in capsys.readouterr().err

    def test_degenerate_lens_exit_3(self, tmp_path):
        data = tmp_path / "const.csv"
        with open(data, "w") as fh:
            fh.write("x0,x1\n")
            for _ in range(10):
                fh.write("1.0,2.0\n")
        rc = _run(["cover", "--data", str(data), "-o", str(tmp_path / "c.json")])
        assert rc == 3


def _json_edited(edit):
    """Maker of a JSON file changed in place by ``edit(payload)``."""
    def make(text):
        payload = json.loads(text)
        edit(payload)
        return json.dumps(payload).encode()
    return make


def _edited(key, value=None):
    """Maker of a cover file with ``key`` dropped (value None) or replaced."""
    def make(text):
        payload = json.loads(text)
        if value is None:
            del payload[key]
        else:
            payload[key] = value
        return json.dumps(payload).encode()
    return make


class TestBadCoverFile:
    @pytest.mark.parametrize("make, detail", [
        pytest.param(lambda text: text[: len(text) // 2].encode(), "parse error at byte", id="truncated"),
        pytest.param(_edited("charts"), "missing key 'charts'", id="missing-key"),
        pytest.param(_edited("charts", [[0, 1]]), "point 2 is not covered", id="uncovered"),
        pytest.param(_edited("charts", [[-1]]), "chart 0 indexes a point outside", id="negative-index"),
        pytest.param(_json_edited(lambda p: p["charts"][0].__setitem__(0, 0.5)),
                     "charts[0]: expected integer indices", id="fractional-index"),
        pytest.param(_json_edited(lambda p: p["charts"].__setitem__(0, [p["charts"][0]])),
                     "charts[0]: expected a flat list of indices, got 2-D", id="nested-chart"),
        pytest.param(_json_edited(lambda p: p["nerve_edges"].append([0, 99])),
                     "nerve_edges: disagrees with the charts", id="nerve-names-missing-chart"),
        pytest.param(_edited("nerve_edges", []), "nerve_edges: disagrees with the charts", id="emptied-nerve"),
        pytest.param(_json_edited(lambda p: p["multiplicity"].__setitem__(0, p["multiplicity"][0] + 1)),
                     "multiplicity: disagrees with the charts", id="edited-multiplicity"),
        pytest.param(lambda text: b"x0,x1,x2\n1,2,3\n", "parse error at byte 0", id="not-json"),
        pytest.param(lambda text: b"[1, 2, 3]", "not a cover file", id="not-a-cover"),
        pytest.param(lambda text: b"\xff\xfe\x00garbage", "not UTF-8 text at byte 0", id="binary"),
        pytest.param(None, "cannot read cover", id="missing-file"),
    ])
    def test_unusable_cover_exit_7(self, torus_csv, cover_json, tmp_path, capsys, make, detail):
        bad = tmp_path / "cover.json"
        if make is not None:
            bad.write_bytes(make(cover_json.read_text()))
        rc = _run(["train", "--data", str(torus_csv), "--cover", str(bad), "-o", str(tmp_path / "m.json")])
        assert rc == 7
        err = capsys.readouterr().err
        assert str(bad) in err and detail in err


class TestTrainCommand:
    def test_checkpoint_loadable_and_log_written(self, tiny_checkpoint):
        ckpt, log = tiny_checkpoint
        model = atlas.load(ckpt)
        assert model.dim == 3
        rows = _read_rows(log)
        assert {r["phase"] for r in rows} == {"1", "2", "3", "4", "5"}

    def test_same_seed_identical_checkpoint(self, torus_csv, cover_json, tmp_path):
        digests = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            _run(["train", "--data", str(torus_csv), "--cover", str(cover_json),
                  "--layers", "2", "--hidden", "8,8",
                  "--epochs-e1", "1", "--epochs-e2", "1", "--epochs-e3", "1",
                  "--epochs-e4", "1", "--epochs-e5", "1",
                  "--seed", "5", "-o", str(out)])
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_unknown_config_key_exit_2(self, torus_csv, cover_json, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_key": 1}))
        rc = _run(["train", "--data", str(torus_csv), "--cover", str(cover_json),
                   "--config", str(cfg), "-o", str(tmp_path / "m.json")])
        assert rc == 2

    @pytest.mark.parametrize("config, detail", [
        ({"mapper": {"n_cubes": 0}}, "n_cubes"),
        ({"mapper": 5}, "MapperConfig"),
        ({"epochs": 5}, "epochs must be a list of integers, got 5"),
        ({"learning_rate": "x"}, "learning_rate must be a number, got 'x'"),
        ({"seed": "x"}, "seed must be an integer, got 'x'"),
        ({"hidden": 64}, "hidden must be a list of integers, got 64"),
        ({"hidden": [64, "x"]}, "hidden must be a list of integers, got [64, 'x']"),
        ({"mapper": [2, 0.2]}, "mapper must be an object of MapperConfig fields, got [2, 0.2]"),
    ], ids=["mapper-n-cubes-0", "mapper-not-object", "epochs-not-list", "learning-rate-not-number",
            "seed-not-integer", "hidden-not-list", "hidden-not-integers", "mapper-list"])
    def test_malformed_config_value_exit_2(self, torus_csv, cover_json, tmp_path, capsys, config, detail):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        rc = _run(["train", "--data", str(torus_csv), "--cover", str(cover_json),
                   "--config", str(cfg), "-o", str(tmp_path / "m.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and detail in err

    def test_malformed_hidden_flag_exit_2(self, torus_csv, cover_json, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["train", "--data", str(torus_csv), "--cover", str(cover_json), "--hidden", "8,x",
                  "-o", str(tmp_path / "m.json")])
        assert exc.value.code == 2
        assert "argument --hidden: expected comma-separated integers, got '8,x'" in capsys.readouterr().err

    def test_config_file_and_flag_precedence(self, torus_csv, cover_json, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_layers": 2, "hidden": [8, 8], "epochs": [1, 1, 1, 1, 1], "seed": 3,
        }))
        out = tmp_path / "m.json"
        rc = _run(["train", "--data", str(torus_csv), "--cover", str(cover_json),
                   "--config", str(cfg), "--epochs-e5", "0", "-o", str(out)])
        assert rc == 0
        model = atlas.load(out)
        assert model.config.n_layers == 2
        assert model.config.epochs == (1, 1, 1, 1, 0)


    @pytest.mark.parametrize("env_seed, config_seed, flag_seed, expected", [
        ("0", None, None, 0),
        ("5", None, None, 5),
        ("5", 3, None, 3),
        ("5", 3, 7, 7),
    ], ids=["env-0", "env-5", "config-over-env", "flag-over-config"])
    def test_seed_precedence(self, torus_csv, cover_json, tmp_path, monkeypatch,
                             env_seed, config_seed, flag_seed, expected):
        monkeypatch.setenv("ATLASFLOW_SEED", env_seed)
        argv = ["train", "--data", str(torus_csv), "--cover", str(cover_json), "--layers", "2",
                "--hidden", "8,8", "--epochs-e1", "0", "--epochs-e2", "0", "--epochs-e3", "0",
                "--epochs-e4", "0", "--epochs-e5", "0", "-o", str(tmp_path / "m.json")]
        if config_seed is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seed": config_seed}))
            argv += ["--config", str(cfg)]
        if flag_seed is not None:
            argv += ["--seed", str(flag_seed)]
        assert _run(argv) == 0
        assert atlas.load(tmp_path / "m.json").config.seed == expected

    def test_env_seeds_write_different_checkpoints(self, torus_csv, cover_json, tmp_path, monkeypatch):
        models = {}
        for seed in ("0", "5"):
            monkeypatch.setenv("ATLASFLOW_SEED", seed)
            out = tmp_path / f"m{seed}.json"
            assert _run(["train", "--data", str(torus_csv), "--cover", str(cover_json), "--layers", "2",
                         "--hidden", "8,8", "--epochs-e1", "1", "--epochs-e2", "0", "--epochs-e3", "0",
                         "--epochs-e4", "0", "--epochs-e5", "0", "-o", str(out)]) == 0
            models[seed] = out.read_bytes()
        assert models["0"] != models["5"]

    @pytest.mark.parametrize("var, value, argv", [
        ("ATLASFLOW_THREADS", "abc", "train"),
        ("ATLASFLOW_THREADS", "0", "train"),
        ("ATLASFLOW_SEED", "abc", "train"),
        ("ATLASFLOW_SEED", "-1", "synth"),
    ], ids=["threads-not-integer", "threads-zero", "seed-not-integer", "seed-negative"])
    def test_malformed_environment_exit_2(self, torus_csv, cover_json, tmp_path, capsys, monkeypatch,
                                          var, value, argv):
        monkeypatch.setenv(var, value)
        if argv == "train":
            argv = ["train", "--data", str(torus_csv), "--cover", str(cover_json), "--layers", "2",
                    "--hidden", "8,8", "--epochs-e1", "1", "-o", str(tmp_path / "m.json")]
        else:
            argv = ["synth", "--manifold", "torus", "--n", "10", "-o", str(tmp_path / "x.csv")]
        assert _run(argv) == 2
        assert f"${var}={value!r}" in capsys.readouterr().err

    def test_isomap_pool_writes_serial_bytes(self, torus_csv, cover_json, tmp_path, monkeypatch, pool_pids):
        monkeypatch.setattr(atlas, "POOL_MIN_ROW_LAYERS", 0)
        outputs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("ATLASFLOW_THREADS", threads)
            ckpt, log = tmp_path / f"m{threads}.json", tmp_path / f"log{threads}.csv"
            assert _run(["train", "--data", str(torus_csv), "--cover", str(cover_json), "--layers", "2",
                         "--hidden", "8,8", "--epochs-e1", "1", "--epochs-e2", "1", "--epochs-e3", "1",
                         "--epochs-e4", "1", "--epochs-e5", "1", "--seed", "2", "--log", str(log),
                         "-o", str(ckpt)]) == 0
            outputs[threads] = (ckpt.read_bytes(), log.read_bytes(), pool_pids()["isomap"])
        assert outputs["1"][2] == {os.getpid()}
        assert outputs["2"][2] and os.getpid() not in outputs["2"][2]
        assert outputs["1"][:2] == outputs["2"][:2]

    def test_training_pool_writes_serial_bytes(self, torus_csv, cover_json, tmp_path, monkeypatch, pool_pids):
        monkeypatch.setattr(atlas, "POOL_MIN_ROW_LAYERS", 0)
        outputs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("ATLASFLOW_THREADS", threads)
            ckpt, log = tmp_path / f"m{threads}.json", tmp_path / f"log{threads}.csv"
            assert _run(["train", "--data", str(torus_csv), "--cover", str(cover_json), "--layers", "2",
                         "--hidden", "8,8", "--epochs-e1", "1", "--epochs-e2", "1", "--epochs-e3", "1",
                         "--epochs-e4", "3", "--epochs-e5", "1", "--cs", "2", "--seed", "2",
                         "--log", str(log), "-o", str(ckpt)]) == 0
            outputs[threads] = (ckpt.read_bytes(), log.read_bytes(), pool_pids()["train"])
        assert outputs["1"][2] == {os.getpid()}
        assert outputs["2"][2] and os.getpid() not in outputs["2"][2]
        assert outputs["1"][:2] == outputs["2"][:2]


class TestSampleCommand:
    def test_row_count_and_chart_column(self, tiny_checkpoint, tmp_path):
        ckpt, _ = tiny_checkpoint
        out = tmp_path / "samples.csv"
        rc = _run(["sample", "--checkpoint", str(ckpt), "--count", "800",
                   "--seed", "2", "-o", str(out)])
        assert rc == 0
        rows = _read_rows(out)
        assert len(rows) == 800
        model = atlas.load(ckpt)
        charts = np.array([int(r["chart"]) for r in rows])
        assert charts.min() >= 0 and charts.max() < len(model.charts)

    def test_chart_frequencies_match_weights(self, tiny_checkpoint, tmp_path):
        ckpt, _ = tiny_checkpoint
        out = tmp_path / "samples.csv"
        n = 4000
        _run(["sample", "--checkpoint", str(ckpt), "--count", str(n), "--seed", "3", "-o", str(out)])
        model = atlas.load(ckpt)
        charts = np.array([int(r["chart"]) for r in _read_rows(out)])
        counts = np.bincount(charts, minlength=len(model.charts))
        for k, c_k in enumerate(model.c):
            sigma = np.sqrt(n * c_k * (1 - c_k))
            assert abs(counts[k] - n * c_k) <= 3 * sigma + 1

    def test_corrupt_checkpoint_exit_5(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        rc = _run(["sample", "--checkpoint", str(bad), "--count", "10", "-o", str(tmp_path / "s.csv")])
        assert rc == 5

    @pytest.mark.parametrize("content, detail", [
        (None, "cannot read checkpoint"),
        (b"\xff\xfe\x00garbage", "not UTF-8 text at byte 0"),
    ], ids=["missing-file", "binary"])
    def test_unreadable_checkpoint_exit_5(self, tmp_path, capsys, content, detail):
        bad = tmp_path / "model.json"
        if content is not None:
            bad.write_bytes(content)
        rc = _run(["sample", "--checkpoint", str(bad), "--count", "10", "-o", str(tmp_path / "s.csv")])
        assert rc == 5
        err = capsys.readouterr().err
        assert str(bad) in err and detail in err


def _layer(payload, flow="phi"):
    return payload["charts"][0][flow]["layers"][0]


def _nan_block(entry):
    """Set the first value of a base64 parameter block to NaN."""
    values = np.frombuffer(base64.b64decode(entry["f8"]), dtype="<f8").copy()
    values[0] = np.nan
    entry["f8"] = base64.b64encode(values.tobytes()).decode("ascii")


# parts that decode on their own but disagree with each other
_INCONSISTENT = [
    pytest.param(_json_edited(lambda p: _layer(p).update(bound=-1.0)),
                 "charts[0].phi.layers[0]: bound must be finite and positive, got -1.0", id="bound-negative"),
    pytest.param(_json_edited(lambda p: _layer(p, "gamma").update(bound=0.0)),
                 "charts[0].gamma.layers[0]: bound must be finite and positive, got 0.0", id="bound-zero"),
    pytest.param(_json_edited(lambda p: p.update(latent_dim=1)),
                 "latent_dim: 1 != config.latent_dim 2", id="latent-dim-differs"),
    pytest.param(_json_edited(lambda p: p.update(dim=2)), "dim: 2 != charts[0].phi.dim 3", id="dim-differs"),
    pytest.param(_json_edited(lambda p: p["charts"][0].update(chart_id=7)),
                 "charts[0].chart_id: 7 is not the chart's position 0", id="chart-id-not-position"),
    pytest.param(_json_edited(lambda p: p["config"].update(n_layers=5)),
                 "config.n_layers: 5 != the 3 layers of charts[0].phi", id="n-layers-differs"),
    pytest.param(_json_edited(lambda p: p["charts"].append(p["charts"][0])),
                 "charts: 8 chart models for the cover's 7 charts", id="extra-chart"),
]


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("make, detail", _INCONSISTENT + [
        pytest.param(lambda text: b'{"format_version": 1}', "missing key 'dim'", id="v1-stub"),
        pytest.param(_json_edited(lambda p: p.pop("cover")), "missing key 'cover'", id="missing-cover"),
        pytest.param(_json_edited(lambda p: _layer(p)["conditioner"].pop("weights")),
                     "charts[0].phi.layers[0].conditioner: missing key 'weights'", id="missing-weights"),
        pytest.param(_json_edited(lambda p: p.update(dim="three")), "dim: invalid literal", id="dim-not-int"),
        pytest.param(_json_edited(lambda p: p["cover"].update(charts=5)), "cover.charts: ", id="charts-not-list"),
        pytest.param(_json_edited(lambda p: p["charts"].__setitem__(1, 7)),
                     "charts[1]: int has no key", id="chart-not-object"),
        pytest.param(_json_edited(lambda p: _layer(p)["conditioner"]["biases"][0].update(f8="not base64!")),
                     "charts[0].phi.layers[0].conditioner.biases[0]: 'f8' is not base64", id="bad-base64"),
        pytest.param(_json_edited(lambda p: _layer(p, "gamma")["conditioner"]["weights"][1].update(shape=[3, 3])),
                     "charts[0].gamma.layers[0].conditioner.weights[1]: 'f8' holds", id="byte-count"),
        pytest.param(_json_edited(lambda p: _layer(p)["conditioner"]["weights"][0]["shape"].reverse()),
                     "charts[0].phi.layers[0].conditioner", id="wrong-shape"),
        pytest.param(_json_edited(lambda p: p["config"].update(bogus=1)),
                     "argument 'bogus'", id="unknown-config-key"),
        pytest.param(_json_edited(lambda p: p["config"].update(lambda_p=5.0)),
                     "config: lambda_p must lie in (0, 1]", id="invalid-config"),
        pytest.param(_json_edited(lambda p: p["charts"][0].update(c_k=p["charts"][0]["c_k"] / 2)),
                     "chart weights c_k sum to", id="weights-not-normalized"),
        pytest.param(_json_edited(lambda p: p["cover"]["charts"][0].append(10**6)),
                     "cover: chart 0 indexes a point outside", id="cover-index"),
        pytest.param(_json_edited(lambda p: p["charts"][0].update(members=[1.5, 1000000000])),
                     "charts[0].members: expected integer indices", id="members-not-integer"),
        pytest.param(_json_edited(lambda p: p["charts"][1]["members"].pop()),
                     "charts[1].members: differ from cover.charts[1]", id="members-differ"),
        pytest.param(_json_edited(lambda p: _layer(p).update(tr_idx=[_layer(p)["tr_idx"]])),
                     "charts[0].phi.layers[0].tr_idx: expected a flat list of indices, got 2-D",
                     id="nested-tr-idx"),
        pytest.param(_json_edited(lambda p: _layer(p).update(tr_idx=[7])),
                     "charts[0].phi.layers[0]: id_idx [0, 1] and tr_idx [7] must split the coordinates 0..2",
                     id="tr-idx-out-of-range"),
        pytest.param(_json_edited(lambda p: _layer(p).update(id_idx=[0, 0])),
                     "charts[0].phi.layers[0]: id_idx [0, 0] and tr_idx [2] must split the coordinates 0..2",
                     id="id-idx-repeated"),
        pytest.param(_json_edited(lambda p: _layer(p)["conditioner"].update(activation="relu")),
                     "charts[0].phi.layers[0].conditioner.activation: 'relu' unsupported", id="activation-relu"),
        pytest.param(_json_edited(lambda p: p["cover"]["nerve_edges"].pop()),
                     "cover.nerve_edges: disagrees with the charts", id="cover-nerve-edited"),
        pytest.param(_json_edited(lambda p: _nan_block(_layer(p)["conditioner"]["biases"][1])),
                     "charts[0].phi.layers[0].conditioner.biases[1]: non-finite value at index (0,)",
                     id="non-finite-parameter"),
    ])
    def test_malformed_checkpoint_exit_5(self, tiny_checkpoint, tmp_path, capsys, make, detail):
        ckpt, _ = tiny_checkpoint
        bad = tmp_path / "model.json"
        bad.write_bytes(make(ckpt.read_text()))
        rc = _run(["sample", "--checkpoint", str(bad), "--count", "10", "-o", str(tmp_path / "s.csv")])
        assert rc == 5
        err = capsys.readouterr().err
        assert str(bad) in err and detail in err

    @pytest.mark.parametrize("make, detail", _INCONSISTENT)
    def test_inconsistent_checkpoint_exit_5_in_density(self, tiny_checkpoint, torus_csv, tmp_path, capsys,
                                                       make, detail):
        ckpt, _ = tiny_checkpoint
        bad = tmp_path / "model.json"
        bad.write_bytes(make(ckpt.read_text()))
        rc = _run(["density", "--data", str(torus_csv), "--checkpoint", str(bad), "-o", str(tmp_path / "d.csv")])
        assert rc == 5
        err = capsys.readouterr().err
        assert str(bad) in err and detail in err


class TestBadPointCsv:
    @pytest.mark.parametrize("content, detail", [
        (b"x0,x1,x2\n1,2,3\n4,5\n6,7,8\n", "line 3: row width differs"),
        (b"x0,x1\n1,2,3\n4,5,6\n", "line 2: row width differs"),
        (b"x0,x1,x2\n1,2,3\n\n4,5,6\n7,eight,9\n", "line 5: could not convert string to float"),
        (b"x0,x1,x2\n", "no data rows"),
        (b"a,b,c\n1,2,3\n", "no coordinate columns"),
        (b"", "no coordinate columns"),
        (None, "cannot read point CSV"),
    ], ids=["ragged", "wider-than-header", "non-numeric", "header-only", "no-x-header", "empty", "missing-file"])
    def test_unusable_csv_exit_8(self, tmp_path, capsys, content, detail):
        bad = tmp_path / "points.csv"
        if content is not None:
            bad.write_bytes(content)
        rc = _run(["cover", "--data", str(bad), "-o", str(tmp_path / "c.json")])
        assert rc == 8
        err = capsys.readouterr().err
        assert str(bad) in err and detail in err


def _write_points(path, points):
    np.savetxt(path, points, delimiter=",", header="x0,x1,x2", comments="")


def _train_on(points):
    """Maker of ``train`` argv on a cloud written and covered in ``tmp_path``."""
    def make(tmp_path, monkeypatch, ckpt, torus_csv):
        data, cover = tmp_path / "points.csv", tmp_path / "cover.json"
        _write_points(data, points)
        assert _run(["cover", "--data", str(data), "-o", str(cover)]) == 0
        return ["train", "--preset", "torus", "--data", str(data), "--cover", str(cover),
                "-o", str(tmp_path / "model.json")]
    return make


def _density_flat_embedding(tmp_path, monkeypatch, ckpt, torus_csv):
    # a constant embedding has a zero Jacobian, so every Gram matrix is singular
    monkeypatch.setattr(fl, "embed_latent", lambda f, v: np.zeros((len(v), f.dim)))
    return ["density", "--data", str(torus_csv), "--checkpoint", str(ckpt),
            "-o", str(tmp_path / "density.csv")]


_LINE = np.outer(np.linspace(0.0, 10.0, 300), [1.0, 2.0, -1.0])
# two far-apart stacks of exact duplicates: each is one chart, and a chart of
# duplicates has no nonzero edge, whatever the neighbor count
_DUPLICATES = np.repeat([[0.0, 0.0, 0.0], [10.0, 1.0, 0.0]], 150, axis=0)


class TestNumericExits:
    @pytest.mark.parametrize("make, code, detail", [
        pytest.param(_train_on(_LINE), 9, "top-2 eigenvalue not positive", id="collinear-line"),
        pytest.param(_density_flat_embedding, 9, "embedding Gram matrix is singular", id="singular-gram"),
        pytest.param(_train_on(_DUPLICATES), 10, "graph disconnected", id="duplicate-chart"),
    ])
    def test_typed_exit(self, tmp_path, monkeypatch, capsys, tiny_checkpoint, torus_csv, make, code, detail):
        argv = make(tmp_path, monkeypatch, tiny_checkpoint[0], torus_csv)
        capsys.readouterr()
        assert _run(argv) == code
        assert detail in capsys.readouterr().err

    @pytest.mark.parametrize("points, code, detail", [
        pytest.param(_LINE, 9, "top-2 eigenvalue not positive", id="collinear-line"),
        pytest.param(_DUPLICATES, 10, "graph disconnected", id="duplicate-chart"),
    ])
    def test_typed_exit_from_isomap_pool(self, tmp_path, monkeypatch, capsys, pool_pids, points, code, detail):
        argv = _train_on(points)(tmp_path, monkeypatch, None, None)
        monkeypatch.setattr(atlas, "POOL_MIN_ROW_LAYERS", 0)
        monkeypatch.setenv("ATLASFLOW_THREADS", "2")
        capsys.readouterr()
        assert _run(argv) == code
        assert detail in capsys.readouterr().err
        pids = pool_pids()["isomap"]
        assert pids and os.getpid() not in pids


    def test_divergence_exit_from_training_pool(self, torus_csv, cover_json, tmp_path, monkeypatch, capsys,
                                                pool_pids):
        # chart 0 diverges first in chart order, chart 1 first in (phase, epoch, chart) order
        chart_epoch = atlas._chart_epoch

        def diverging(st, phase, epoch, *args):
            if (phase, epoch, st.chart_id) in {(3, 1, 0), (1, 2, 1)}:
                atlas._check_finite(float("nan"), phase, epoch, st.chart_id)
            return chart_epoch(st, phase, epoch, *args)

        monkeypatch.setattr(atlas, "_chart_epoch", diverging)
        monkeypatch.setattr(atlas, "POOL_MIN_ROW_LAYERS", 0)
        errors = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("ATLASFLOW_THREADS", threads)
            capsys.readouterr()
            assert _run(["train", "--data", str(torus_csv), "--cover", str(cover_json), "--layers", "2",
                         "--hidden", "8,8", "--epochs-e1", "2", "-o", str(tmp_path / "m.json")]) == 4
            errors[threads] = capsys.readouterr().err
        assert errors["1"] == errors["2"] == "error: loss diverged (phase 1, epoch 2, chart 1)\n"
        assert len(pool_pids()["train"]) > 1

    def test_typed_exit_from_inference_pool(self, tmp_path, monkeypatch, capsys, pool_pids, tiny_checkpoint,
                                            torus_csv):
        argv = _density_flat_embedding(tmp_path, monkeypatch, tiny_checkpoint[0], torus_csv)
        monkeypatch.setattr(atlas, "POOL_MIN_ROW_LAYERS", 0)
        monkeypatch.setenv("ATLASFLOW_THREADS", "2")
        capsys.readouterr()
        assert _run(argv) == 9
        assert "embedding Gram matrix is singular" in capsys.readouterr().err
        pids = pool_pids()["flow"]
        assert pids and os.getpid() not in pids


class TestInferencePool:
    def test_pool_writes_serial_bytes(self, tiny_checkpoint, torus_csv, tmp_path, monkeypatch, pool_pids):
        ckpt, _ = tiny_checkpoint
        assert len(atlas.load(ckpt).charts) >= 3
        monkeypatch.setattr(atlas, "POOL_MIN_ROW_LAYERS", 0)
        outputs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("ATLASFLOW_THREADS", threads)
            samples, density = tmp_path / f"s{threads}.csv", tmp_path / f"d{threads}.csv"
            assert _run(["sample", "--checkpoint", str(ckpt), "--count", "500", "--seed", "4",
                         "-o", str(samples)]) == 0
            assert _run(["density", "--data", str(torus_csv), "--checkpoint", str(ckpt),
                         "-o", str(density)]) == 0
            outputs[threads] = (samples.read_bytes(), density.read_bytes(), pool_pids()["flow"])
        assert outputs["1"][2] == {os.getpid()}
        assert outputs["2"][2] and os.getpid() not in outputs["2"][2]
        assert outputs["1"][:2] == outputs["2"][:2]


class TestDensityCommand:
    def test_columns_and_row_count(self, tiny_checkpoint, torus_csv, tmp_path):
        ckpt, _ = tiny_checkpoint
        out = tmp_path / "density.csv"
        rc = _run(["density", "--data", str(torus_csv), "--checkpoint", str(ckpt), "-o", str(out)])
        assert rc == 0
        rows = _read_rows(out)
        assert len(rows) == 1200
        kde = np.array([float(r["kde"]) for r in rows])
        assert np.all(kde >= 0)
        logd = np.array([float(r["log_density"]) for r in rows])
        assert np.all(np.isfinite(logd))

    def test_kde_only_without_checkpoint(self, torus_csv, tmp_path):
        out = tmp_path / "density.csv"
        rc = _run(["density", "--data", str(torus_csv), "-o", str(out)])
        assert rc == 0
        assert "log_density" not in _read_rows(out)[0]

    def test_bad_checkpoint_exits_before_kde(self, torus_csv, tmp_path, capsys, monkeypatch):
        def kde_density(*args, **kwargs):
            raise AssertionError("the KDE ran before the checkpoint was read")

        monkeypatch.setattr(synth, "kde_density", kde_density)
        bad = tmp_path / "model.json"
        bad.write_text("{broken")
        rc = _run(["density", "--data", str(torus_csv), "--checkpoint", str(bad), "-o", str(tmp_path / "d.csv")])
        assert rc == 5
        assert str(bad) in capsys.readouterr().err


class TestEvalBoundaryCommand:
    def test_identical_checkpoints_identical_columns(self, tiny_checkpoint, torus_csv, cover_json, tmp_path):
        ckpt, _ = tiny_checkpoint
        out = tmp_path / "table.csv"
        rc = _run(["eval-boundary", "--data", str(torus_csv), "--cover", str(cover_json),
                   "--cover-checkpoint", str(ckpt), "--partition-checkpoint", str(ckpt),
                   "-o", str(out)])
        assert rc == 0
        rows = _read_rows(out)
        assert len(rows) > 1
        for r in rows:
            assert r["cover_mse"] == r["partition_mse"]

    def test_cover_without_overlap_exit_7(self, tiny_checkpoint, torus_csv, tmp_path, capsys):
        ckpt, _ = tiny_checkpoint
        flat_cover = tmp_path / "flat_cover.json"
        _run(["cover", "--data", str(torus_csv), "--perc-overlap", "0", "-o", str(flat_cover)])
        capsys.readouterr()
        rc = _run(["eval-boundary", "--data", str(torus_csv), "--cover", str(flat_cover),
                   "--cover-checkpoint", str(ckpt), "--partition-checkpoint", str(ckpt),
                   "-o", str(tmp_path / "t.csv")])
        assert rc == 7
        err = capsys.readouterr().err
        assert str(flat_cover) in err and "no boundary points" in err

    def test_label_mismatch_exit_6(self, tiny_checkpoint, torus_csv, tmp_path):
        # a cover built with different Mapper settings has a different chart
        # count than the checkpoints trained on the original cover
        ckpt, _ = tiny_checkpoint
        other_cover = tmp_path / "other_cover.json"
        _run(["cover", "--data", str(torus_csv), "--n-cubes", "2",
              "--perc-overlap", "0.2", "-o", str(other_cover)])
        rc = _run(["eval-boundary", "--data", str(torus_csv), "--cover", str(other_cover),
                   "--cover-checkpoint", str(ckpt), "--partition-checkpoint", str(ckpt),
                   "-o", str(tmp_path / "t.csv")])
        assert rc == 6


class TestCompareSingleCommand:
    def test_curves_written(self, torus_csv, tmp_path):
        out = tmp_path / "curves.csv"
        rc = _run(["compare-single", "--data", str(torus_csv),
                   "--layers", "2", "--hidden", "8,8",
                   "--epochs-e1", "1", "--epochs-e2", "1", "--epochs-e3", "1",
                   "--epochs-e4", "1", "--epochs-e5", "0",
                   "--seed", "4", "-o", str(out)])
        assert rc == 0
        rows = _read_rows(out)
        assert len(rows) == 3  # (e2 + e3) + e4 manifold epochs
        for r in rows:
            assert np.isfinite(float(r["multi_recon"]))
            assert np.isfinite(float(r["single_recon"]))


class TestHelp:
    @pytest.mark.parametrize("cmd", ["synth", "cover", "train", "sample", "density",
                                     "eval-boundary", "compare-single"])
    def test_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            _run([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--" in out

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "atlasflow.cli", "synth", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
