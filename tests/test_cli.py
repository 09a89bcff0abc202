import csv
import json
import os

import numpy as np
import pytest

from mcfproto import cli, config, diagnostics, head, linalg, so3, store, synthgym, trainer


def run_cli(args):
    return cli.main(args)


def small_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "gym": {"episodes_per_task": 4},
        "head": {"hidden": 16, "k_trans": 4, "k_rot": 4, "horizon": 3},
        "train": {"steps": 30, "warmup": 5, "batch_size": 16,
                  "eval_interval": 10},
    }
    for section, vals in overrides.items():
        cfg.setdefault(section, {}).update(vals)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_print_config(capsys):
    assert run_cli(["--print-config"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    cfg = json.loads(out)
    assert set(cfg) == {"gym", "head", "train", "diagnostics"}
    assert cfg["head"]["k_trans"] == 16


def test_no_command_is_validation_error():
    assert run_cli([]) == cli.EXIT_VALIDATION


@pytest.mark.parametrize("argv, code, named", [
    (["gen-data", "--episodes", "x", "--out", "d.jsonl"], cli.EXIT_VALIDATION,
     "--episodes"),
    (["train", "--data", "d.jsonl"], cli.EXIT_VALIDATION, "--out"),
    (["frobnicate"], cli.EXIT_VALIDATION, "frobnicate"),
    (["verify-theorem", "--dim", "x"], cli.EXIT_VALIDATION, "--dim"),
    (["ablate", "--data", "d.jsonl", "--out", "o", "--seeds", "a,b"],
     cli.EXIT_VALIDATION, "--seeds"),
    (["train", "--help"], cli.EXIT_OK, "--resume"),
], ids=["bad_int_flag", "missing_out", "unknown_command", "bad_dim",
        "bad_seed_list", "help"])
def test_usage_error_is_validation_error(tmp_path, monkeypatch, capsys, argv,
                                         code, named):
    # argparse itself exits 2, the code of a runtime failure
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == code
    out, err = capsys.readouterr()
    if code == cli.EXIT_OK:
        assert named in out and not err
    else:
        assert "error: " in err and named in err.splitlines()[-1]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", sorted(config.BOUNDS))
def test_bounds_table_checks_each_key(name):
    section, key = name.split(".")
    defaults = config.default_config()
    assert key in defaults.get(section, {}), "a key that no config has"
    default = defaults[section][key]
    assert config.config_error(name, default, default) is None
    number = int if type(default) is int else float
    interval = config.BOUNDS[name]
    low, high = map(float, interval[1:-1].split(","))
    if interval[0] == "(":
        outside = [low]
    else:
        assert config.config_error(name, default, number(low)) is None
        outside = [low - 1 if number is int else np.nextafter(low, -np.inf)]
    if np.isfinite(high):
        outside.append(high if interval[-1] == ")" else
                       high + 1 if number is int else np.nextafter(high, np.inf))
    for val in outside:
        error = config.config_error(name, default, number(val))
        assert error and error.startswith(f"config key {name} must be ")


def test_unknown_config_key_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"train": {"leerning_rate": 1e-3}}))
    code = run_cli(["gen-data", "--config", str(path),
                    "--out", str(tmp_path / "d.jsonl")])
    assert code == cli.EXIT_VALIDATION
    assert "leerning_rate" in capsys.readouterr().err


def test_unknown_config_section_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"optimizer": {}}))
    code = run_cli(["gen-data", "--config", str(path),
                    "--out", str(tmp_path / "d.jsonl")])
    assert code == cli.EXIT_VALIDATION


def test_gen_data_writes_dataset_and_config(tmp_path):
    out = tmp_path / "data.jsonl"
    code = run_cli(["gen-data", "--out", str(out), "--episodes", "3",
                    "--seed", "5"])
    assert code == cli.EXIT_OK
    assert out.exists()
    assert not (tmp_path / "data.jsonl.stats.json").exists()
    resolved = json.loads((tmp_path / "data.jsonl.config.json").read_text())
    assert resolved["gym"]["episodes_per_task"] == 3
    assert resolved["gym"]["seed"] == 5
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 15  # 5 tasks x 3 episodes


def test_gen_data_deterministic(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    run_cli(["gen-data", "--out", str(a), "--episodes", "2", "--seed", "1"])
    run_cli(["gen-data", "--out", str(b), "--episodes", "2", "--seed", "1"])
    assert a.read_text() == b.read_text()


def test_train_and_diagnose_pipeline(tmp_path):
    cfg = small_config(tmp_path)
    data = tmp_path / "data.jsonl"
    run_cli(["gen-data", "--config", cfg, "--out", str(data)])

    run_dir = tmp_path / "run"
    code = run_cli(["train", "--data", str(data), "--config", cfg,
                    "--out", str(run_dir)])
    assert code == cli.EXIT_OK
    assert (run_dir / "ckpt_final.json").exists()
    assert (run_dir / "config.resolved.json").exists()

    diag_dir = tmp_path / "diag"
    code = run_cli(["diagnose", "--data", str(data),
                    "--ckpt", str(run_dir / "ckpt_final.json"),
                    "--config", cfg, "--out", str(diag_dir)])
    assert code == cli.EXIT_OK
    for name in ("concentration.csv", "compatibility.csv", "usage_matrix.csv",
                 "axis_timeline.csv", "report.json"):
        assert (diag_dir / name).exists()
    report = json.loads((diag_dir / "report.json").read_text())
    conc = report["concentration"]
    assert list(conc) == ["world", "canonical", "learned_local"]
    with open(diag_dir / "concentration.csv") as f:
        csv_frames = [row["frame"] for row in csv.DictReader(f)]
    assert list(dict.fromkeys(csv_frames)) == list(conc)
    # the ground-truth frame compacts the actions
    assert (conc["canonical"]["summary"]["effective_rank"]["mean"]
            < conc["world"]["summary"]["effective_rank"]["mean"])
    assert report["schema_version"] == 2
    assert list(report["compatibility"]) == ["learned", "ground_truth",
                                             "random_baseline_deg"]
    assert (report["compatibility"]["random_baseline_deg"]
            == diagnostics.RANDOM_BASELINE_DEG)
    for frames in ("learned", "ground_truth"):
        assert "records" not in report["compatibility"][frames]


def per_episode_diagnose(data, ckpt, out_dir, time_bins):
    """The diagnose CSVs computed one episode at a time: one head forward per
    episode, per-task lists gathered episode by episode, a loop over steps."""
    ds = synthgym.load_jsonl(data)
    params, hc, _ = head.load_checkpoint(ckpt)
    world, canonical, local, gating = {}, {}, {}, {}
    pairs = {"learned": {}, "ground_truth": {}}
    counts = {task: np.zeros((2, time_bins, 3)) for task in ds.task_names}
    for ep in ds.episodes:
        out = head.head_forward(ep.obs, params, hc)
        frames = out.frames.value[:, 0]
        loc = diagnostics.local_actions(ep.actions, frames)
        world.setdefault(ep.task, []).append(ep.actions[:, :6])
        canonical.setdefault(ep.task, []).append(  # Q^T a, step by step
            np.array([np.concatenate([ep.q.T @ a[:3], ep.q.T @ a[3:6]])
                      for a in ep.actions]))
        local.setdefault(ep.task, []).append(loc)
        gating.setdefault(ep.task, []).append(
            (out.gating_trans.value[:, 0], out.gating_rot.value[:, 0]))
        for name, f in (
                ("learned", frames),
                ("ground_truth", np.broadcast_to(ep.q, frames.shape))):
            pairs[name].setdefault(ep.task, []).append((ep.actions[:, :3], f))
        for i, row in enumerate(loc):
            b = min(i * time_bins // len(loc), time_bins - 1)
            counts[ep.task][0, b, np.abs(row[:3]).argmax()] += 1
            counts[ep.task][1, b, np.abs(row[3:]).argmax()] += 1
    usage = {"tasks": ds.task_names}
    for j, kind in enumerate(("trans", "rot")):
        usage[kind] = np.array([
            sum(g[j].sum(axis=0) for g in gating[t])
            / sum(len(g[j]) for g in gating[t]) for t in ds.task_names])
    cli.write_diagnose(str(out_dir), {
        "concentration": {name: diagnostics.concentration(
            {t: np.concatenate(v) for t, v in steps.items()})
            for name, steps in (("world", world), ("canonical", canonical),
                                ("learned_local", local))},
        "compatibility": {name: diagnostics.compatibility(
            {t: tuple(map(np.concatenate, zip(*v))) for t, v in p.items()})
            for name, p in pairs.items()},
        "usage_matrix": usage,
        "axis_timelines": {
            t: {"trans": c[0] / c[0].sum(axis=1, keepdims=True),
                "rot": c[1] / c[1].sum(axis=1, keepdims=True)}
            for t, c in counts.items()},
    })


def test_diagnose_matches_per_episode_reference(tmp_path, monkeypatch):
    # tasks interleaved in the file, and chunks that end inside episodes
    ds = synthgym.generate(synthgym.default_templates(), 6, seed=3)
    order = np.random.default_rng(0).permutation(len(ds.episodes))
    ds.episodes = [ds.episodes[i] for i in order]
    data = tmp_path / "data.jsonl"
    synthgym.save_jsonl(ds, str(data))
    hc = head.HeadConfig()
    ckpt = tmp_path / "ckpt.json"
    head.save_checkpoint(str(ckpt), head.init_params(hc, np.random.default_rng(1)),
                         hc)
    monkeypatch.setattr(diagnostics, "_CHUNK", 50)
    cfg = small_config(tmp_path, diagnostics={"time_bins": 4})
    assert run_cli(["diagnose", "--data", str(data), "--ckpt", str(ckpt),
                    "--config", cfg, "--out", str(tmp_path / "diag")]) == 0
    ref = tmp_path / "ref"
    ref.mkdir()
    per_episode_diagnose(str(data), str(ckpt), ref, time_bins=4)

    for name in ("concentration.csv", "compatibility.csv", "usage_matrix.csv",
                 "axis_timeline.csv"):
        with open(tmp_path / "diag" / name) as f:
            got = list(csv.reader(f))
        with open(ref / name) as f:
            want = list(csv.reader(f))
        assert [len(row) for row in got] == [len(row) for row in want]
        header = want[0]
        for g_row, w_row in zip(got[1:], want[1:]):
            for column, g, w in zip(header, g_row, w_row):
                if column in ("frame", "frames", "dictionary", "task", "block",
                              "bin", "n_steps"):
                    assert g == w
                elif w:
                    assert float(g) == pytest.approx(float(w), rel=1e-12, abs=0)
                else:
                    assert g == ""
    assert ((tmp_path / "diag" / "axis_timeline.csv").read_bytes()
            == (ref / "axis_timeline.csv").read_bytes())


@pytest.mark.parametrize("k_trans, k_rot", [(4, 8), (8, 4)])
def test_usage_csv_rows_match_header(tmp_path, k_trans, k_rot):
    cfg = small_config(tmp_path, head={"k_trans": k_trans, "k_rot": k_rot, "d": 2})
    data = tmp_path / "data.jsonl"
    synthgym.save_jsonl(synthgym.generate(synthgym.default_templates(), 2, seed=0),
                        str(data))
    hc = head.HeadConfig(k_trans=k_trans, k_rot=k_rot, d=2)
    ckpt = tmp_path / "ckpt.json"
    head.save_checkpoint(str(ckpt), head.init_params(hc, np.random.default_rng(0)),
                         hc)
    assert run_cli(["diagnose", "--data", str(data), "--ckpt", str(ckpt),
                    "--config", cfg, "--out", str(tmp_path / "diag")]) == 0
    # the config's head (hidden 16, horizon 3) is not the one that ran
    resolved = json.loads((tmp_path / "diag" / "config.resolved.json").read_text())
    assert resolved["head"] == json.loads(ckpt.read_text())["config"]
    with open(tmp_path / "diag" / "usage_matrix.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["dictionary", "task"] + [f"proto_{i}" for i in range(8)]
    assert all(len(row) == len(rows[0]) for row in rows)
    for row in rows[1:]:
        k = k_trans if row[0] == "trans" else k_rot
        assert all(row[2:2 + k]) and not any(row[2 + k:])


def test_train_rerun_from_resolved_config_bitwise(tmp_path):
    cfg = small_config(tmp_path)
    data = tmp_path / "data.jsonl"
    run_cli(["gen-data", "--config", cfg, "--out", str(data)])
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_cli(["train", "--data", str(data), "--config", cfg, "--out", str(run_a)])
    resolved = run_a / "config.resolved.json"
    run_cli(["train", "--data", str(data), "--config", str(resolved),
             "--out", str(run_b)])
    assert (run_a / "metrics.csv").read_text() == (run_b / "metrics.csv").read_text()
    assert (run_a / "ckpt_final.json").read_text() == \
        (run_b / "ckpt_final.json").read_text()


def test_train_obs_dim_mismatch(tmp_path, capsys):
    cfg = small_config(tmp_path, name="bad_head.json", head={"obs_dim": 7})
    data = tmp_path / "data.jsonl"
    run_cli(["gen-data", "--config", small_config(tmp_path), "--out", str(data)])
    capsys.readouterr()
    for command in ("train", "ablate"):  # before either writes anything
        code = run_cli([command, "--data", str(data), "--config", cfg,
                        "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == \
            "error: dataset obs dim 15 != head.obs_dim 7\n"
        assert not (tmp_path / "run").exists()


def episode_line(*steps, **fields):
    return json.dumps({"schema_version": 1, "task": "x",
                       "q_6d": [1, 0, 0, 0, 1, 0], "steps": list(steps),
                       **fields}) + "\n"


def step(obs_width=15, action_width=7, obs_value=0.0):
    return {"obs": [obs_value] * obs_width, "action": [0.0] * action_width}


def degenerate_line(q_6d):
    return json.dumps({"schema_version": 1, "task": "x", "q_6d": q_6d,
                       "steps": [step()]}) + "\n"


@pytest.mark.parametrize("content, where", [
    ("", ""),
    (degenerate_line([1, 0, 0, 2, 0, 0]), "line 1"),
    (episode_line(), "line 1"),
    (episode_line(step()) + episode_line(step(obs_width=14)), "line 2"),
    (episode_line(step(action_width=5)), "line 1"),
    (episode_line(step(obs_value=float("nan"))), "line 1"),
    ("[1, 2]\n", "line 1"),
    ('{"schema_version": 1, "task": "x", "q_6d": [1, 0, 0, 0, 1, 0]}\n', "line 1"),
    (episode_line({"obs": [0.0] * 15}), "line 1"),
    ('{"schema_version": 1, "task": \n', "line 1"),
    ('{"schema_version": 1, "task": "x", "q_6d": null, "steps": []}\n', "line 1"),
    (episode_line(step()) + degenerate_line([0, 1, 0, 0, 2, 0])
     + episode_line(step()), "line 2"),
    (episode_line(step()) + episode_line(step(), task=["x"]), "line 2"),
    (episode_line(step(obs_value="0.71")), "line 1"),
    (episode_line(step(), q_6d=["1", 0, 0, 0, 1, 0]), "line 1"),
    (episode_line(step(), schema_version=True), "line 1"),
    # JSON true/false among numbers: np.array would read them as 1 and 0
    (episode_line(step()) + episode_line(
        {"obs": [True] + [0.0] * 14, "action": [0.0] * 7}), "line 2"),
    (episode_line({"obs": [0.0] * 15, "action": [0.0] * 6 + [False]}), "line 1"),
    (episode_line(step(), q_6d=[1, 0, 0, 0, 1, False]), "line 1"),
    (episode_line(step()) + episode_line(steps=5), "line 2"),
    (episode_line(steps={"obs": [0.0] * 15, "action": [0.0] * 7}), "line 1"),
], ids=["empty", "degenerate_q_6d", "no_steps", "ragged_obs", "action_width",
        "nan_obs", "not_object", "missing_steps", "missing_action", "bad_json",
        "null_q_6d", "degenerate_q_6d_line_2", "list_task", "string_obs",
        "string_q_6d", "bool_schema_version", "bool_in_obs", "bool_in_action",
        "bool_in_q_6d", "int_steps", "object_steps"])
def test_train_rejects_bad_dataset(tmp_path, capsys, content, where):
    data = tmp_path / "data.jsonl"
    data.write_text(content)
    code = run_cli(["train", "--data", str(data), "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(data) in err and where in err


@pytest.mark.parametrize("section, key, value", [
    ("train", "steps", "x"),
    ("train", "steps", 2.5),
    ("train", "lr", "0.1"),
    ("head", "hidden", "64"),
], ids=["steps_string", "steps_float", "lr_string", "hidden_string"])
def test_config_value_type_checked(tmp_path, capsys, section, key, value):
    data = tmp_path / "data.jsonl"
    data.write_text(episode_line(step()))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({section: {key: value}}))
    code = run_cli(["train", "--data", str(data), "--config", str(bad),
                    "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{section}.{key}" in err
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"train": {"lr": 1}, "gym": {"noise_scale": None}}))
    cfg = config.load_config(str(good))
    assert cfg["train"]["lr"] == 1 and cfg["gym"]["noise_scale"] is None


@pytest.mark.parametrize("section, key, value", [
    (None, "config", None),
    (None, "params", None),
    ("config", "width", 3),
    ("params", "rest.b", None),
    ("params", "dict_rot", np.zeros((2, 3, 2)).tolist()),
    ("params", "rest.b", [[0.0], []]),
    (None, "schema_version", 1),
    ("config", "horizon", 7.0),
    ("config", "learn_frame", "true"),
    ("config", "lambda_ortho", float("nan")),
    ("config", "beta", 10 ** 400),
], ids=["no_config", "no_params", "unknown_config_key", "missing_tensor",
        "dict_rot_shape", "ragged_tensor", "schema_1", "float_horizon",
        "string_learn_frame", "nan_lambda_ortho", "huge_int_beta"])
def test_diagnose_rejects_bad_checkpoint(tmp_path, capsys, section, key, value):
    data = tmp_path / "data.jsonl"
    data.write_text(episode_line(step()))
    hc = head.HeadConfig(hidden=4, k_trans=2, k_rot=2, horizon=2)
    ckpt = tmp_path / "ckpt.json"
    head.save_checkpoint(str(ckpt), head.init_params(hc, np.random.default_rng(0)),
                         hc)
    doc = json.loads(ckpt.read_text())
    target = doc if section is None else doc[section]
    if value is None:
        del target[key]
    else:
        target[key] = value
    ckpt.write_text(json.dumps(doc))
    code = run_cli(["diagnose", "--data", str(data), "--ckpt", str(ckpt),
                    "--out", str(tmp_path / "diag")])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(ckpt) in err


def test_diagnose_rejects_list_task(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    data.write_text(episode_line(step()) + episode_line(step(), task=["x"]))
    hc = head.HeadConfig(hidden=4, k_trans=2, k_rot=2, horizon=2)
    ckpt = tmp_path / "ckpt.json"
    head.save_checkpoint(str(ckpt), head.init_params(hc, np.random.default_rng(0)),
                         hc)
    code = run_cli(["diagnose", "--data", str(data), "--ckpt", str(ckpt),
                    "--out", str(tmp_path / "diag")])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{data}, line 2" in err


def test_resume_needs_optimizer_state(tmp_path, capsys):
    cfg = small_config(tmp_path, train={"steps": 10, "warmup": 2,
                                        "eval_interval": 5})
    data = tmp_path / "data.jsonl"
    run_cli(["gen-data", "--config", cfg, "--out", str(data)])
    run_dir = tmp_path / "run"
    train = ["train", "--data", str(data), "--config", cfg, "--out", str(run_dir)]
    assert run_cli(train) == cli.EXIT_OK
    capsys.readouterr()
    best = run_dir / "ckpt_best.json"
    assert run_cli(train + ["--resume", str(best)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(best) in err and "optimizer state" in err


@pytest.mark.parametrize("key, value", [
    ("m", None),
    ("v", [[0.0]]),
    ("m", "not base64!"),
    ("v", "AAAAAAAAAAA="),
    ("step_count", 2.5),
    ("step_count", -1),
    ("step_count", 4),
], ids=["missing_m", "list_v", "invalid_base64", "wrong_length", "float_step_count",
        "negative_step_count", "step_count_not_step"])
def test_resume_rejects_malformed_optimizer_state(tmp_path, capsys, key, value):
    cfg = small_config(tmp_path, train={"steps": 10, "warmup": 2,
                                        "eval_interval": 5, "ckpt_interval": 5})
    data = tmp_path / "data.jsonl"
    run_cli(["gen-data", "--config", cfg, "--out", str(data)])
    train = ["train", "--data", str(data), "--config", cfg,
             "--out", str(tmp_path / "run")]
    assert run_cli(train) == cli.EXIT_OK
    capsys.readouterr()
    ckpt = tmp_path / "run" / "ckpt_5.json"
    doc = json.loads(ckpt.read_text())
    if value is None:
        del doc["extra"]["optimizer"][key]
    else:
        doc["extra"]["optimizer"][key] = value
    ckpt.write_text(json.dumps(doc))
    assert run_cli(train + ["--resume", str(ckpt)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(ckpt) in err and "Traceback" not in err


MISSING = object()


@pytest.mark.parametrize("key, value", [
    ("step", MISSING),
    ("step", "5"),
    ("step", True),
    ("step", 5.0),
    ("step", -1),
    ("step", 11),
    ("best_val", "0.5"),
    ("best_val", None),
    ("best_step", 2.5),
    ("metrics", MISSING),
    ("metrics", {"rows": []}),
    ("metrics", [[5, 0.001, 1.0]]),
    ("metrics", [["x", None, {"a": 1}, 1.0, 0.0, 0.0, ""]]),
    ("metrics", [[7, 0.001, 1.0, 1.0, 0.0, 0.0, ""]]),
    ("metrics", [[3, 0.001, 1.0, 1.0, 0.0, 0.0, ""], [2, 0.001, 1.0, 1.0, 0.0, 0.0, ""]]),
    ("best_params", MISSING),
    ("best_params", [0.0]),
    ("best_params", "not base64!"),
    ("best_params", "AAAAAAAAAAA="),
], ids=["missing_step", "string_step", "bool_step", "float_step", "negative_step",
        "step_past_end", "string_best_val", "null_best_val", "float_best_step",
        "missing_metrics", "object_metrics", "short_metrics_row", "bad_metrics_row",
        "metrics_past_step", "decreasing_metrics_steps",
        "missing_best_params", "list_best_params", "invalid_base64_best_params",
        "wrong_length_best_params"])
def test_resume_rejects_malformed_counters(tmp_path, capsys, key, value):
    cfg = small_config(tmp_path, train={"steps": 10, "warmup": 2,
                                        "eval_interval": 5, "ckpt_interval": 5})
    data = tmp_path / "data.jsonl"
    run_cli(["gen-data", "--config", cfg, "--out", str(data)])
    train = ["train", "--data", str(data), "--config", cfg,
             "--out", str(tmp_path / "run")]
    assert run_cli(train) == cli.EXIT_OK
    capsys.readouterr()
    ckpt = tmp_path / "run" / "ckpt_5.json"
    doc = json.loads(ckpt.read_text())
    extra = doc["extra"]
    if key == "best_params":
        # ckpt_5.json's best step is its own, so it holds no best_params;
        # a best step before it needs them
        assert extra["best_step"] == 5 and "best_params" not in extra
        extra["best_step"] = 0
    if value is MISSING:
        extra.pop(key, None)
    else:
        extra[key] = value
    ckpt.write_text(json.dumps(doc))
    assert run_cli(train + ["--resume", str(ckpt)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(ckpt) in err and key in err and "Traceback" not in err


@pytest.fixture(scope="module")
def periodic_run(tmp_path_factory):
    """(data, config, run dir) of a 10-step run with a checkpoint at step 5."""
    tmp = tmp_path_factory.mktemp("periodic")
    cfg = small_config(tmp, train={"steps": 10, "warmup": 2, "eval_interval": 5,
                                   "ckpt_interval": 5})
    data = str(tmp / "data.jsonl")
    assert run_cli(["gen-data", "--config", cfg, "--out", data]) == cli.EXIT_OK
    assert run_cli(["train", "--data", data, "--config", cfg,
                    "--out", str(tmp / "run")]) == cli.EXIT_OK
    return data, cfg, tmp / "run"


@pytest.mark.parametrize("extra", [5, [], "x", None], ids=["int", "list", "string", "null"])
def test_resume_rejects_malformed_extra(periodic_run, tmp_path, capsys, extra):
    data, cfg, run_dir = periodic_run
    doc = json.loads((run_dir / "ckpt_5.json").read_text())
    doc["extra"] = extra
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(["train", "--resume", str(ckpt), "--data", data, "--config", cfg,
                    "--out", str(tmp_path / "out")]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {ckpt}: ")
    assert "'extra'" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["diagnose", "resume"])
@pytest.mark.parametrize("value", [None, True, "1.5", float("nan"), float("inf")],
                         ids=["null", "true", "string", "NaN", "Infinity"])
def test_checkpoint_params_must_be_finite_numbers(periodic_run, tmp_path, capsys,
                                                  command, value):
    data, cfg, run_dir = periodic_run
    doc = json.loads((run_dir / "ckpt_5.json").read_text())
    doc["params"]["gate_t.w"][1][2] = value
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    args = (["diagnose", "--ckpt"] if command == "diagnose" else ["train", "--resume"])
    assert run_cli(args + [str(ckpt), "--data", data, "--config", cfg,
                           "--out", str(tmp_path / "out")]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {ckpt}: ")
    assert "tensor gate_t.w" in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", [("eval_interval", 0), ("ckpt_interval", -1),
                                        ("batch_size", 0), ("warmup", 31)])
def test_train_rejects_out_of_range_interval(tmp_path, capsys, key, value):
    data = tmp_path / "data.jsonl"
    data.write_text(episode_line(step()))
    cfg = small_config(tmp_path, train={key: value})
    code = run_cli(["train", "--data", str(data), "--config", cfg,
                    "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"train.{key}" in err
    if key == "warmup":  # the one rule between two keys names both
        assert "train.steps" in err


@pytest.mark.parametrize("command, section, key, values", [
    ("train", "train", "lr", {"lr": float("nan")}),
    ("train", "head", "lambda_ortho", {"lambda_ortho": float("inf")}),
    ("gen-data", "gym", "noise_scale", {"noise_scale": float("nan")}),
    ("train", "train", "steps", {"steps": 0, "warmup": 0}),
    ("train", "train", "lr", {"lr": 10 ** 400}),
    ("train", "train", "lr", {"lr": -1.0}),
    ("train", "train", "val_fraction", {"val_fraction": 1.5}),
    ("train", "train", "warmup", {"warmup": -5}),
    ("train", "train", "beta1", {"beta1": 1.0}),
    ("train", "train", "eps", {"eps": 0.0}),
    ("train", "train", "weight_decay", {"weight_decay": -1.0}),
    ("train", "head", "beta", {"beta": 0.0}),
    ("train", "head", "lambda_ortho", {"lambda_ortho": -1.0}),
    ("gen-data", "gym", "max_step", {"max_step": -0.05}),
    ("gen-data", "gym", "noise_scale", {"noise_scale": -1.0}),
    ("gen-data", "gym", "noise_scale", ["--noise", "nan"]),
    ("gen-data", "gym", "noise_scale", ["--noise", "-1"]),
    ("gen-data", "gym", "episodes_per_task", ["--episodes", "0"]),
    ("gen-data", "train", "warmup", {"warmup": 10, "steps": 5}),
    ("diagnose", "train", "warmup", {"warmup": 10, "steps": 5}),
], ids=["nan_lr", "infinite_lambda_ortho", "nan_noise_scale", "zero_steps",
        "huge_int_lr", "negative_lr", "val_fraction_past_1", "negative_warmup",
        "beta1_1", "zero_eps", "negative_weight_decay", "zero_beta",
        "negative_lambda_ortho", "negative_max_step", "negative_noise_scale",
        "nan_noise_flag", "negative_noise_flag", "zero_episodes_flag",
        "gen_data_warmup_past_steps", "diagnose_warmup_past_steps"])
def test_non_finite_or_empty_run_config_rejected(tmp_path, capsys, command,
                                                 section, key, values):
    # json.dumps writes NaN and Infinity, which json.load reads back; a list
    # of values is flags, which are checked like the keys they set
    flags = values if isinstance(values, list) else []
    cfg = small_config(tmp_path, **({} if flags else {section: values}))
    data = tmp_path / "data.jsonl"
    if command == "gen-data":
        argv = ["gen-data", "--out", str(data)]
    else:
        data.write_text(episode_line(step()))
        argv = [command, "--data", str(data), "--out", str(tmp_path / "run")]
    if command == "diagnose":
        hc = head.HeadConfig(hidden=4, k_trans=2, k_rot=2, horizon=2)
        ckpt = tmp_path / "ckpt.json"
        head.save_checkpoint(str(ckpt), head.init_params(hc, np.random.default_rng(0)),
                             hc)
        argv += ["--ckpt", str(ckpt)]
    assert run_cli(argv + ["--config", cfg] + flags) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{section}.{key}" in err
    assert not list(tmp_path.glob("run/*"))
    if command == "gen-data":
        assert not data.exists()


@pytest.mark.parametrize("key, value", [
    ("time_bins", 0),
    ("min_displacement", -0.01),
    ("time_bins", 2.5),
    ("min_displacement", float("inf")),
])
def test_diagnose_rejects_out_of_range_diagnostics_config(tmp_path, capsys, key,
                                                          value):
    data = tmp_path / "data.jsonl"
    data.write_text(episode_line(step()))
    hc = head.HeadConfig(hidden=4, k_trans=2, k_rot=2, horizon=2)
    ckpt = tmp_path / "ckpt.json"
    head.save_checkpoint(str(ckpt), head.init_params(hc, np.random.default_rng(0)),
                         hc)
    cfg = small_config(tmp_path, diagnostics={key: value})
    diag = tmp_path / "diag"
    code = run_cli(["diagnose", "--data", str(data), "--ckpt", str(ckpt),
                    "--config", cfg, "--out", str(diag)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"diagnostics.{key}" in err
    assert not diag.exists()


def test_diagnose_leaves_out_zero_steps_at_zero_threshold(tmp_path):
    # a zero-length displacement has no direction, so min_displacement 0
    # keeps it out instead of measuring 0/0 as NaN
    ds = synthgym.generate(synthgym.default_templates(), 2, seed=1)
    for ep in ds.episodes:
        ep.actions[0, :3] = 0.0
    data = tmp_path / "data.jsonl"
    synthgym.save_jsonl(ds, str(data))
    hc = head.HeadConfig(hidden=16, k_trans=4, k_rot=4, horizon=3)
    ckpt = tmp_path / "ckpt.json"
    head.save_checkpoint(str(ckpt), head.init_params(hc, np.random.default_rng(0)),
                         hc)
    cfg = small_config(tmp_path, diagnostics={"min_displacement": 0.0})
    diag = tmp_path / "diag"
    assert run_cli(["diagnose", "--data", str(data), "--ckpt", str(ckpt),
                    "--config", cfg, "--out", str(diag)]) == cli.EXIT_OK

    def no_constant(name):
        raise ValueError(f"{name} is not JSON")
    report = json.loads((diag / "report.json").read_text(), parse_constant=no_constant)
    moving = {}
    for ep in ds.episodes:
        moving[ep.task] = moving.get(ep.task, 0) + int(
            np.count_nonzero(np.linalg.norm(ep.actions[:, :3], axis=1) > 0))
    for frames in ("learned", "ground_truth"):
        per_task = report["compatibility"][frames]["per_task"]
        assert {task: v["n_steps"] for task, v in per_task.items()} == moving
        for v in per_task.values():
            assert np.isfinite([v["mean_deg"], v["std_deg"]]).all()
    assert "nan" not in (diag / "compatibility.csv").read_text().lower()


@pytest.mark.parametrize("exc, code", [
    (ValueError("bad value"), cli.EXIT_VALIDATION),
    (linalg.LinalgError("matrix is not symmetric"), cli.EXIT_VALIDATION),
    (so3.DegenerateParamError("6D columns are near-collinear"), cli.EXIT_RUNTIME),
    (trainer.TrainingDiverged(3, float("nan")), cli.EXIT_RUNTIME),
    (FloatingPointError("overflow"), cli.EXIT_RUNTIME),
    (OSError(28, "No space left on device"), cli.EXIT_RUNTIME),
    (MemoryError(), cli.EXIT_RUNTIME),
], ids=["ValueError", "LinalgError", "DegenerateParamError", "TrainingDiverged",
        "FloatingPointError", "OSError", "MemoryError"])
def test_failure_class_exit_code(monkeypatch, capsys, exc, code):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_verify_theorem", fail)
    assert run_cli(["verify-theorem"]) == code
    assert capsys.readouterr().err == f"error: {str(exc) or type(exc).__name__}\n"


@pytest.mark.parametrize("flag", ["--data", "--config", "--ckpt"])
def test_missing_input_file_is_validation_error(tmp_path, capsys, flag):
    data = tmp_path / "data.jsonl"
    data.write_text(episode_line(step()))
    hc = head.HeadConfig(hidden=4, k_trans=2, k_rot=2, horizon=2)
    ckpt = tmp_path / "ckpt.json"
    head.save_checkpoint(str(ckpt), head.init_params(hc, np.random.default_rng(0)),
                         hc)
    inputs = {"--data": str(data), "--config": small_config(tmp_path),
              "--ckpt": str(ckpt)}
    missing = str(tmp_path / "missing" / "nope.json")
    inputs[flag] = missing
    argv = ["diagnose", "--out", str(tmp_path / "diag")]
    for name, path in inputs.items():
        argv += [name, path]
    assert run_cli(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert missing in err and "Traceback" not in err


@pytest.mark.parametrize("flag, content", [
    ("--config", "[]"),
    ("--config", '{"train": }'),
    ("--ckpt", '{"schema_version": 2,'),
    ("--resume", "{bad"),
], ids=["config_list", "config_bad_json", "ckpt_bad_json", "resume_bad_json"])
def test_unparsable_input_file_names_path(tmp_path, capsys, flag, content):
    data = tmp_path / "data.jsonl"
    data.write_text(episode_line(step()))
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    command = "diagnose" if flag == "--ckpt" else "train"
    assert run_cli([command, "--data", str(data), flag, str(bad),
                    "--out", str(tmp_path / "out")]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(bad) in err and "Traceback" not in err


def test_unwritable_output_is_runtime_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = run_cli(["gen-data", "--episodes", "1",
                    "--out", str(blocker / "d.jsonl")])
    assert code == cli.EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("error: ")


def test_diagnose_crash_keeps_old_report(tmp_path, monkeypatch):
    cfg = small_config(tmp_path, train={"steps": 10, "warmup": 2,
                                        "eval_interval": 5})
    data = tmp_path / "data.jsonl"
    run_cli(["gen-data", "--config", cfg, "--out", str(data)])
    run_cli(["train", "--data", str(data), "--config", cfg,
             "--out", str(tmp_path / "run")])
    diagnose = ["diagnose", "--data", str(data), "--config", cfg,
                "--ckpt", str(tmp_path / "run" / "ckpt_final.json"),
                "--out", str(tmp_path / "diag")]
    assert run_cli(diagnose) == cli.EXIT_OK
    report = tmp_path / "diag" / "report.json"
    before = report.read_bytes()

    def disk_full(obj):
        # the report's contents are formed while its file is open for writing
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(store, "_jsonable", disk_full)
    assert run_cli(diagnose) == cli.EXIT_RUNTIME
    assert report.read_bytes() == before
    assert not os.path.exists(f"{report}.tmp")


def test_ablate_writes_csv(tmp_path):
    cfg = small_config(tmp_path, train={"steps": 20, "warmup": 2,
                                        "eval_interval": 10})
    data = tmp_path / "data.jsonl"
    run_cli(["gen-data", "--config", cfg, "--out", str(data)])
    out = tmp_path / "ablate"
    code = run_cli(["ablate", "--data", str(data), "--config", cfg,
                    "--out", str(out), "--seeds", "0"])
    assert code == cli.EXIT_OK
    text = (out / "ablation.csv").read_text()
    assert "bc-mlp" in text and "mcf-proto-full" in text


def test_verify_theorem_small(tmp_path, capsys):
    for args in (["--dim", "2", "--trials", "2"],
                 ["--dim", "6", "--trials", "1", "--seed", "1"]):
        out = tmp_path / f"thm_{args[1]}"
        code = run_cli(["verify-theorem", *args, "--out", str(out)])
        assert code == cli.EXIT_OK, args
        assert "overall: pass" in capsys.readouterr().out
        report = json.loads((out / "theorem_report.json").read_text())
        assert report["pass"] is True


def test_verify_theorem_tolerates_unlucky_monte_carlo(tmp_path):
    # seed 148's one trial lands 3.16 standard errors from the closed form:
    # correct math, which a 3-SE bound failed
    out = tmp_path / "thm"
    code = run_cli(["verify-theorem", "--dim", "3", "--trials", "1",
                    "--seed", "148", "--out", str(out)])
    assert code == cli.EXIT_OK
    mc = json.loads((out / "theorem_report.json").read_text())["checks"][0]["mc_vs_closed"]
    assert 3.0 < abs(mc["mc"] - mc["closed"]) / mc["stderr"] < 4.9


def test_verify_theorem_bad_args(capsys):
    assert run_cli(["verify-theorem", "--trials", "0"]) == cli.EXIT_VALIDATION
    assert run_cli(["verify-theorem", "--dim", "9"]) == cli.EXIT_VALIDATION


@pytest.mark.parametrize("seed", [-1, 2 ** 32, 10 ** 23])
@pytest.mark.parametrize("command, flag, named", [
    ("gen-data", "--seed", "config key gym.seed"),
    ("train", "--seed", "config key train.seed"),
    ("ablate", "--seeds", "--seeds"),
    ("verify-theorem", "--seed", "--seed"),
])
def test_seed_out_of_range_rejected(tmp_path, capsys, command, flag, named, seed):
    data = tmp_path / "data.jsonl"
    data.write_text(episode_line(step()))
    out = tmp_path / "out"
    argv = {"gen-data": ["gen-data", "--out", str(out / "d.jsonl")],
            "train": ["train", "--data", str(data), "--out", str(out)],
            "ablate": ["ablate", "--data", str(data), "--out", str(out)],
            "verify-theorem": ["verify-theorem", "--out", str(out)]}[command]
    if command != "verify-theorem":  # short runs, should a seed get through
        argv += ["--config", small_config(tmp_path)]
    value = f"0,{seed}" if command == "ablate" else str(seed)
    assert run_cli(argv + [flag, value]) == cli.EXIT_VALIDATION
    assert (capsys.readouterr().err
            == f"error: {named} must be in [0, 4294967295], got {seed}\n")
    assert not out.exists()


def test_patched_command_runs_after_parser_is_built(monkeypatch):
    # the parser is built once per process, and main looks each command up
    # on the module when it runs it, so a later patch still takes effect
    assert run_cli(["verify-theorem", "--dim", "2", "--trials", "1"]) == cli.EXIT_OK
    assert cli.build_parser() is cli.build_parser()
    dims = []

    def patched(args):
        dims.append(args.dim)
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "cmd_verify_theorem", patched)
    assert run_cli(["verify-theorem", "--dim", "4"]) == cli.EXIT_OK
    assert dims == [4]


def test_out_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.DEFAULT_OUT_ROOT_ENV, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    code = run_cli(["gen-data", "--out", "sub/data.jsonl", "--episodes", "1"])
    assert code == cli.EXIT_OK
    assert (tmp_path / "sub" / "data.jsonl").exists()
