import json

import numpy as np
import pytest

from byzgrad import ConfigError, run_experiment
from byzgrad.cli import build_parser, emit_trace_csv, main, parse_config

MINIMAL = {
    "n": 11, "f": 2, "rule": "krum",
    "cost": {"variant": "quadratic", "d": 10, "x_star": [0.0] * 10},
    "estimator": {"variant": "gaussian", "sigma": 0.5},
    "attack": {"variant": "sign_flip", "kappa": 10},
    "schedule": {"gamma0": 0.5, "p": 1.0},
    "rounds": 3000, "seed": 42,
}


def config_text(**changes):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(changes)
    return json.dumps(doc)


def small_config_file(tmp_path, **changes):
    changes.setdefault("rounds", 25)
    changes.setdefault("x0", [3.0] * 10)
    path = tmp_path / "config.json"
    path.write_text(config_text(**changes), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# config parsing

def test_parse_minimal_document():
    config = parse_config(config_text())
    assert config.n == 11 and config.f == 2
    assert config.rule.kind == "krum"
    assert config.estimator.sigma == 0.5
    assert config.attack.variant == "sign_flip" and config.attack.kappa == 10.0
    assert config.rounds == 3000 and config.master_seed == 42
    assert config.byzantine_worker_ids() == (10, 11)
    assert np.array_equal(config.initial_x(), np.zeros(10))


def test_parse_rejects_krum_precondition():
    with pytest.raises(ValueError, match=r"krum requires 2f \+ 2 < n: got n=6, f=2"):
        parse_config(config_text(n=6, f=2))


def test_parse_rejects_boundary_exponent():
    with pytest.raises(ValueError, match=r"sum\(gamma_t\^2\) converges"):
        parse_config(config_text(schedule={"gamma0": 0.5, "p": 0.5}))


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(config_text(workers=12))
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(config_text(attack={"variant": "sign_flip", "kappa": 1, "mode": "x"}))
    with pytest.raises(ConfigError, match="missing key"):
        parse_config(json.dumps({"n": 5}))
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{nope")


def test_parse_rule_forms():
    linear = parse_config(config_text(
        f=0, rule={"variant": "linear", "weights": [1.0 / 11] * 11}))
    assert linear.rule.kind == "linear" and len(linear.rule.weights) == 11
    multi = parse_config(config_text(rule={"variant": "multi_krum", "m": 3}))
    assert multi.rule.m == 3
    with pytest.raises(ConfigError, match="needs weights"):
        parse_config(config_text(rule="linear"))


def test_parse_overrides_and_seed():
    config = parse_config(config_text(), overrides=("rounds=7", "schedule.gamma0=0.25"),
                          seed=99)
    assert config.rounds == 7 and config.gamma0 == 0.25 and config.master_seed == 99
    with pytest.raises(ConfigError, match="key=value"):
        parse_config(config_text(), overrides=("rounds",))


# ---------------------------------------------------------------------------
# CSV emission

def test_trace_csv_header_only_for_empty_trace():
    trace = run_experiment(parse_config(config_text(rounds=0)))
    assert emit_trace_csv(trace) == (
        "t,cost,grad_norm,gamma,selected_ids,byzantine_selected,agg_to_grad_dist,x_norm\n")


def test_trace_csv_field_order_and_roundtrip():
    trace = run_experiment(parse_config(config_text(rounds=3, x0=[2.0] * 10)))
    text = emit_trace_csv(trace)
    lines = text.splitlines()
    assert len(lines) == 4
    assert "\r" not in text
    for line, record in zip(lines[1:], trace.records):
        t, cost, grad_norm, gamma, ids, byz, dist, x_norm = line.split(",")
        assert int(t) == record.t
        assert float(cost) == record.cost
        assert float(grad_norm) == record.grad_norm
        assert float(gamma) == record.gamma
        assert tuple(int(i) for i in ids.split(";")) == record.selected_ids
        assert (byz == "true") == record.byzantine_selected
        assert float(dist) == record.agg_to_grad_dist
        assert float(x_norm) == record.x_norm


def test_trace_csv_combining_rules_leave_selected_ids_empty():
    trace = run_experiment(parse_config(config_text(rounds=2, f=0, rule="average")))
    for line in emit_trace_csv(trace).splitlines()[1:]:
        fields = line.split(",")
        assert fields[4] == "" and fields[5] == "false"


# ---------------------------------------------------------------------------
# end-to-end subcommands

def test_simulate_end_to_end(tmp_path, capsys):
    config = small_config_file(tmp_path)
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "diverged=false" in stdout and "rounds_completed=25" in stdout
    assert out.read_text(encoding="utf-8").startswith("t,cost,")


def test_simulate_byte_identical_reruns(tmp_path):
    config = small_config_file(tmp_path)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_set_override(tmp_path, capsys):
    config = small_config_file(tmp_path)
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out),
                 "--set", "rounds=5"]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 6


def test_simulate_bad_config_exits_nonzero(tmp_path, capsys):
    config = small_config_file(tmp_path, n=6, f=2)
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert "2f + 2 < n" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    'byzantine_ids=["a",1]',
    'byzantine_ids=3',
    'rule={"variant":"linear","weights":[[1]]}',
    'rule={"variant":"linear","weights":3}',
])
def test_simulate_malformed_override_is_an_error_line(tmp_path, capsys, override):
    config = small_config_file(tmp_path)
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out),
                 "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_simulate_divergence_is_a_result_not_a_failure(tmp_path, capsys):
    # a diverging run still exits 0; the flag shows up in the summary line
    config = small_config_file(
        tmp_path, n=10, f=1, rule="average",
        attack={"variant": "omniscient_linear", "target": [1e307] + [0.0] * 9},
        schedule={"gamma0": 1.0, "p": 1.0})
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "diverged=true" in stdout
    assert len(out.read_text(encoding="utf-8").splitlines()) >= 2


def test_resilience_end_to_end(tmp_path, capsys):
    doc = {"n": 9, "f": 2, "d": 3, "rule": "krum",
           "attack": {"variant": "silence"},
           "sigma": 1.0, "grad_norm": 15.0, "trials": 500, "seed": 5}
    config = tmp_path / "res.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["resilience", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["condition_i_holds"] is True
    assert report["n"] == 9 and report["trials"] == 500
    csv_out = tmp_path / "report.csv"
    assert main(["resilience", "--config", str(config), "--out", str(csv_out)]) == 0
    lines = csv_out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 and lines[0].startswith("rule,attack,n,f,d,sigma")


def test_resilience_byte_identical_reruns(tmp_path):
    doc = {"n": 7, "f": 1, "d": 4, "rule": "krum",
           "attack": {"variant": "sign_flip", "kappa": 2.0},
           "sigma": 1.0, "grad_norm": 12.0, "trials": 300, "seed": 11}
    config = tmp_path / "res.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["resilience", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["resilience", "--config", str(config), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_eta_subcommand(capsys):
    assert main(["eta", "8", "0"]) == 0
    assert "eta(8, 0) = 4" in capsys.readouterr().out
    assert main(["eta", "5", "1"]) == 0
    assert "4.242640687" in capsys.readouterr().out
    assert main(["eta", "6", "2"]) == 1
    assert "2f + 2 < n" in capsys.readouterr().err
    assert main(["eta", "9", "2", "--d", "5", "--sigma", "10", "--grad-norm", "20"]) == 0
    out = capsys.readouterr().out
    assert "sin_alpha" in out and "flat-basin" in out


def test_attack_demo_lemma1(capsys):
    assert main(["attack-demo", "lemma1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "average == target: true"


def test_attack_demo_figure3(capsys):
    assert main(["attack-demo", "figure3"]) == 0
    out = capsys.readouterr().out
    assert "medoid selected byzantine: true, krum selected byzantine: false" in out


def test_attack_demo_unknown_scenario_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["attack-demo", "mystery"])
    assert exc.value.code == 2
