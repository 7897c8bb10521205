import json

import pytest

from quartic_galois.cli import main


def test_lpoly_subcommand(capsys):
    assert main(["lpoly", "--p", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["p"], out["a"], out["b"], out["c"]) == (3, 1, 2, 3)
    assert "T^6" in out["polynomial"]


def test_facts_subcommand(capsys):
    assert main(["facts"]) == 0
    out = capsys.readouterr().out
    assert "TF-SP6F2" in out and "TF-PROP21" in out


def test_hecke_subcommand(tmp_path, capsys):
    out_path = tmp_path / "h11.json"
    assert main(["hecke", "--level", "11", "--primes", "2,3", "--out", str(out_path)]) == 0
    obj = json.loads(out_path.read_text())
    assert obj["level"] == 11
    assert {op["p"]: op["charpoly"] for op in obj["operators"]} == {
        2: ["2", "1"],
        3: ["1", "1"],
    }


@pytest.mark.parametrize(
    "level, primes",
    [("0", "2"), ("-5", "2"), ("6391", "7"), ("11", "4"), ("11", "2,x"), ("11", ",")],
)
def test_hecke_subcommand_rejects_bad_input(tmp_path, level, primes):
    out_path = tmp_path / "h.json"
    with pytest.raises(SystemExit) as exc:
        main(["hecke", "--level", level, "--primes", primes, "--out", str(out_path)])
    message = exc.value.code
    # a one-line message (exit status 1), not a traceback
    assert isinstance(message, str) and message.startswith("certify hecke: ")
    assert "\n" not in message
    assert not out_path.exists()


def test_run_exit_code_on_failure(tmp_path, capsys):
    # skip-mode config cannot certify, so the exit status is nonzero
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"frobenius_primes": [2, 3, 5], "hecke": {"mode": "skip"}}
        )
    )
    report = tmp_path / "report.json"
    rc = main(
        ["run", "--config", str(cfg), "--report", str(report), "--format", "text"]
    )
    assert rc == 1
    assert "verdict: not certified" in capsys.readouterr().out
    saved = json.loads(report.read_text())
    assert saved["final_verdict"].startswith("not certified")


def test_bare_invocation_defaults_to_run(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"frobenius_primes": [2, 3, 5], "hecke": {"mode": "skip"}}
        )
    )
    # no subcommand: flags are forwarded to "run"
    rc = main(["--config", str(cfg), "--format", "json"])
    assert rc == 1
    out = json.loads(capsys.readouterr().out)
    assert "final_verdict" in out


def test_unknown_format_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--format", "xml"])


@pytest.mark.parametrize(
    "config, needle",
    [
        ('{"frobenius_primse": [2]}', "frobenius_primse"),
        ('{"workers": "two"}', "workers"),
        ('{"frobenius_primes": ["2"]}', "frobenius_primes"),
        ("[2]", "config"),
        ("{not json", "Expecting"),
        ('{"curve_path": "absent_curve.json"}', "absent_curve.json"),
        (None, "absent_cfg.json"),
    ],
)
def test_run_config_errors_are_one_line(tmp_path, monkeypatch, config, needle):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
    path = "cfg.json" if config is not None else "absent_cfg.json"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", path])
    message = exc.value.code
    # a one-line message (exit status 1), not a traceback
    assert isinstance(message, str) and message.startswith("certify: ")
    assert "\n" not in message
    assert needle in message
