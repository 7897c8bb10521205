import json
import time
from importlib import resources

import pytest

from quartic_galois import cli, counting
from quartic_galois.cli import main


def test_lpoly_subcommand(capsys):
    assert main(["lpoly", "--p", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["p"], out["a"], out["b"], out["c"]) == (3, 1, 2, 3)
    assert "T^6" in out["polynomial"]


@pytest.mark.parametrize(
    "args, needle",
    [
        (["--p", "3", "--curve", "absent_curve.json"], "absent_curve.json"),
        (["--p", "3", "--curve", "curve.json"], "malformed curve JSON"),
        (["--p", "4"], "prime"),
        (["--p", "7"], "bad (or unresolved) reduction at 7"),
    ],
)
def test_lpoly_errors_are_one_line(tmp_path, monkeypatch, args, needle):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "curve.json").write_text('{"monomials": 5}')
    with pytest.raises(SystemExit) as exc:
        main(["lpoly"] + args)
    message = exc.value.code
    # a one-line message (exit status 1), not a traceback
    assert isinstance(message, str) and message.startswith("certify lpoly: ")
    assert "\n" not in message
    assert needle in message


def test_lpoly_arithmetic_errors_are_one_line(monkeypatch):
    # a failed kernel self-check names the prime and exits with one line
    def failing(*args):
        raise ArithmeticError("gcd divsteps did not reach g = 0")

    monkeypatch.setattr(counting, "_gcd_degrees", failing)
    with pytest.raises(SystemExit) as exc:
        main(["lpoly", "--p", "5"])
    assert exc.value.code == "certify lpoly: gcd divsteps did not reach g = 0"


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


def test_hecke_level_beyond_int64_index_is_one_line(tmp_path):
    # the P^1(Z/N) index refuses a level whose products overflow int64;
    # the file the writability probe made before that refusal is removed
    out_path = tmp_path / "h.json"
    with pytest.raises(SystemExit) as exc:
        main(["hecke", "--level", "2147483659", "--primes", "2", "--out", str(out_path)])
    message = exc.value.code
    assert isinstance(message, str) and message.startswith("certify hecke: ")
    assert "\n" not in message
    assert "overflow int64" in message
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
        ('{"bogus": 1}', "bogus"),
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
    # the same error with --report leaves no report behind, and a report
    # that was there keeps its bytes
    kept = tmp_path / "kept.json"
    kept.write_bytes(b"earlier report\n")
    for report in ("out.json", "kept.json"):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", path, "--report", report])
        assert exc.value.code == message
    assert not (tmp_path / "out.json").exists()
    assert kept.read_bytes() == b"earlier report\n"


@pytest.mark.parametrize(
    "args, prefix",
    [
        (["hecke", "--level", "11", "--primes", "2", "--out"], "certify hecke: "),
        (["run", "--config", "cfg.json", "--report"], "certify: "),
    ],
)
def test_output_path_errors_are_one_line(tmp_path, monkeypatch, args, prefix):
    def no_work(*_):
        raise AssertionError("computed before the output path was checked")

    # the unwritable path is reported before any work is done
    work = {"hecke": "hecke_charpolys_multimodular", "run": "run_pipeline"}
    monkeypatch.setattr(cli, work[args[0]], no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(
        json.dumps({"frobenius_primes": [2, 3, 5], "hecke": {"mode": "skip"}})
    )
    with pytest.raises(SystemExit) as exc:
        main(args + ["absent_dir/out.json"])
    message = exc.value.code
    # a one-line message (exit status 1), not a traceback
    assert isinstance(message, str) and message.startswith(prefix)
    assert "\n" not in message
    assert "absent_dir/out.json" in message


def test_hecke_regenerates_bundled_file(tmp_path, monkeypatch):
    # the bundled level-6391 T_2 and T_5 charpolys, recomputed byte for
    # byte from 8 moduli (6 lifting, 2 held out: the largest int64
    # moduli and the trace bounds); the budget is a floor to beat, not a
    # target
    ticks = []
    real = cli.hecke_charpolys_multimodular
    monkeypatch.setattr(
        cli,
        "hecke_charpolys_multimodular",
        lambda N, primes: real(N, primes, progress=lambda *t: ticks.append(t)),
    )
    out_path = tmp_path / "hecke_6391.json"
    start = time.perf_counter()
    args = ["hecke", "--level", "6391", "--primes", "2,5", "--out", str(out_path)]
    assert main(args) == 0
    elapsed = time.perf_counter() - start
    bundled = resources.files("quartic_galois").joinpath("data", "hecke_6391.json")
    assert out_path.read_bytes() == bundled.read_bytes()
    assert ticks == [(i, 8) for i in range(1, 9)]
    assert elapsed < 15.0, elapsed
