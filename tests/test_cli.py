"""CLI smoke tests (argument wiring + output shape)."""

import pytest

from repro.cli import build_parser, main


def test_profiles_command(capsys):
    assert main(["profiles"]) == 0
    out = capsys.readouterr().out
    assert "i5-4590" in out and "EPYC" in out
    assert "CoRD op ns" in out


def test_lat_command_single_size(capsys):
    assert main(["lat", "--size", "1024", "--iters", "30"]) == 0
    out = capsys.readouterr().out
    assert "1 KiB" in out and "avg us" in out


def test_lat_cord_slower(capsys):
    main(["lat", "--size", "4096", "--iters", "30"])
    base = capsys.readouterr().out
    main(["lat", "--size", "4096", "--iters", "30",
          "--client", "cord", "--server", "cord"])
    cord = capsys.readouterr().out

    def avg(text):
        # last row: "4 KiB  <avg>  <p50>  <p99>"
        return float(text.splitlines()[-1].split()[2])

    assert avg(cord) > avg(base)


def test_bw_command(capsys):
    assert main(["bw", "--size", "65536", "--iters", "300"]) == 0
    out = capsys.readouterr().out
    assert "Gbit/s" in out


def test_bw_technique_flags(capsys):
    assert main(["bw", "--size", "65536", "--iters", "300",
                 "--no-zero-copy"]) == 0
    out = capsys.readouterr().out
    assert "no zero-copy" in out


def test_lat_with_faults_spec(capsys):
    assert main(["lat", "--size", "256", "--iters", "20",
                 "--faults", "loss=0.05"]) == 0
    out = capsys.readouterr().out
    assert "avg us" in out


def test_bw_with_faults_spec(capsys):
    assert main(["bw", "--size", "4096", "--iters", "60",
                 "--faults", "loss=0.01,nodropctl"]) == 0
    out = capsys.readouterr().out
    assert "Gbit/s" in out


def test_faults_spec_rejected(capsys):
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        main(["lat", "--size", "256", "--iters", "5", "--faults", "loss=2.0"])


def test_npb_command(capsys):
    assert main(["npb", "--bench", "EP", "--klass", "S", "--ranks", "4",
                 "--iter-scale", "1.0", "--transports", "bypass", "cord"]) == 0
    out = capsys.readouterr().out
    assert "EP" in out and "cord rel" in out


def test_npb_command_bounded_switch_buffer(capsys):
    assert main(["npb", "--bench", "IS", "--klass", "S", "--ranks", "8",
                 "--hosts", "4", "--rx-buffer-bytes", "1048576",
                 "--transports", "bypass"]) == 0
    assert "4 hosts" in capsys.readouterr().out


def test_incast_command(capsys):
    assert main(["incast", "--senders", "2", "--msgs", "2"]) == 0
    out = capsys.readouterr().out
    assert "peak rxq" in out
    row = out.strip().splitlines()[-1].split()
    assert row[0] == "2" and int(row[3]) > 0  # "<n> B" peak queue


def test_incast_rejects_zero_window():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="window"):
        main(["incast", "--senders", "2", "--msgs", "2", "--window", "0"])


def test_trace_timeline_default(capsys):
    assert main(["trace", "--size", "1024"]) == 0
    out = capsys.readouterr().out
    assert "life of one 1024 B RC send" in out


def test_trace_chrome_format(capsys):
    import json

    assert main(["trace", "--format", "chrome"]) == 0
    doc = json.loads(capsys.readouterr().out)
    events = doc["traceEvents"]
    assert events
    # Perfetto-loadable: only complete/instant/metadata events, so there
    # are no begin/end pairs to (mis)balance; every X carries a duration.
    assert {e["ph"] for e in events} <= {"X", "i", "M"}
    xs = [e for e in events if e["ph"] == "X"]
    assert xs and all("dur" in e and "ts" in e for e in xs)
    stages = [e["name"] for e in xs if e["args"].get("op") == "post_send"]
    assert stages[:4] == ["post", "doorbell", "wqe_fetch", "tx_wire"]


def test_trace_jsonl_format(capsys):
    import json

    assert main(["trace", "--format", "jsonl"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert lines
    for line in lines:
        rec = json.loads(line)
        assert {"time", "event"} <= rec.keys() and "category" not in rec


def test_trace_output_file(tmp_path):
    import json

    out = tmp_path / "trace.json"
    assert main(["trace", "--format", "chrome", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]


def test_metrics_command(capsys):
    import json

    assert main(["metrics", "--iters", "4"]) == 0
    snap = json.loads(capsys.readouterr().out)
    assert snap["trace"]["enabled"] is True and "telemetry_enabled" not in snap
    assert "host0" in snap["scopes"] and "host1" in snap["scopes"]
    ops = snap["scopes"]["host0"]["counters"]["dataplane.ops"]
    assert ops["by_key"]["BP.post_send"] == 4
    assert snap["hosts"]["host0"]["nic"]["tx_msgs"] > 0


def test_metrics_command_cord(capsys):
    import json

    assert main(["metrics", "--iters", "2", "--client", "cord",
                 "--server", "cord"]) == 0
    snap = json.loads(capsys.readouterr().out)
    cores = snap["hosts"]["host0"]["cores"]
    assert sum(core["syscalls"] for core in cores) > 0


def test_trace_folded_format(capsys):
    assert main(["trace", "--format", "folded", "--iters", "2"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line]
    assert lines
    for line in lines:
        frames, weight = line.rsplit(" ", 1)
        assert int(weight) > 0
        assert frames.split(";")[-1] in ("queue", "service")


def test_attribute_command(capsys):
    assert main(["attribute", "--size", "4096", "--iters", "20"]) == 0
    out = capsys.readouterr().out
    assert "attribution" in out and "queue ns" in out and "service ns" in out
    assert "explained" in out
    assert "tx_wire" in out


def test_attribute_command_bw_with_artifacts(tmp_path, capsys):
    import json

    json_path = tmp_path / "attr.json"
    folded_path = tmp_path / "attr.folded"
    assert main(["attribute", "--kind", "bw", "--size", "32768",
                 "--iters", "40", "--window", "8",
                 "--critical-path", "--tree", "0",
                 "--json", str(json_path),
                 "--flamegraph", str(folded_path)]) == 0
    out = capsys.readouterr().out
    assert "critical path" in out
    assert "span" in out  # the blame tree
    doc = json.loads(json_path.read_text())
    assert doc["dropped"] == 0
    assert doc["tables"] and doc["tables"][0]["ops"] > 0
    assert doc["config"]["kind"] == "bw"
    folded = folded_path.read_text().splitlines()
    assert folded and all(line.rsplit(" ", 1)[1].isdigit() for line in folded)


def test_attribute_rejects_sweep(capsys):
    assert main(["attribute", "--sweep"]) == 2
    assert "drop --sweep" in capsys.readouterr().err


def test_warn_dropped_prints_to_stderr(capsys):
    from repro.cli import _warn_dropped
    from repro.sim.trace import Trace

    trace = Trace(enabled=True, max_records=2)
    for i in range(5):
        trace.emit(float(i), "e")
    assert trace.dropped == 3
    _warn_dropped(trace)
    err = capsys.readouterr().err
    assert "WARNING" in err and "dropped 3 records" in err
    _warn_dropped(Trace(enabled=True))
    assert capsys.readouterr().err == ""


def test_parser_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_parser_rejects_bad_profile():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["lat", "--system", "Z"])


def test_sanitize_lint_clean_tree(capsys):
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    assert main(["sanitize", "lint", "--root", root]) == 0
    assert "clean (0 findings)" in capsys.readouterr().out


def test_sanitize_lint_flags_violations(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "hot.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\nimport time\nt0 = time.time()\n")
    assert main(["sanitize", "lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "SIM001" in out and "SIM002" in out


def test_sanitize_lint_json_output(tmp_path):
    import json

    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    out_file = tmp_path / "findings.json"
    assert main(["sanitize", "lint", str(bad),
                 "--format", "json", "--output", str(out_file)]) == 1
    doc = json.loads(out_file.read_text())
    assert doc["count"] == 1
    assert doc["findings"][0]["rule"] == "SIM001"


def test_sanitize_lint_rule_filter(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    assert main(["sanitize", "lint", str(bad), "--rules", "SIM003"]) == 0
    assert "clean" in capsys.readouterr().out


def test_sanitize_run_clean(capsys):
    assert main(["sanitize", "run", "--iters", "4"]) == 0
    assert "clean (0 findings)" in capsys.readouterr().out


def test_sanitize_run_cord_json(capsys):
    import json

    assert main(["sanitize", "run", "--client", "cord", "--server", "cord",
                 "--iters", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"findings": [], "count": 0}
