"""The ``python -m repro`` command-line interface."""

import json
import sqlite3

import pytest

from repro.__main__ import _parse_cq_file, main


class TestParseCQFile:
    def test_parses_labels_and_edges(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("# a comment\nF(a)\nT(b)\n\nR(a, b)\n")
        q = _parse_cq_file(str(path))
        assert q.has_label("a", "F")
        assert q.has_label("b", "T")
        assert any(
            f.pred == "R" and f.src == "a" and f.dst == "b"
            for f in q.binary_facts
        )

    def test_rejects_ternary_atoms(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("R(a, b, c)\n")
        with pytest.raises(ValueError, match="cannot parse"):
            _parse_cq_file(str(path))


class TestCommands:
    def test_zoo_lists_all_queries(self, capsys):
        assert main(["zoo"]) == 0
        out = capsys.readouterr().out
        for name in ("q1", "q4", "q8"):
            assert name in out

    def test_decide_zoo_query(self, capsys):
        assert main(["decide", "q5"]) == 0
        out = capsys.readouterr().out
        assert "bounded" in out
        assert "Theorem 9" in out

    def test_decide_file(self, tmp_path, capsys):
        path = tmp_path / "q.txt"
        path.write_text("F(a)\nT(b)\nR(a, c)\nR(c, b)\n")
        assert main(["decide", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Proposition 2" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_config_command(self, capsys):
        assert main(["config"]) == 0
        out = capsys.readouterr().out
        assert "backend=" in out
        assert "effective_workers=" in out

    def test_global_flags_reach_session_config(self, capsys):
        assert main(["--backend", "naive", "--workers", "2", "config"]) == 0
        out = capsys.readouterr().out
        assert "backend='naive'" in out
        assert "workers=2" in out

    def test_decide_with_backend_flag(self, capsys):
        assert main(["--backend", "naive", "decide", "q5"]) == 0
        assert "bounded" in capsys.readouterr().out

    def test_invalid_backend_flag_exits(self):
        with pytest.raises(SystemExit):
            main(["--backend", "simd", "config"])


class TestConfigJson:
    def test_json_output_parses_and_is_complete(self, capsys):
        assert main(["config", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        for key in (
            "backend",
            "workers",
            "effective_workers",
            "cache_path",
            "service_host",
            "service_port",
            "service_queue_depth",
        ):
            assert key in data

    def test_json_matches_the_service_serializer(self, capsys, tmp_path):
        # satellite contract: the CLI and GET /v1/config share one
        # serializer, so flags resolve into the same wire document
        from repro.core.config import EngineConfig
        from repro.service.wire import config_to_json

        cd = str(tmp_path / "cache")
        assert main(["--backend", "naive", "--cache-dir", cd,
                     "config", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        want = config_to_json(
            EngineConfig.from_env(backend="naive", cache_dir=cd)
        )
        assert data == want


class TestEvalExitCodes:
    def test_known_answer_exits_0(self, capsys):
        assert main(["eval", "q2", "d1"]) == 0
        assert "False" in capsys.readouterr().out

    def test_governed_unknown_exits_3(self, monkeypatch, capsys):
        # exit 3 is the UNKNOWN code, distinct from FALSE (0) and
        # usage errors (2), so scripted callers can branch on it
        monkeypatch.setenv("REPRO_HOM_FUEL", "1")
        assert main(["eval", "q2", "d2"]) == 3
        out = capsys.readouterr().out
        assert "UNKNOWN" in out and "fuel" in out

    def test_weights_misuse_still_exits_2(self, tmp_path, capsys):
        weights = tmp_path / "w.txt"
        weights.write_text("R(a, b) = 2\n")
        assert main(
            ["eval", "q2", "d1", "--semiring", "why",
             "--weights", str(weights)]
        ) == 2


class TestCacheCommands:
    def warm(self, cache_dir):
        # the boundedness probe behind `decide q6` checkpoints its
        # result to the store
        assert main(["--cache-dir", cache_dir, "decide", "q6"]) == 0

    def test_cache_without_store_exits_2(self, capsys):
        assert main(["--cache-dir", "", "cache", "stats"]) == 2
        assert "no durable store" in capsys.readouterr().err

    def test_stats_reports_occupancy(self, tmp_path, capsys):
        cd = str(tmp_path / "cache")
        self.warm(cd)
        capsys.readouterr()
        assert main(["--cache-dir", cd, "cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "enabled=True" in out
        assert "repro_store.sqlite" in out
        assert "entries=" in out

    def test_clear_drops_every_entry(self, tmp_path, capsys):
        cd = str(tmp_path / "cache")
        self.warm(cd)
        capsys.readouterr()
        assert main(["--cache-dir", cd, "cache", "clear"]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["--cache-dir", cd, "cache", "stats"]) == 0
        assert "entries=0" in capsys.readouterr().out

    def test_verify_clean_store_exits_0(self, tmp_path, capsys):
        cd = str(tmp_path / "cache")
        self.warm(cd)
        capsys.readouterr()
        assert main(["--cache-dir", cd, "cache", "verify"]) == 0
        assert "dropped 0 corrupt" in capsys.readouterr().out

    def test_verify_drops_corrupt_rows_and_exits_1(self, tmp_path, capsys):
        cd = str(tmp_path / "cache")
        self.warm(cd)
        # flip every row's checksum behind the store's back
        db = str(tmp_path / "cache" / "repro_store.sqlite")
        conn = sqlite3.connect(db)
        with conn:
            conn.execute("UPDATE kv SET crc = crc + 1")
        conn.close()
        capsys.readouterr()
        assert main(["--cache-dir", cd, "cache", "verify"]) == 1
        out = capsys.readouterr().out
        assert "dropped" in out and "dropped 0 corrupt" not in out
        # the sweep healed the store: a second verify is clean
        assert main(["--cache-dir", cd, "cache", "verify"]) == 0
