"""Unit tests for the whole-program layer: import-graph resolution,
cross-module write attribution, and the dataflow facts SHARD001 and the
DET002 indirection sweep consume."""

import ast

from repro.lint.core import ProjectAnalyzer
from repro.lint.dataflow import analyze_module
from repro.lint.graph import ProjectGraph, module_name_for_path
from pathlib import Path


def summarize(sources: dict[str, str]) -> ProjectGraph:
    """Build a ProjectGraph from {module_name: source} pairs."""
    analyzer = ProjectAnalyzer()
    summaries = [
        analyzer.summarize_source(source, f"{name.replace('.', '/')}.py")
        for name, source in sources.items()
    ]
    return ProjectGraph(summaries)


class TestModuleNames:
    def test_src_relative_dotted(self):
        assert (
            module_name_for_path(Path("src/repro/netsim/packet.py"))
            == "repro.netsim.packet"
        )

    def test_package_init(self):
        assert module_name_for_path(Path("src/repro/sip/__init__.py")) == "repro.sip"

    def test_outside_src_falls_back_to_stem(self):
        assert module_name_for_path(Path("tests/lint/fixtures/x.py")) == "x"


class TestResolution:
    def test_function_resolves_through_reexport(self):
        graph = summarize(
            {
                "impl": "def jitter(rng):\n    return rng.random()\n",
                "api": "from impl import jitter\n",
                "user": "from api import jitter\ndef draw(rng):\n    return jitter(rng)\n",
            }
        )
        resolved = graph.resolve_function("jitter", from_module="user")
        assert resolved is not None
        assert resolved.dotted == "impl.jitter"

    def test_function_resolves_in_same_module(self):
        graph = summarize({"m": "def helper(rng):\n    return rng.random()\n"})
        resolved = graph.resolve_function("helper", from_module="m")
        assert resolved is not None
        assert resolved.fn.rng_consuming_params == ["rng"]

    def test_unknown_name_resolves_to_none(self):
        graph = summarize({"m": "x = 1\n"})
        assert graph.resolve_function("ghost", from_module="m") is None


class TestCrossModuleWrites:
    def test_writer_in_another_module_is_attributed(self):
        graph = summarize(
            {
                "state_owner": "_ids = {}\n",
                "writer": (
                    "import state_owner\n"
                    "def record(key):\n"
                    "    state_owner._ids[key] = True\n"
                ),
            }
        )
        writes = graph.global_writes_to("state_owner", "_ids")
        assert {write["from"] for write in writes} == {"writer"}

    def test_local_write_is_attributed_to_self(self):
        graph = summarize(
            {"m": "_log = []\ndef add(x):\n    _log.append(x)\n"}
        )
        writes = graph.global_writes_to("m", "_log")
        assert {write["from"] for write in writes} == {"m"}

    def test_unwritten_binding_has_no_writes(self):
        graph = summarize({"m": "_table = {1: 'a'}\ndef get(k):\n    return _table[k]\n"})
        assert graph.global_writes_to("m", "_table") == []


class TestDataflow:
    def analyze(self, source: str):
        tree = ast.parse(source)
        import_map = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    import_map[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    import_map[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        return analyze_module(tree, import_map)

    def test_global_declaration_write_detected(self):
        flow = self.analyze(
            "_mode = {}\n"
            "def set_mode(m):\n"
            "    global _mode\n"
            "    _mode = m\n"
        )
        (fn,) = [f for f in flow.functions if f.qualname == "set_mode"]
        assert [write["name"] for write in fn.global_writes] == ["_mode"]

    def test_mutable_global_registration_flag(self):
        flow = self.analyze(
            "from repro.globalstate import registry\n"
            "_good = registry.mapping('x')\n"
            "_bad = {}\n"
        )
        by_name = {binding["name"]: binding for binding in flow.mutable_globals}
        assert by_name["_good"]["registered"]
        assert not by_name["_bad"]["registered"]
