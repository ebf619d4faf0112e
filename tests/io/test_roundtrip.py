"""Round-trip guarantees of the interchange registry (repro.io).

The acceptance criterion is asserted for every (object, format) pair:
each built-in scenario's ACG and each built-in family's 16-core fabric
must survive export→import with an identical structural fingerprint /
signature in every registered built-in format.
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.arch.families import FAMILIES, get_family, pad_node_ids
from repro.core.graph import ApplicationGraph
from repro.dse.pipeline import Scenario
from repro.dse.scenarios import SUITES, build_suite
from repro.exceptions import WorkloadError
from repro.io import (
    FORMATS,
    detect_format,
    format_names,
    get_format,
    read_topology,
    read_workload,
    write_topology,
    write_workload,
)

BUILTIN_FORMATS = ("pajek", "edgelist", "dot")
BUILTIN_FAMILIES = ("mesh", "torus", "ring", "spidergon", "fat_tree", "long_range_mesh")


def _builtin_scenarios():
    """One scenario list per built-in suite, deduplicated by name."""
    seen = {}
    for suite in ("smoke", "paper", "embedded", "random", "fabrics"):
        for scenario in build_suite(suite):
            seen.setdefault(scenario.name, scenario)
    return list(seen.values())


def _fingerprint(acg, name="probe"):
    return Scenario(name=name, acg=acg, description="probe").structural_fingerprint()


SCENARIOS = _builtin_scenarios()


class TestWorkloadRoundTrip:
    @pytest.mark.parametrize("fmt", BUILTIN_FORMATS)
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    def test_scenario_acg_roundtrips(self, scenario, fmt, tmp_path):
        spec = get_format(fmt)
        path = tmp_path / f"graph{spec.extensions[0]}"
        write_workload(scenario.acg, path, fmt=fmt)
        back = read_workload(path, fmt=fmt)
        assert _fingerprint(back) == _fingerprint(scenario.acg)

    @pytest.mark.parametrize("fmt", BUILTIN_FORMATS)
    def test_extension_detection_picks_the_writer_back_up(self, fmt, tmp_path):
        spec = get_format(fmt)
        scenario = SCENARIOS[0]
        path = tmp_path / f"graph{spec.extensions[0]}"
        write_workload(scenario.acg, path)  # format detected from extension
        assert detect_format(path).name == fmt
        back = read_workload(path)
        assert _fingerprint(back) == _fingerprint(scenario.acg)


class TestTopologyRoundTrip:
    @pytest.mark.parametrize("fmt", BUILTIN_FORMATS)
    @pytest.mark.parametrize("family", BUILTIN_FAMILIES)
    def test_family_fabric_roundtrips(self, family, fmt, tmp_path):
        spec = get_family(family)
        fabric = spec.build(pad_node_ids(spec, range(1, 17)), tile_pitch_mm=1.75)
        path = tmp_path / f"fabric{get_format(fmt).extensions[0]}"
        write_topology(fabric, path, fmt=fmt)
        back = read_topology(path, fmt=fmt)
        assert back.signature() == fabric.signature()

    @pytest.mark.parametrize("fmt", BUILTIN_FORMATS)
    def test_flit_width_survives(self, fmt, tmp_path):
        spec = get_family("mesh")
        fabric = spec.build(pad_node_ids(spec, range(1, 5)), flit_width_bits=64)
        path = tmp_path / f"fabric{get_format(fmt).extensions[0]}"
        write_topology(fabric, path, fmt=fmt)
        assert read_topology(path, fmt=fmt).flit_width_bits == 64


class TestFormatRegistry:
    def test_builtin_formats_registered(self):
        assert set(BUILTIN_FORMATS) <= set(format_names())

    def test_every_format_claims_disjoint_extensions(self):
        claimed: dict[str, str] = {}
        for name in format_names():
            for extension in get_format(name).extensions:
                assert extension not in claimed, (
                    f"{extension} claimed by both {claimed[extension]} and {name}"
                )
                claimed[extension] = name

    def test_formats_are_complete_specs(self):
        for name in format_names():
            spec = get_format(name)
            for field in ("parse", "render"):
                assert callable(getattr(spec, field)), (name, field)

    def test_builtin_registries_cover_the_fabric(self):
        """The refactor's registries are Registry-kernel instances."""
        from repro.plugins import Registry

        for registry in (FORMATS, FAMILIES, SUITES):
            assert isinstance(registry, Registry)


class TestMalformedInputs:
    def test_dot_rejects_non_digraph(self, tmp_path):
        path = tmp_path / "bad.dot"
        path.write_text("graph { a -- b }\n", encoding="utf-8")
        with pytest.raises(WorkloadError):
            read_workload(path)

    def test_dot_rejects_unsupported_statement(self, tmp_path):
        path = tmp_path / "bad.dot"
        path.write_text('digraph g { subgraph cluster_0 { "a" } }\n', encoding="utf-8")
        with pytest.raises(WorkloadError):
            read_workload(path)

    def test_edgelist_rejects_one_field_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("lonely\n", encoding="utf-8")
        with pytest.raises(WorkloadError):
            read_workload(path)

    def test_pajek_rejects_garbage_weight(self, tmp_path):
        path = tmp_path / "bad.net"
        path.write_text("*Vertices 2\n1 \"a\"\n2 \"b\"\n*Arcs\n1 2 not-a-number\n",
                        encoding="utf-8")
        with pytest.raises(WorkloadError):
            read_workload(path)

    @pytest.mark.parametrize(
        "name, text",
        [
            ("nan.edges", "a b nan\n"),
            ("inf.edges", "a b 64 inf\n"),
            ("overflow.dot", 'digraph g { "a" -> "b" [volume=1e400]; }\n'),
            ("nan.net", "*Vertices 2\n1 \"a\"\n2 \"b\"\n*Arcs\n1 2 nan\n"),
        ],
    )
    def test_non_finite_numbers_are_rejected(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(WorkloadError, match="finite"):
            read_workload(path)


class TestPajekInputContract:
    """Vertex ids run 1..N, each declared once with a unique label; arcs
    join declared ids only; every error names the file and the line."""

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ('*Vertices 2\n1 "a"\n2 "b"\n*Arcs\n1 5 3\n', 5, "'5' is not a declared"),
            ('*Vertices 2\n1 "a"\n1 "b"\n*Arcs\n1 2 3\n', 3, "declared twice"),
            ('*Vertices 2\n1 "a"\n2 "a"\n*Arcs\n1 2 3\n', 3, "share the label 'a'"),
            ('*Vertices 2\n1 "a"\n3 "b"\n*Arcs\n1 3 3\n', 3, "outside 1..2"),
            ('*Vertices 3\n1 "a"\n2 "b"\n*Arcs\n1 2 3\n', 1, "never declared"),
            ('*Vertices 1000000000000\n1 "a"\n', 1, r"ids \[2, .*, 11\] of .* never declared"),
            ('*Vertices 2\n1 "a"\n2 "b"\n*Arcs\n1 2 nan\n', 5, "finite number, got 'nan'"),
            ('*Vertices 2\n1 "a" 0 nan\n2 "b"\n*Arcs\n1 2 3\n', 2, "finite"),
            ('*Vertices 2\n1 "a"\n2 "b"\n*Arcs\n1 1 3\n', 5, "self-loop|to itself"),
            ('*Vertices 2\n1 "a"\n2 "b"\n*Matrix\n0 1\n', 4, "unsupported Pajek line"),
            ('1 2 3\n*Vertices 2\n1 "a"\n2 "b"\n', 1, "unsupported Pajek line"),
        ],
        ids=[
            "undeclared-arc-id", "repeated-id", "shared-label", "id-past-n",
            "missing-id", "huge-vertex-count", "nan-volume", "nan-coordinate", "self-loop",
            "unknown-section", "line-outside-sections",
        ],
    )
    def test_violations_name_the_file_and_line(self, tmp_path, text, line, message):
        path = tmp_path / "bad.net"
        path.write_text(text, encoding="utf-8")
        for read in (read_workload, read_topology):
            with pytest.raises(WorkloadError) as caught:
                read(path)
            assert str(caught.value).startswith(f"{path}, line {line}: ")
            assert re.search(message, str(caught.value))

    def test_network_title_and_unlabelled_vertices_are_accepted(self, tmp_path):
        path = tmp_path / "plain.net"
        path.write_text("*Network demo\n*Vertices 2\n1\n2\n*Arcs\n1 2 3\n", encoding="utf-8")
        acg = read_workload(path)
        assert acg.nodes() == ["1", "2"] and acg.volume("1", "2") == 3.0

    @pytest.mark.parametrize(
        "name, text, line",
        [
            ("nan.edges", "a b 3\nb c nan\n", 2),
            ("nan.dot", "digraph g {\n  a -> b [volume=3];\n  b -> c [volume=nan];\n}\n", 3),
        ],
    )
    def test_other_formats_name_the_line_too(self, tmp_path, name, text, line):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(WorkloadError, match=rf"^.*{name}, line {line}: .*finite"):
            read_workload(path)


class TestFlitWidthHeader:
    """A bad ``flit_width_bits`` header is an input error that names the
    file and the header's line, in every format."""

    @pytest.mark.parametrize(
        "name, text, line",
        [
            ("bad.edges", "#% repro-edgelist kind=topology flit_width_bits=abc\na b\n", 1),
            ("bad.dot", 'digraph g {\n  graph [flit_width_bits="x"];\n  a -> b;\n}\n', 2),
            ("bad.net", '% repro kind=topology flit_width_bits=abc\n*Vertices 1\n1 "a"\n', 1),
        ],
    )
    def test_garbage_flit_width_names_the_file_and_line(self, tmp_path, name, text, line):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(WorkloadError) as caught:
            read_topology(path)
        assert str(caught.value).startswith(f"{path}, line {line}: ")
        assert "expected a number" in str(caught.value)


class TestFabricRanges:
    """A fabric file with an out-of-range channel field or flit width is an
    input error that names the file and the line, in every format."""

    #: per format: a one-channel fabric template and the lines holding the
    #: header and the channel
    TEMPLATES = {
        "bad.edges": (
            "#% repro-edgelist kind=topology flit_width_bits={flit}\n"
            "a b {length} {width} {bandwidth}\n",
            1, 2,
        ),
        "bad.dot": (
            'digraph g {{\n  graph [flit_width_bits="{flit}"];\n'
            '  a -> b [length_mm="{length}", width_bits="{width}", bandwidth="{bandwidth}"];\n}}\n',
            2, 3,
        ),
        "bad.net": (
            '% repro kind=topology flit_width_bits={flit}\n*Vertices 2\n1 "a"\n2 "b"\n'
            "*Arcs\n1 2 {length} {width} {bandwidth}\n",
            1, 6,
        ),
    }
    VALID = {"flit": "32", "length": "1.5", "width": "32", "bandwidth": "32.0"}

    def test_the_valid_templates_read(self, tmp_path):
        for name, (template, _, _) in self.TEMPLATES.items():
            path = tmp_path / name
            path.write_text(template.format(**self.VALID), encoding="utf-8")
            assert read_topology(path).channel("a", "b").length_mm == 1.5

    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("length", "-1", "channel length must be non-negative"),
            ("width", "0", "channel width must be a positive whole number"),
            ("width", "1.5", "channel width must be a positive whole number"),
            ("bandwidth", "-2.5", "channel bandwidth must be non-negative"),
            ("flit", "16.7", "flit_width_bits must be a positive whole number"),
            ("flit", "0", "flit_width_bits must be a positive whole number"),
            ("flit", "-8", "flit_width_bits must be a positive whole number"),
        ],
        ids=[
            "negative-length", "zero-width", "fractional-width", "negative-bandwidth",
            "fractional-flit-width", "zero-flit-width", "negative-flit-width",
        ],
    )
    def test_out_of_range_values_name_the_file_and_line(
        self, tmp_path, name, field, value, message
    ):
        template, header_line, channel_line = self.TEMPLATES[name]
        path = tmp_path / name
        path.write_text(template.format(**{**self.VALID, field: value}), encoding="utf-8")
        with pytest.raises(WorkloadError) as caught:
            read_topology(path)
        line = header_line if field == "flit" else channel_line
        assert str(caught.value).startswith(f"{path}, line {line}: {message}, got '{value}'")


class TestDotKeywordNames:
    """``graph``, ``node`` and ``edge`` are keywords only as bare tokens: a
    quoted one is a node name and survives a write/read round trip."""

    @pytest.mark.parametrize("keyword", ["graph", "node", "edge"])
    def test_quoted_keyword_names_are_nodes(self, tmp_path, keyword):
        acg = ApplicationGraph(name="keywords")
        acg.add_communication("0", keyword, volume=3.0)
        acg.add_communication(keyword, "1", volume=5.0)
        path = tmp_path / "keywords.dot"
        write_workload(acg, path)
        back = read_workload(path)
        assert back.nodes() == ["0", keyword, "1"]
        assert back.edges() == [("0", keyword), (keyword, "1")]
        assert back.volume(keyword, "1") == 5.0
        assert _fingerprint(back) == _fingerprint(acg)

    def test_bare_keywords_still_set_defaults(self, tmp_path):
        path = tmp_path / "defaults.dot"
        path.write_text(
            'digraph g {\n  graph [rankdir="LR"];\n  node [shape=box];\n'
            "  edge [color=red];\n  a -> b;\n}\n",
            encoding="utf-8",
        )
        assert read_workload(path).nodes() == ["a", "b"]


class TestDuplicateArcs:
    """Every format merges a repeated arc into one whose volume is the sum."""

    @pytest.mark.parametrize(
        "name, text",
        [
            ("dup.edges", "a b 3\na b 4\n"),
            ("dup.dot", "digraph g {\n  a -> b [volume=3];\n  a -> b [volume=4];\n}\n"),
            ("dup.net", '*Vertices 2\n1 "a"\n2 "b"\n*Arcs\n1 2 3\n1 2 4\n'),
        ],
    )
    def test_repeated_arcs_merge_their_volumes(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        acg = read_workload(path)
        assert acg.edges() == [("a", "b")]
        assert acg.volume("a", "b") == 7.0


class TestDataclassShape:
    def test_graphformat_is_frozen(self):
        spec = get_format("pajek")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.name = "other"
