"""The versioned-document registry (``repro.docs``)."""
import json

import pytest

from repro.docs import (
    REGISTRY,
    DocError,
    doc_header,
    format_tag,
    parse_format,
    sniff_path,
    supported_line,
    validate_doc,
)

#: Every pre-serve document family must be registered (the satellite's
#: consolidation target list), plus the serve envelope itself.
EXPECTED_FAMILIES = {
    "witness", "blame", "classify", "prove", "profile", "live",
    "lint", "verify", "stats", "figures", "serve", "deadlock-report",
}


class TestRegistry:
    def test_all_families_registered(self):
        assert EXPECTED_FAMILIES <= set(REGISTRY)

    def test_tags_are_well_formed(self):
        for name, family in REGISTRY.items():
            assert parse_format(family.tag) == (name, family.current)

    def test_doc_header_round_trips_through_validate(self):
        for name in REGISTRY:
            doc = {**doc_header(name)}
            assert validate_doc(doc, name) == (name, REGISTRY[name].current)

    def test_format_tag_matches_legacy_constants(self):
        # The registry owns the strings the subsystems used to define.
        from repro.analysis.witness import WITNESS_FORMAT
        from repro.obs.blame import BLAME_FORMAT
        from repro.obs.live import LIVE_FORMAT
        from repro.obs.prof import PROFILE_FORMAT

        assert WITNESS_FORMAT == "repro-witness/1" == format_tag("witness")
        assert BLAME_FORMAT == "repro-blame/1" == format_tag("blame")
        assert LIVE_FORMAT == "repro-live/1" == format_tag("live")
        assert PROFILE_FORMAT == "repro-profile/1" == format_tag("profile")

    def test_no_format_tag_is_written_by_hand(self):
        """Writers stamp through `doc_header`: a tag spelled out as a
        string constant would drift from the registry's version."""
        import ast
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        by_hand = [
            f"{path.relative_to(root)}:{node.lineno}"
            for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant)
            and parse_format(node.value) is not None
        ]
        assert by_hand == []


def _terminal_name(node):
    """``f`` of a call's ``f(...)`` or ``x.y.f(...)`` target."""
    import ast

    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


class TestOneDriver:
    def test_only_the_session_runs_the_tool_and_one_function_exports(self):
        """Under ``cli/``, ``serve/`` and ``obs/`` nothing runs rank
        programs or an analysis backend — that is ``repro.api.Session``
        — and nothing writes a trace artifact except
        ``obs.exporters.export_run``."""
        import ast
        from pathlib import Path

        import repro

        forbidden = {
            "run_programs", "_run_programs", "make_backend",
            "write_chrome_trace", "write_jsonl",
        }

        def offence(call):
            name = _terminal_name(call.func)
            if name == "run" and isinstance(call.func, ast.Attribute):
                owner = _terminal_name(call.func.value)
                return "backend.run" if owner == "backend" else None
            return name if name in forbidden else None

        root = Path(repro.__file__).parent
        exempted, offences = 0, []
        for package in ("cli", "serve", "obs"):
            for path in sorted((root / package).rglob("*.py")):
                tree = ast.parse(path.read_text())
                if path == root / "obs" / "exporters.py":
                    kept = [
                        node for node in tree.body
                        if getattr(node, "name", None) != "export_run"
                    ]
                    exempted += len(tree.body) - len(kept)
                    tree.body = kept
                offences += [
                    f"{path.relative_to(root)}:{node.lineno}: {offence(node)}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and offence(node)
                ]
        assert exempted == 1
        assert offences == []


class TestOneAssembly:
    def test_only_the_detector_module_builds_drives_and_reads_the_tool(self):
        """Under ``src/repro`` one module assembles the Figure 1(b) tree
        and reads a run off it: nothing but ``core/detector.py``
        constructs a root, interior or first-layer node (the last in
        one function) or a ``DistributedOutcome``, or sets a ``tbon.*``
        gauge through ``set_gauge``; and the sharded backend keeps no
        quiescence or completeness check and no relay subtraction."""
        import ast
        from pathlib import Path

        import repro

        built = {"RootNode", "InteriorNode", "FirstLayerNode",
                 "DistributedOutcome"}
        root = Path(repro.__file__).parent
        builders, gauges = [], set()
        for path in sorted(root.rglob("*.py")):
            where = str(path.relative_to(root))
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name = _terminal_name(node.func)
                if name in built:
                    builders.append((where, name))
                elif name == "set_gauge" and "tbon." in ast.unparse(
                    node.args[0]
                ):
                    gauges.add(where)
        assert sorted(builders) == [
            ("core/detector.py", name) for name in sorted(built)
        ]
        assert gauges == {"core/detector.py"}
        sharded = (root / "backend" / "sharded.py").read_text()
        for gone in ("did not quiesce", "incomplete", "relayed_bytes"):
            assert gone not in sharded


class TestOnePause:
    def test_only_the_pause_module_touches_the_collector(self):
        """Under ``src/repro`` one module says ``gc.``: the collector is
        paused and restored through ``util/gcpause.collector_paused``
        and nowhere else."""
        import re
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        touching = {
            str(path.relative_to(root))
            for path in sorted(root.rglob("*.py"))
            if re.search(r"\bgc\.", path.read_text())
        }
        assert touching == {"util/gcpause.py"}


class TestOneReader:
    def test_only_the_reader_imports_a_rank_program_file(self):
        """Under ``src/repro`` one module turns a ``.py`` path into
        programs: nothing but ``repro/programfile.py`` imports a file by
        path, or asks at run time what a generator function is."""
        import ast
        from pathlib import Path

        import repro

        forbidden = {
            "spec_from_file_location", "module_from_spec", "exec_module",
            "isgeneratorfunction",
        }
        root = Path(repro.__file__).parent
        callers = {
            str(path.relative_to(root))
            for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and _terminal_name(node.func) in forbidden
        }
        assert callers == {"programfile.py"}

    def test_the_discovery_rule_is_defined_once(self):
        import repro.analysis
        import repro.analysis.astlint
        import repro.analysis.symbolic.symexec
        from repro import programfile

        assert (
            repro.analysis.find_rank_programs
            is repro.analysis.astlint.find_rank_programs
            is repro.analysis.symbolic.symexec.find_rank_programs
            is programfile.find_rank_programs
        )
        assert callable(repro.analysis.lint_source)
        assert callable(repro.analysis.symbolic.prove_path)


class TestOneCallTable:
    """What an MPI call is — name, arguments, defaults, kind — is
    written once, as the public methods of ``Rank``."""

    #: The six method sets as they were written out at e19caf2.
    SETS = {
        "SEND_METHODS": {
            "send", "ssend", "bsend", "rsend", "isend", "issend", "ibsend",
            "irsend", "send_init",
        },
        "RECV_METHODS": {"recv", "irecv", "recv_init", "probe", "iprobe"},
        "COLLECTIVE_METHODS": {
            "barrier", "bcast", "reduce", "allreduce", "gather", "scatter",
            "allgather", "alltoall", "scan", "reduce_scatter", "comm_dup",
            "comm_split", "comm_create", "comm_free",
        },
        "COMPLETION_METHODS": {
            "wait", "waitall", "waitany", "waitsome", "test", "testall",
            "testany", "testsome",
        },
        "OTHER_PLAIN_METHODS": {"start", "request_free", "finalize"},
        "GENERATOR_METHODS": {"sendrecv", "startall"},
    }

    def test_the_method_sets_are_ranks_public_builders(self):
        import inspect

        from repro import programfile
        from repro.runtime.program import Rank

        public = {
            name for name, member in vars(Rank).items()
            if inspect.isfunction(member) and not name.startswith("_")
        }
        assert programfile.ALL_METHODS == public
        for name, expected in self.SETS.items():
            assert getattr(programfile, name) == expected, name
        assert sum(map(len, self.SETS.values())) == len(public)
        assert programfile.PLAIN_METHODS == (
            public - self.SETS["GENERATOR_METHODS"]
        )

    def test_no_table_of_builder_names_outside_rank(self):
        """No set, dict, tuple or list literal under ``src/repro`` holds
        three or more builder names (the generator of random programs,
        which writes calls rather than reads them, aside)."""
        import ast
        from pathlib import Path

        import repro
        from repro.programfile import ALL_METHODS

        def names(node):
            parts = []
            if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
                parts = node.elts
            elif isinstance(node, ast.Dict):
                parts = [*node.keys, *node.values]
            return [
                part.value for part in parts
                if isinstance(part, ast.Constant)
                and isinstance(part.value, str) and part.value in ALL_METHODS
            ]

        root = Path(repro.__file__).parent
        exempt = {"runtime/program.py", "workloads/randomgen.py"}
        tables = [
            f"{path.relative_to(root)}:{node.lineno}"
            for path in sorted(root.rglob("*.py"))
            if str(path.relative_to(root)) not in exempt
            for node in ast.walk(ast.parse(path.read_text()))
            if len(names(node)) >= 3
        ]
        assert tables == []

    def test_the_argument_rule_is_defined_once(self):
        """``astlint`` and ``symexec`` bind a call site with
        ``programfile.arguments`` and nothing under ``src/repro`` pairs
        a position with a parameter name (``0, "dest"``) by hand."""
        import ast
        import inspect
        from pathlib import Path

        import repro
        import repro.analysis.astlint as astlint
        import repro.analysis.symbolic.symexec as symexec
        from repro import programfile
        from repro.runtime.program import Rank

        assert astlint.arguments is symexec.arguments is programfile.arguments
        for owner in (astlint, astlint._Linter, symexec,
                      symexec._SymbolicInterpreter):
            assert not hasattr(owner, "_argument")

        parameters = {
            parameter
            for name in programfile.ALL_METHODS
            for parameter in inspect.signature(getattr(Rank, name)).parameters
        }

        def positions(node):
            items = getattr(node, "args", None) or getattr(node, "elts", [])
            return [
                (a.value, b.value) for a, b in zip(items, items[1:])
                if isinstance(a, ast.Constant) and type(a.value) is int
                and isinstance(b, ast.Constant) and b.value in parameters
            ]

        root = Path(repro.__file__).parent
        by_hand = [
            f"{path.relative_to(root)}:{node.lineno}"
            for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Call, ast.Tuple)) and positions(node)
        ]
        assert by_hand == []


class TestParseFormat:
    @pytest.mark.parametrize(
        "tag,expected",
        [
            ("repro-live/1", ("live", 1)),
            ("repro-serve/12", ("serve", 12)),
            ("repro-a-b/3", ("a-b", 3)),
            ("repro-live", None),
            ("live/1", None),
            ("repro-live/x", None),
            ("", None),
            (None, None),
            (7, None),
        ],
    )
    def test_parsing(self, tag, expected):
        assert parse_format(tag) == expected


class TestValidateDoc:
    def test_missing_format_tag(self):
        with pytest.raises(DocError, match="no 'format' tag"):
            validate_doc({"kind": "snapshot"}, "live")

    def test_non_object(self):
        with pytest.raises(DocError, match="not a JSON object"):
            validate_doc([1, 2], "live")

    def test_unknown_family(self):
        with pytest.raises(DocError, match="unknown document family"):
            validate_doc({"format": "repro-nope/1"})

    def test_unknown_version_names_the_supported_one(self):
        with pytest.raises(
            DocError,
            match=r"unsupported repro-live/9 version "
            r"\(supported: repro-live/1\)",
        ):
            validate_doc({"format": "repro-live/9"}, "live")

    def test_wrong_family_for_expectation(self):
        with pytest.raises(DocError, match="expected a repro-live/1"):
            validate_doc({"format": "repro-blame/1"}, "live")

    def test_location_prefix(self):
        with pytest.raises(DocError, match=r"^feed\.jsonl:3: "):
            validate_doc(
                {"format": "repro-live/9"},
                "live",
                path="feed.jsonl",
                lineno=3,
            )

    def test_check_keys(self):
        with pytest.raises(DocError, match="missing key"):
            validate_doc(
                {"format": "repro-witness/1"}, "witness", check_keys=True
            )
        validate_doc(
            {"format": "repro-witness/1", "num_ranks": 2, "schedule": []},
            "witness",
            check_keys=True,
        )

    def test_supported_line(self):
        assert supported_line("live") == "supported: repro-live/1"


class TestSniffPath:
    def test_jsonl_feed(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text(
            '\n{"format": "repro-live/1", "kind": "header"}\n'
            '{"format": "repro-live/1", "kind": "snapshot"}\n'
        )
        assert sniff_path(str(path)) == ("live", 1, 2)

    def test_unknown_version_still_sniffs(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text('{"format": "repro-live/9"}\n')
        assert sniff_path(str(path)) == ("live", 9, 1)

    def test_whole_document(self, tmp_path):
        path = tmp_path / "blame.json"
        path.write_text(
            json.dumps({"format": "repro-blame/1", "root_causes": []}, indent=2)
        )
        assert sniff_path(str(path)) == ("blame", 1, 1)

    def test_untagged_inputs_return_none(self, tmp_path):
        chrome = tmp_path / "run.trace.json"
        chrome.write_text(json.dumps({"traceEvents": [], "repro": {}}))
        assert sniff_path(str(chrome)) is None
        raw = tmp_path / "events.jsonl"
        raw.write_text('{"ph": "i", "name": "x"}\n')
        assert sniff_path(str(raw)) is None
        assert sniff_path(str(tmp_path / "missing.json")) is None
        junk = tmp_path / "junk.txt"
        junk.write_text("not json at all")
        assert sniff_path(str(junk)) is None
