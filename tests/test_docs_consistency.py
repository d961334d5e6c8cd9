"""Keep the documentation honest: files, ids and names it references exist."""

import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestReadme:
    @pytest.fixture(scope="class")
    def readme(self):
        return (REPO / "README.md").read_text()

    def test_examples_listed_exist(self, readme):
        for match in re.findall(r"`examples/(\w+\.py)`", readme):
            assert (REPO / "examples" / match).exists(), match

    def test_docs_listed_exist(self, readme):
        for match in re.findall(r"`docs/(\w+\.md)`", readme):
            assert (REPO / "docs" / match).exists(), match

    def test_experiment_ids_valid(self, readme):
        from repro.bench.experiments import EXPERIMENTS

        block = re.search(r"Ids: `([^`]+)`", readme)
        assert block is not None
        for exp_id in block.group(1).split():
            assert exp_id in EXPERIMENTS, exp_id

    def test_quickstart_snippet_runs(self, readme):
        """The README's first code block must actually execute."""
        blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        assert blocks
        snippet = blocks[0].replace("100_000", "5_000").replace("12_345", "1_234")
        namespace = {}
        exec(snippet, namespace)  # noqa: S102 - executing our own docs
        assert namespace["position"] == 1_234


class TestDesignDoc:
    @pytest.fixture(scope="class")
    def design(self):
        return (REPO / "DESIGN.md").read_text()

    def test_modules_in_inventory_exist(self, design):
        for match in re.findall(r"`repro/([\w/]+\.py)`", design):
            assert (REPO / "src" / "repro" / match).exists(), match

    def test_experiment_index_ids_exist(self, design):
        from repro.bench.experiments import EXPERIMENTS

        for exp_id in re.findall(r"\| `((?:fig|table|sec|ext)[\w.]+)` \|", design):
            assert exp_id in EXPERIMENTS, exp_id

    def test_bench_targets_exist(self, design):
        for match in re.findall(r"`benchmarks/(test_bench_\w+\.py)`", design):
            assert (REPO / "benchmarks" / match).exists(), match

    def test_paper_confirmation_present(self, design):
        assert "Benchmarking Learned" in design
        assert "Marcus" in design


class TestDocPaths:
    #: A backticked source path: ``repro/...py`` (under ``src/``),
    #: ``tests/...py`` or ``benchmarks/...py``.
    PATH = re.compile(r"`(?:src/)?((repro|tests|benchmarks)/[\w/]+\.py)")

    def test_backticked_source_paths_exist(self):
        docs = sorted((REPO / "docs").glob("*.md"))
        missing = []
        for doc in docs + [REPO / "README.md", REPO / "DESIGN.md"]:
            for path, top in self.PATH.findall(doc.read_text()):
                root = REPO / "src" if top == "repro" else REPO
                if not (root / path).exists():
                    missing.append(f"{doc.name}: {path}")
        assert not missing, missing


class TestExperimentsDoc:
    def test_every_paper_artifact_has_a_section(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for artifact in (
            "Table 1", "Table 2", "Figure 6", "Figure 7", "Figure 8",
            "Figure 9", "Figure 10", "Figure 11", "Figure 12", "Figure 13",
            "Figure 14", "Figure 15", "Figure 16", "Figure 17", "Section 4.3",
        ):
            assert artifact in text, artifact

    def test_deviations_are_marked(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        assert "🔶" in text  # honest deviations recorded
