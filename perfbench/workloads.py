"""The four workloads: one operation each, and the check of its output.

Operations call govshapes through module attributes (``rdf.parse_turtle``,
``cli.main``, ...), looked up at call time, so the tracer's wrappers see
every call. Checks compare against the reference built in ``generate``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from collections import Counter
from pathlib import Path

import generate
from govshapes import cli, governance, ir, rdf, shacl

# The profiles each workload's set-up composes.
PROFILES = {
    "evidence_large": ("Combined",),
    "evidence_small": generate.COMPILER_PROFILES + generate.JURISDICTION_PROFILES,
    "refine_corpus": generate.COMPILER_PROFILES,
    "compile_blocks": ("Combined",),
}


class EvidenceWorkload:
    """Parse, validate, emit the report graph and serialize it."""

    def __init__(self, documents: list[generate.EvidenceInput], registry):
        self.documents = documents
        self.registry = registry

    def describe(self) -> str:
        doc = self.documents[0]
        return (f"{len(self.documents)} documents of {len(doc.text)} bytes "
                f"(first: {doc.profile}, {doc.violations} violations expected)")

    def run(self, i: int):
        doc = self.documents[i % len(self.documents)]
        graph = rdf.parse_turtle(doc.text)
        report = self.registry.validate_profile(graph, doc.profile).report
        return report, rdf.serialize_turtle(shacl.emit_report_graph(report))

    def check(self, i: int, out) -> bool:
        report, text = out
        doc = self.documents[i % len(self.documents)]
        per_copy = Counter(generate.copy_tag(getattr(v.focus_node, "value", ""))
                           for v in report.violations)
        verdict = "true" if doc.conforms else "false"
        return (report.conforms == doc.conforms
                and len(report.violations) == doc.violations
                and tuple(sorted(per_copy.items())) == doc.per_copy
                and text.count("a sh:ValidationResult") == doc.violations
                and f"sh:conforms {verdict}" in text)

    def close(self) -> None:
        pass


class RefineWorkload:
    """``govshapes refine --corpus DIR`` through ``cli.main``."""

    def __init__(self, data: generate.BundledData, seed: int, work_dir: Path):
        cases = generate.refine_cases(data, seed)
        self._tmp = tempfile.TemporaryDirectory(prefix="corpus-", dir=work_dir)
        self.corpus_dir = self._tmp.name
        for file_name, _, text in cases:
            Path(self.corpus_dir, file_name).write_text(text, "utf-8")
        self.cases = len(cases)
        self.expected = generate.refine_expectation(
            data, [(file_name[:-len(".ttl")], kind) for file_name, kind, _ in cases])

    def describe(self) -> str:
        return f"{self.cases} case files, compiler profile trio"

    def run(self, i: int):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = cli.main(["refine", "--corpus", self.corpus_dir])
        return status, stdout.getvalue()

    def check(self, i: int, out) -> bool:
        status, stdout = out
        return status == 0 and generate.check_refine_output(self.expected, stdout)

    def close(self) -> None:
        self._tmp.cleanup()


class CompileWorkload:
    """Compile a generated record file, compose it with two bundled blocks,
    and serialize both documents."""

    def __init__(self, data: generate.BundledData, seed: int, registry):
        self.sets = generate.obligation_sets(seed)
        self.inputs = [(k, text) for k, s in enumerate(self.sets) for text in s.texts]
        self.bundled = [registry.block(name) for name in generate.COMPOSED_BLOCKS]
        self.bundled_ids = frozenset().union(*data.block_ids.values())
        # first digests seen per record set; both record orders must match them
        self.digests: dict[int, tuple[str, str]] = {}

    def describe(self) -> str:
        s = self.sets[0]
        return (f"{len(self.inputs)} record files of {len(s.ids)} records "
                f"({s.query_records} query records each)")

    def run(self, i: int):
        _, text = self.inputs[i % len(self.inputs)]
        block = ir.compile_block(ir.parse_ir(text), "generated")
        block_ttl = rdf.serialize_turtle(block.document_graph())
        composed = governance.compose([block, *self.bundled])
        return block, composed, block_ttl, rdf.serialize_turtle(composed.document_graph())

    def check(self, i: int, out) -> bool:
        block, composed, block_ttl, composed_ttl = out
        k, _ = self.inputs[i % len(self.inputs)]
        ids = self.sets[k].ids
        digests = (hashlib.sha256(block_ttl.encode("utf-8")).hexdigest(),
                   hashlib.sha256(composed_ttl.encode("utf-8")).hexdigest())
        shapes = len(ids) + len(self.bundled_ids)
        return (block.obligations == ids
                and len(block.shapes) == len(ids)
                and composed.obligations == ids | self.bundled_ids
                and len(composed.shapes) == shapes
                and block_ttl.count("a sh:NodeShape") == len(ids)
                and composed_ttl.count("a sh:NodeShape") == shapes
                and self.digests.setdefault(k, digests) == digests)

    def close(self) -> None:
        pass


def build(name: str, data: generate.BundledData, seed: int, registry, work_dir: Path):
    """The workload ``name`` with inputs generated from ``seed``."""
    if name == "evidence_large":
        return EvidenceWorkload(generate.large_documents(data, seed), registry)
    if name == "evidence_small":
        return EvidenceWorkload(generate.small_documents(data, seed), registry)
    if name == "refine_corpus":
        return RefineWorkload(data, seed, work_dir)
    if name == "compile_blocks":
        return CompileWorkload(data, seed, registry)
    raise ValueError(f"unknown workload {name!r}")
