"""The benchmark's workloads: inputs made from a seed, the timed call, the output check.

Every workload runs a public entry point of :mod:`repro.pipeline` —
``Cleaner().clean`` or ``Cleaner().detect`` — on tax records made by
:class:`repro.datagen.generator.TaxRecordGenerator` with 5% noise.  The rows
are written to a CSV file and the rules to a ``.cfd`` file, and the rules
are read back with :func:`repro.io.text_format.read_cfd_file`, so rule
constants carry the same string types as the CSV cells.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.config import DetectionConfig, RepairConfig
from repro.core.cfd import CFD
from repro.core.violations import ViolationReport
from repro.datagen.cfd_catalog import experiment_cfd_set, zip_state_cfd
from repro.datagen.generator import TaxRecordGenerator, tax_schema
from repro.detection.engine import detect_violations
from repro.io.sources import CSVSource
from repro.io.text_format import read_cfd_file, write_cfd_file
from repro.pipeline import Cleaner, CleaningResult

#: Share of generated tuples with one corrupted RHS cell.
NOISE = 0.05


def _fd_rules() -> List[CFD]:
    """Three wildcard FDs over the tax schema (one all-wildcard pattern each)."""
    return [
        CFD.build(["ZIP", "MR", "CH"], ["STX", "MTX", "CTX"], [["_"] * 6], name="zip_exemption"),
        CFD.build(["ZIP"], ["ST"], [["_"] * 2], name="zip_state_fd"),
        CFD.build(["ZIP"], ["CT"], [["_"] * 2], name="zip_city_fd"),
    ]


def _numcfds_rules() -> List[CFD]:
    """The NUMCFDs=5 rule set of Section 5: 2,314 patterns, half with wildcards.

    The rules are the catalog's fixed sample (seed 0), as in the paper's
    experiments; the seed varies the data only.
    """
    return experiment_cfd_set(5, tabsz=1000, num_consts=0.5)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Generated tuples.
    rows: int
    #: ``"clean"`` or ``"detect"``.
    entry: str
    #: Hand the cleaner an in-memory relation (else the CSV path).
    in_memory: bool
    rules: Callable[[], List[CFD]]
    #: Explicit engine configs; ``None`` keeps the defaults (``method="auto"``).
    detection: Optional[DetectionConfig] = None
    repair: Optional[RepairConfig] = None

    def cleaner(self) -> Cleaner:
        return Cleaner(detection=self.detection, repair=self.repair)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "tableau_clean",
            rows=500,
            entry="clean",
            in_memory=True,
            rules=lambda: [zip_state_cfd()],
        ),
        Workload(
            "fd_clean",
            rows=20_000,
            entry="clean",
            in_memory=False,
            rules=_fd_rules,
        ),
        Workload(
            "fd_clean_sharded",
            rows=10_000,
            entry="clean",
            in_memory=False,
            rules=_fd_rules,
            detection=DetectionConfig(method="parallel", workers=2),
            repair=RepairConfig(method="parallel", workers=2),
        ),
        Workload(
            "detect_stream",
            rows=5_000,
            entry="detect",
            in_memory=False,
            rules=_numcfds_rules,
        ),
    )
}


@dataclass
class Inputs:
    """One workload's generated inputs, as the timed call receives them."""

    rows: int
    cfds: List[CFD]
    #: What the entry point is called with: a relation or a CSV path.
    source: Any
    csv_path: Path
    #: File name -> sha256 of each generated file.
    hashes: Dict[str, str]


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def build_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate, write and read back the workload's inputs for ``seed``.

    The rows are streamed to the CSV file, so generation never holds the
    relation in memory.
    """
    csv_path = workdir / f"{workload.name}.csv"
    cfd_path = workdir / f"{workload.name}.cfd"
    with open(csv_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(tax_schema().names)
        writer.writerows(TaxRecordGenerator(size=workload.rows, noise=NOISE, seed=seed).iter_rows())
    write_cfd_file(cfd_path, workload.rules())
    cfds = read_cfd_file(cfd_path)
    source: Any = CSVSource(csv_path).to_relation() if workload.in_memory else str(csv_path)
    hashes = {path.name: _sha256(path) for path in (csv_path, cfd_path)}
    return Inputs(rows=workload.rows, cfds=cfds, source=source, csv_path=csv_path, hashes=hashes)


def make_call(workload: Workload, inputs: Inputs) -> Callable[[], Any]:
    """The end-to-end call the benchmark times."""
    cleaner = workload.cleaner()
    if workload.entry == "clean":
        return lambda: cleaner.clean(inputs.source, inputs.cfds)
    return lambda: cleaner.detect(inputs.source, inputs.cfds)


# ---------------------------------------------------------------------------
# output checks (run outside the timed region)
# ---------------------------------------------------------------------------
def report_digest(report: ViolationReport) -> str:
    """sha256 over the full report: every violation, in order."""
    digest = hashlib.sha256()
    for violation in report.violations:
        digest.update(repr(violation).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def clean_digest(result: CleaningResult) -> str:
    """sha256 over the repaired relation, the change log and the cost."""
    digest = hashlib.sha256()
    for row in result.relation:
        digest.update(repr(row).encode())
        digest.update(b"\n")
    for change in result.changes:
        digest.update(
            repr(
                (
                    change.tuple_index,
                    change.attribute,
                    change.old_value,
                    change.new_value,
                    change.cost,
                    change.reason,
                )
            ).encode()
        )
        digest.update(b"\n")
    digest.update(repr(result.total_cost).encode())
    return digest.hexdigest()


def detect_digest(report: ViolationReport) -> str:
    """The full-report digest and a digest of ``violating_indices()``."""
    indices = hashlib.sha256(repr(sorted(report.violating_indices())).encode())
    return f"{report_digest(report)}/{indices.hexdigest()}"


def reference_detection(inputs: Inputs) -> str:
    """``detect_digest`` of non-streamed indexed detection on the materialised relation."""
    relation = CSVSource(inputs.csv_path).to_relation()
    return detect_digest(detect_violations(relation, inputs.cfds, method="indexed"))


def output_digest(workload: Workload, output: Any) -> str:
    """What the checks compare: ``clean_digest`` or ``detect_digest``."""
    if workload.entry == "clean":
        return clean_digest(output)
    return detect_digest(output)


def check_output(workload: Workload, output: Any) -> Optional[str]:
    """``None`` when the call itself reports success, else the reason it does not.

    A ``clean`` result must be verified clean.  Whether an output is the
    right one is decided by comparing its ``output_digest`` with the
    reference's: the warm-up's for ``clean`` (every call repeats the
    relation, change log and cost exactly), non-streamed indexed detection
    for ``detect`` (the full report and the violating tuples).
    """
    if workload.entry == "clean" and not output.clean:
        return "clean() returned clean=False"
    return None
