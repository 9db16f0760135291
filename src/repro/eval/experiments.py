"""Reproduction of every table and figure in the paper's evaluation.

Each ``table*``/``figure*`` function regenerates one artifact of Section 4
(or the appendices) and returns an :class:`ExperimentResult`: structured rows
plus summary lines phrased the way the paper phrases them ("TrieJax
outperforms X by N× on average...").  ``repro experiment`` runs them through
:data:`EXPERIMENT_REGISTRY`, and ``tests/test_eval.py`` checks their shape and
each figure's direction on a tiny context.

The functions accept an :class:`~repro.eval.harness.ExperimentContext`, so
callers control the dataset scale, the query/dataset subset and the
accelerator configuration; the default context uses a small scale so a whole
figure regenerates in seconds (see DESIGN.md's scaling note).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.eval.harness import ExperimentContext
from repro.eval.metrics import reduction, speedup, summarise_ratios
from repro.eval.reporting import format_ratio_summary, format_table
from repro.graphs.datasets import table2_rows
from repro.graphs.patterns import table1_rows

#: Component order of the Figure 15 energy stack.
ENERGY_COMPONENTS: Tuple[str, ...] = ("DRAM", "LLC", "L2", "L1", "PJR cache", "TrieJaxCore")

#: Thread counts swept by Figure 14.
FIGURE14_THREAD_COUNTS: Tuple[int, ...] = (1, 4, 8, 16, 32, 64)

#: Workloads of the Figure 18 appendix (queries x datasets).
FIGURE18_QUERIES: Tuple[str, ...] = ("path4", "cycle4", "clique4")
FIGURE18_DATASETS: Tuple[str, ...] = ("bitcoin", "grqc", "wiki")


@dataclass
class ExperimentResult:
    """Structured outcome of one reproduced table or figure."""

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]]
    summaries: List[str] = field(default_factory=list)
    provenance: str = ""

    def to_text(self) -> str:
        """Render the experiment the way the benchmark harness prints it."""
        parts = [
            format_table(
                self.headers, self.rows, title=f"{self.experiment_id}: {self.title}"
            )
        ]
        if self.summaries:
            parts.append("")
            parts.extend(self.summaries)
        if self.provenance:
            parts.append("")
            parts.append(f"[{self.provenance}]")
        return "\n".join(parts)

    def column(self, header: str) -> List[object]:
        """Extract one column by header name (used by tests)."""
        index = list(self.headers).index(header)
        return [row[index] for row in self.rows]


def _context(context: Optional[ExperimentContext]) -> ExperimentContext:
    return context if context is not None else ExperimentContext()


# --------------------------------------------------------------------------- #
# Tables
# --------------------------------------------------------------------------- #
def table1(context: Optional[ExperimentContext] = None) -> ExperimentResult:
    """Table 1: the graph pattern queries and their join-query form."""
    rows = [list(row) for row in table1_rows()]
    return ExperimentResult(
        experiment_id="table1",
        title="Graph pattern matching queries used in the evaluation",
        headers=("Name", "Query (datalog)"),
        rows=rows,
        provenance="static query definitions",
    )


def table2(context: Optional[ExperimentContext] = None) -> ExperimentResult:
    """Table 2: dataset statistics (paper sizes and generated sizes at scale)."""
    ctx = _context(context)
    rows: List[Sequence[object]] = []
    for snap_name, short_name, nodes, edges, category in table2_rows():
        if short_name in ctx.datasets:
            graph = ctx.database(short_name).relation(ctx.edge_relation)
            generated_nodes = len(
                {v for row in graph.sorted_rows() for v in row}
            )
            generated_edges = graph.cardinality
        else:
            generated_nodes = generated_edges = 0
        rows.append(
            (
                snap_name,
                short_name,
                nodes,
                edges,
                category,
                generated_nodes,
                generated_edges,
            )
        )
    return ExperimentResult(
        experiment_id="table2",
        title="Dataset statistics (paper size vs generated synthetic stand-in)",
        headers=(
            "Dataset",
            "Short",
            "#Nodes (paper)",
            "#Edges (paper)",
            "Category",
            "#Nodes (generated)",
            "#Edges (generated)",
        ),
        rows=rows,
        provenance=ctx.describe(),
    )


def table3(context: Optional[ExperimentContext] = None) -> ExperimentResult:
    """Table 3: experimental configuration of TrieJax and the software platform."""
    ctx = _context(context)
    config = ctx.triejax_config
    from repro.baselines.cpu_model import CPUConfig

    cpu = CPUConfig()
    rows = [
        (
            "Processing unit",
            f"TrieJax core @ {config.frequency_ghz:.2f}GHz, "
            f"PJR {config.pjr_size_bytes // (1024 * 1024)}MB SRAM, "
            f"{config.num_threads} threads",
            f"{cpu.num_cores} x Xeon E5-2630 v3 cores @ {cpu.frequency_ghz:.1f}GHz",
        ),
        (
            "On-chip memory",
            f"L1D RO {config.hierarchy.l1_size_bytes // 1024}KB, "
            f"L2 RO {config.hierarchy.l2_size_bytes // 1024}KB, "
            f"L3 {config.hierarchy.llc_size_bytes // (1024 * 1024)}MB",
            f"L1I/L1D 32KB/core, L2 512KB/core, L3 {cpu.llc_bytes // (1024 * 1024)}MB",
        ),
        (
            "Off-chip memory",
            f"DDR3-1600, {config.dram.num_channels} channels",
            "DDR3, 2 channels",
        ),
        ("Core area", f"{config.core_area_mm2} mm2", "n/a"),
    ]
    return ExperimentResult(
        experiment_id="table3",
        title="Experimental configuration for TrieJax and the software baselines",
        headers=("Resource", "TrieJax", "Software framework"),
        rows=rows,
        provenance=ctx.describe(),
    )


# --------------------------------------------------------------------------- #
# Figure 13: performance comparison
# --------------------------------------------------------------------------- #
def figure13(context: Optional[ExperimentContext] = None) -> ExperimentResult:
    """Figure 13: TrieJax speedup over the four baselines (log-scale bars)."""
    ctx = _context(context)
    rows: List[Sequence[object]] = []
    ratios: Dict[str, List[float]] = {name: [] for name in ctx.baseline_names()}
    for query_name, dataset_name in ctx.workload_grid():
        triejax = ctx.run_triejax(query_name, dataset_name)
        row: List[object] = [query_name, dataset_name]
        for system_name in ctx.baseline_names():
            baseline = ctx.run_baseline(system_name, query_name, dataset_name)
            ratio = speedup(baseline.runtime_ns, triejax.report.runtime_ns)
            ratios[system_name].append(ratio)
            row.append(ratio)
        rows.append(row)
    summaries = [
        format_ratio_summary(
            f"TrieJax speedup vs {system_name}", summarise_ratios(ratios[system_name])
        )
        for system_name in ctx.baseline_names()
    ]
    headers = ["query", "dataset"] + [
        f"{name}/TrieJax" for name in ctx.baseline_names()
    ]
    return ExperimentResult(
        experiment_id="figure13",
        title="TrieJax performance speedup compared to the baselines",
        headers=headers,
        rows=rows,
        summaries=summaries,
        provenance=ctx.describe(),
    )


# --------------------------------------------------------------------------- #
# Figure 14: multithreading sweep
# --------------------------------------------------------------------------- #
def figure14(
    context: Optional[ExperimentContext] = None,
    thread_counts: Sequence[int] = FIGURE14_THREAD_COUNTS,
    queries: Optional[Sequence[str]] = None,
    datasets: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Figure 14: speedup of dynamic multithreading over a single thread.

    The sweep re-simulates TrieJax once per thread count per workload, so the
    default restricts itself to a representative subset of the context's
    queries/datasets; pass explicit ``queries``/``datasets`` to widen it.
    """
    ctx = _context(context)
    queries = list(queries) if queries is not None else list(ctx.queries)[:3]
    datasets = list(datasets) if datasets is not None else list(ctx.datasets)[:2]

    per_thread_ratios: Dict[int, List[float]] = {count: [] for count in thread_counts}
    for query_name in queries:
        for dataset_name in datasets:
            baseline_cycles: Optional[int] = None
            for count in thread_counts:
                config = ctx.triejax_config.with_threads(
                    count, mt_scheme="dynamic" if count > 1 else "dynamic"
                )
                outcome = ctx.run_triejax(query_name, dataset_name, config)
                if count == thread_counts[0]:
                    baseline_cycles = outcome.report.total_cycles
                if baseline_cycles:
                    per_thread_ratios[count].append(
                        baseline_cycles / max(outcome.report.total_cycles, 1)
                    )
    rows = [
        (
            f"{count}T",
            summarise_ratios(per_thread_ratios[count])["mean"],
        )
        for count in thread_counts
    ]
    summaries = []
    reference = dict(rows)
    for count in (8, 32, 64):
        label = f"{count}T"
        if label in reference:
            summaries.append(
                f"{count} threads improve average performance by "
                f"{reference[label]:.1f}x over a single thread"
            )
    return ExperimentResult(
        experiment_id="figure14",
        title="Speedup of TrieJax with different numbers of dynamic threads vs single-threaded",
        headers=("threads", "speedup_over_1T"),
        rows=rows,
        summaries=summaries,
        provenance=_context(context).describe()
        + f" | fig14 queries={','.join(queries)} datasets={','.join(datasets)}",
    )


# --------------------------------------------------------------------------- #
# Figure 15: energy distribution
# --------------------------------------------------------------------------- #
def figure15(context: Optional[ExperimentContext] = None) -> ExperimentResult:
    """Figure 15: average energy-consumption distribution of TrieJax per query."""
    ctx = _context(context)
    rows: List[Sequence[object]] = []
    summaries: List[str] = []
    for query_name in ctx.queries:
        totals = {component: 0.0 for component in ENERGY_COMPONENTS}
        for dataset_name in ctx.datasets:
            outcome = ctx.run_triejax(query_name, dataset_name)
            for component, energy in outcome.report.energy.components.items():
                totals[component] = totals.get(component, 0.0) + energy
        grand_total = sum(totals.values()) or 1.0
        fractions = [totals.get(c, 0.0) / grand_total for c in ENERGY_COMPONENTS]
        rows.append([query_name] + fractions)
        summaries.append(
            f"{query_name}: DRAM accounts for {fractions[0]:.1%} of TrieJax energy"
        )
    headers = ["query"] + [f"{c} fraction" for c in ENERGY_COMPONENTS]
    return ExperimentResult(
        experiment_id="figure15",
        title="Average energy consumption distribution of TrieJax for each query",
        headers=headers,
        rows=rows,
        summaries=summaries,
        provenance=ctx.describe(),
    )


# --------------------------------------------------------------------------- #
# Figure 16: energy reduction
# --------------------------------------------------------------------------- #
def figure16(context: Optional[ExperimentContext] = None) -> ExperimentResult:
    """Figure 16: reduction in energy consumption obtained with TrieJax."""
    ctx = _context(context)
    rows: List[Sequence[object]] = []
    ratios: Dict[str, List[float]] = {name: [] for name in ctx.baseline_names()}
    for query_name, dataset_name in ctx.workload_grid():
        triejax = ctx.run_triejax(query_name, dataset_name)
        row: List[object] = [query_name, dataset_name]
        for system_name in ctx.baseline_names():
            baseline = ctx.run_baseline(system_name, query_name, dataset_name)
            ratio = reduction(baseline.energy_nj, triejax.report.total_energy_nj)
            ratios[system_name].append(ratio)
            row.append(ratio)
        rows.append(row)
    summaries = [
        format_ratio_summary(
            f"TrieJax energy reduction vs {system_name}",
            summarise_ratios(ratios[system_name]),
        )
        for system_name in ctx.baseline_names()
    ]
    headers = ["query", "dataset"] + [
        f"{name}/TrieJax" for name in ctx.baseline_names()
    ]
    return ExperimentResult(
        experiment_id="figure16",
        title="Reduction in energy consumption obtained with TrieJax vs the baselines",
        headers=headers,
        rows=rows,
        summaries=summaries,
        provenance=ctx.describe(),
    )


# --------------------------------------------------------------------------- #
# Figure 17 (Appendix B): main-memory accesses
# --------------------------------------------------------------------------- #
def figure17(context: Optional[ExperimentContext] = None) -> ExperimentResult:
    """Figure 17: number of main-memory accesses for each baseline."""
    ctx = _context(context)
    rows: List[Sequence[object]] = []
    accesses: Dict[str, List[float]] = {name: [] for name in ctx.baseline_names()}
    for query_name, dataset_name in ctx.workload_grid():
        row: List[object] = [query_name, dataset_name]
        for system_name in ctx.baseline_names():
            baseline = ctx.run_baseline(system_name, query_name, dataset_name)
            row.append(baseline.dram_accesses)
            accesses[system_name].append(float(max(baseline.dram_accesses, 1)))
        triejax = ctx.run_triejax(query_name, dataset_name)
        row.append(triejax.report.dram.accesses)
        rows.append(row)

    ctj_accesses = accesses["ctj"]
    summaries = []
    for system_name in ("emptyheaded", "graphicionado", "q100"):
        ratio_series = [
            other / ctj for other, ctj in zip(accesses[system_name], ctj_accesses)
        ]
        summary = summarise_ratios(ratio_series)
        summaries.append(
            f"CTJ generates {summary['mean']:.1f}x fewer main-memory accesses than "
            f"{system_name} on average"
        )
    headers = (
        ["query", "dataset"]
        + list(ctx.baseline_names())
        + ["triejax (for reference)"]
    )
    return ExperimentResult(
        experiment_id="figure17",
        title="Number of main-memory accesses (per baseline, log scale in the paper)",
        headers=headers,
        rows=rows,
        summaries=summaries,
        provenance=ctx.describe(),
    )


# --------------------------------------------------------------------------- #
# Figure 18 (Appendix A): intermediate results
# --------------------------------------------------------------------------- #
def figure18(
    context: Optional[ExperimentContext] = None,
    queries: Sequence[str] = FIGURE18_QUERIES,
    datasets: Sequence[str] = FIGURE18_DATASETS,
) -> ExperimentResult:
    """Figure 18: intermediate results generated by CTJ vs the pairwise join."""
    ctx = _context(context)
    rows: List[Sequence[object]] = []
    ratios: Dict[str, List[float]] = {query: [] for query in queries}
    for query_name in queries:
        for dataset_name in datasets:
            # Both engines resolve through the shared registry (memoised).
            ctj_result = ctx.run_engine("ctj", query_name, dataset_name)
            pairwise_result = ctx.run_engine("pairwise", query_name, dataset_name)
            ctj_ir = ctj_result.stats.intermediate_results
            pairwise_ir = pairwise_result.stats.intermediate_results
            rows.append((query_name, dataset_name, ctj_ir, pairwise_ir))
            if ctj_ir > 0:
                ratios[query_name].append(pairwise_ir / ctj_ir)
    summaries = []
    for query_name in queries:
        if ratios[query_name]:
            summary = summarise_ratios(ratios[query_name])
            summaries.append(
                f"{query_name}: CTJ generates {summary['mean']:.1f}x fewer intermediate "
                "results than the pairwise join on average"
            )
        else:
            summaries.append(
                f"{query_name}: CTJ generates no intermediate results at all "
                "(nothing is reusable, so nothing is cached)"
            )
    return ExperimentResult(
        experiment_id="figure18",
        title="Intermediate results generated by CTJ vs the pairwise join algorithm",
        headers=("query", "dataset", "CTJ", "PairwiseJoin"),
        rows=rows,
        summaries=summaries,
        provenance=ctx.describe(),
    )


# --------------------------------------------------------------------------- #
# Ablations called out in the text
# --------------------------------------------------------------------------- #
def ablation_write_bypass(
    context: Optional[ExperimentContext] = None,
    queries: Sequence[str] = ("path4", "path3"),
    datasets: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Section 3.1 claim: bypassing the private caches for result writes helps.

    The paper reports up to 2.5x on write-heavy queries such as path4.
    """
    ctx = _context(context)
    datasets = list(datasets) if datasets is not None else list(ctx.datasets)[:3]
    rows: List[Sequence[object]] = []
    for query_name in queries:
        for dataset_name in datasets:
            with_bypass = ctx.run_triejax(
                query_name, dataset_name, ctx.triejax_config.with_write_bypass(True)
            )
            without_bypass = ctx.run_triejax(
                query_name, dataset_name, ctx.triejax_config.with_write_bypass(False)
            )
            rows.append(
                (
                    query_name,
                    dataset_name,
                    with_bypass.report.total_cycles,
                    without_bypass.report.total_cycles,
                    without_bypass.report.total_cycles
                    / max(with_bypass.report.total_cycles, 1),
                )
            )
    return ExperimentResult(
        experiment_id="ablation_write_bypass",
        title="Effect of streaming result writes around the private caches (Section 3.1)",
        headers=("query", "dataset", "cycles (bypass)", "cycles (no bypass)", "benefit"),
        rows=rows,
        provenance=ctx.describe(),
    )


def ablation_pjr_cache(
    context: Optional[ExperimentContext] = None,
    datasets: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Section 3.5 / 4.4: effect of the partial-join-result cache per query."""
    ctx = _context(context)
    datasets = list(datasets) if datasets is not None else list(ctx.datasets)[:3]
    rows: List[Sequence[object]] = []
    for query_name in ctx.queries:
        for dataset_name in datasets:
            with_pjr = ctx.run_triejax(query_name, dataset_name)
            without_pjr = ctx.run_triejax(
                query_name, dataset_name, ctx.triejax_config.without_pjr_cache()
            )
            rows.append(
                (
                    query_name,
                    dataset_name,
                    with_pjr.report.total_cycles,
                    without_pjr.report.total_cycles,
                    without_pjr.report.total_cycles / max(with_pjr.report.total_cycles, 1),
                    with_pjr.report.pjr.hit_rate,
                )
            )
    return ExperimentResult(
        experiment_id="ablation_pjr_cache",
        title="Effect of the partial-join-result cache (disabled vs enabled)",
        headers=(
            "query",
            "dataset",
            "cycles (PJR on)",
            "cycles (PJR off)",
            "benefit",
            "PJR hit rate",
        ),
        rows=rows,
        provenance=ctx.describe(),
    )


def ablation_mt_scheme(
    context: Optional[ExperimentContext] = None,
    datasets: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Section 3.4: static vs dynamic vs hybrid multithreading."""
    ctx = _context(context)
    datasets = list(datasets) if datasets is not None else list(ctx.datasets)[:2]
    rows: List[Sequence[object]] = []
    for query_name in ctx.queries:
        for dataset_name in datasets:
            cycles_by_scheme = {}
            for scheme in ("static", "dynamic", "hybrid"):
                config = ctx.triejax_config.with_threads(
                    ctx.triejax_config.num_threads, mt_scheme=scheme
                )
                outcome = ctx.run_triejax(query_name, dataset_name, config)
                cycles_by_scheme[scheme] = outcome.report.total_cycles
            rows.append(
                (
                    query_name,
                    dataset_name,
                    cycles_by_scheme["static"],
                    cycles_by_scheme["dynamic"],
                    cycles_by_scheme["hybrid"],
                    cycles_by_scheme["static"] / max(cycles_by_scheme["hybrid"], 1),
                )
            )
    return ExperimentResult(
        experiment_id="ablation_mt_scheme",
        title="Static vs dynamic vs hybrid multithreading (cycles)",
        headers=("query", "dataset", "static", "dynamic", "hybrid", "static/hybrid"),
        rows=rows,
        provenance=ctx.describe(),
    )


#: Registry used by the benchmark harness and the documentation.
EXPERIMENT_REGISTRY = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "figure13": figure13,
    "figure14": figure14,
    "figure15": figure15,
    "figure16": figure16,
    "figure17": figure17,
    "figure18": figure18,
    "ablation_write_bypass": ablation_write_bypass,
    "ablation_pjr_cache": ablation_pjr_cache,
    "ablation_mt_scheme": ablation_mt_scheme,
}
