"""Regenerate every figure of the paper's evaluation as data series.

Figures are reproduced as numeric series (x, y) per curve — the same
data the paper plots — rendered as aligned text by
:meth:`FigureResult.format`. The mapping to paper figures:

* :func:`figure_scalability` — Figures 1 (massive) and 3 (light):
  ARE and running time of WSD-L/WSD-H vs stream size.
* :func:`figure_ordering` — Figures 2(a)/4(a): ARE per stream ordering.
* :func:`figure_reservoir_size` — Figures 2(b)/4(b): ARE vs M.
* :func:`figure_training_size` — Figures 2(c)/4(c): training time and
  ARE vs training-graph size.
* :func:`figure_weight_relationship` — Figures 2(d)/4(d): learned edge
  weight vs the edge's triangle count.
* :func:`figure_beta_sweep` — Figure 5: ARE vs β_m / β_l.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.experiments.algorithms import (
    DYNAMIC_ALGORITHMS,
    PolicyStore,
    make_sampler,
    training_dataset_for,
)
from repro.experiments.config import ExperimentConfig, ScenarioConfig
from repro.experiments.runner import compute_ground_truth, run_algorithm
from repro.experiments.tables import scenario_by_name
from repro.graph.generators import forest_fire
from repro.patterns.exact import ExactCounter
from repro.rl.training import (
    TrainingConfig,
    make_training_streams,
    train_weight_policy,
)
from repro.utils.rng import RngFactory
from repro.utils.tables import format_table
from repro.utils.timer import Timer

__all__ = [
    "FigureResult",
    "figure_scalability",
    "figure_ordering",
    "figure_reservoir_size",
    "figure_training_size",
    "figure_weight_relationship",
    "figure_beta_sweep",
]


@dataclass
class FigureResult:
    """Named (x, y) series reproducing one paper figure."""

    title: str
    x_label: str
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)

    def format(self, precision: int = 4) -> str:
        xs = sorted({x for points in self.series.values() for x, _ in points})
        headers = [self.x_label] + list(self.series)
        lookup = {
            name: dict(points) for name, points in self.series.items()
        }
        rows = [
            [x] + [lookup[name].get(x, float("nan")) for name in self.series]
            for x in xs
        ]
        return format_table(headers, rows, title=self.title,
                            precision=precision)

    def ys(self, name: str) -> list[float]:
        """The y-values of one series, in x order."""
        return [y for _, y in sorted(self.series[name])]


def figure_scalability(
    scenario: str | ScenarioConfig = "massive",
    sizes: tuple[int, ...] = (1_000, 2_000, 4_000, 8_000, 16_000),
    pattern: str = "triangle",
    budget: int = 1_200,
    trials: int = 3,
    forest_fire_p: float = 0.5,
    seed: int = 0,
    policy_store: PolicyStore | None = None,
) -> FigureResult:
    """Figures 1 / 3: ARE and time of WSD-L/WSD-H vs stream size.

    Graphs come from Forest Fire G(n, p) as in the paper; ``sizes`` are
    vertex counts (the paper's 10M–5B *event* sweep scaled down), and
    the sample budget M is fixed across sizes so the sampled fraction
    shrinks as streams grow — reproducing the rising-ARE shape.
    """
    scenario_cfg = (
        scenario_by_name(scenario) if isinstance(scenario, str) else scenario
    )
    store = policy_store if policy_store is not None else PolicyStore()
    policy = store.get("synthetic-train", pattern, scenario_cfg)
    factory = RngFactory(seed)
    result = FigureResult(
        title=f"Scalability ({scenario_cfg.name} scenario)",
        x_label="events",
    )
    for algorithm in ("WSD-L", "WSD-H"):
        result.series[f"{algorithm} ARE (%)"] = []
        result.series[f"{algorithm} time (s)"] = []
    for n in sizes:
        edges = forest_fire(
            n, p=forest_fire_p, rng=factory.generator(f"graph-{n}")
        )
        config = ExperimentConfig(
            pattern=pattern, scenario=scenario_cfg, budget=budget,
            trials=trials, seed=seed,
        )
        stream = scenario_cfg.build(edges, factory.generator(f"scenario-{n}"))
        truth = compute_ground_truth(stream, pattern, config.checkpoints)
        for algorithm in ("WSD-L", "WSD-H"):
            run = run_algorithm(
                algorithm, stream, truth, pattern,
                min(budget, max(8, stream.num_insertions)),
                trials=trials, seed=seed,
                policy=policy if algorithm == "WSD-L" else None,
            )
            result.series[f"{algorithm} ARE (%)"].append(
                (float(len(stream)), run.mean_are)
            )
            result.series[f"{algorithm} time (s)"].append(
                (float(len(stream)), run.mean_seconds)
            )
    return result


def figure_ordering(
    scenario: str | ScenarioConfig = "massive",
    dataset: str = "cit-PT",
    pattern: str = "triangle",
    orderings: tuple[str, ...] = ("natural", "uar", "rbfs"),
    algorithms: tuple[str, ...] = DYNAMIC_ALGORITHMS,
    trials: int = 5,
    budget_fraction: float = 0.04,
    seed: int = 0,
    policy_store: PolicyStore | None = None,
) -> FigureResult:
    """Figures 2(a) / 4(a): ARE under natural / UAR / RBFS orderings."""
    scenario_cfg = (
        scenario_by_name(scenario) if isinstance(scenario, str) else scenario
    )
    store = policy_store if policy_store is not None else PolicyStore()
    policy = store.get(training_dataset_for(dataset), pattern, scenario_cfg)
    result = FigureResult(
        title=(
            f"ARE (%) vs stream ordering on {dataset} "
            f"({scenario_cfg.name} scenario)"
        ),
        x_label="ordering#",
    )
    for algorithm in algorithms:
        result.series[algorithm] = []
    for i, ordering in enumerate(orderings):
        config = ExperimentConfig(
            dataset=dataset, pattern=pattern, scenario=scenario_cfg,
            budget_fraction=budget_fraction, trials=trials,
            ordering=ordering, seed=seed,
        )
        stream = config.build_stream()
        truth = compute_ground_truth(stream, pattern, config.checkpoints)
        budget = config.effective_budget(stream)
        for algorithm in algorithms:
            run = run_algorithm(
                algorithm, stream, truth, pattern, budget,
                trials=trials, seed=seed,
                policy=policy if algorithm == "WSD-L" else None,
            )
            result.series[algorithm].append((float(i), run.mean_are))
    result.title += f" [x: {', '.join(f'{i}={o}' for i, o in enumerate(orderings))}]"
    return result


def figure_reservoir_size(
    scenario: str | ScenarioConfig = "massive",
    dataset: str = "cit-PT",
    pattern: str = "triangle",
    fractions: tuple[float, ...] = (0.01, 0.02, 0.03, 0.04, 0.05),
    algorithms: tuple[str, ...] = DYNAMIC_ALGORITHMS,
    trials: int = 5,
    seed: int = 0,
    policy_store: PolicyStore | None = None,
) -> FigureResult:
    """Figures 2(b) / 4(b): ARE vs the reservoir budget M (1–5% of |E|)."""
    scenario_cfg = (
        scenario_by_name(scenario) if isinstance(scenario, str) else scenario
    )
    store = policy_store if policy_store is not None else PolicyStore()
    policy = store.get(training_dataset_for(dataset), pattern, scenario_cfg)
    config = ExperimentConfig(
        dataset=dataset, pattern=pattern, scenario=scenario_cfg,
        trials=trials, seed=seed,
    )
    stream = config.build_stream()
    truth = compute_ground_truth(stream, pattern, config.checkpoints)
    result = FigureResult(
        title=(
            f"ARE (%) vs reservoir size on {dataset} "
            f"({scenario_cfg.name} scenario)"
        ),
        x_label="M (% of |E|)",
    )
    for algorithm in algorithms:
        result.series[algorithm] = []
    for fraction in fractions:
        budget = max(8, int(stream.num_insertions * fraction))
        for algorithm in algorithms:
            run = run_algorithm(
                algorithm, stream, truth, pattern, budget,
                trials=trials, seed=seed,
                policy=policy if algorithm == "WSD-L" else None,
            )
            result.series[algorithm].append(
                (fraction * 100.0, run.mean_are)
            )
    return result


def figure_training_size(
    scenario: str | ScenarioConfig = "massive",
    train_sizes: tuple[int, ...] = (250, 500, 1_000, 2_000),
    test_size: int = 4_000,
    pattern: str = "triangle",
    iterations: int = 300,
    trials: int = 3,
    budget_fraction: float = 0.04,
    seed: int = 0,
) -> FigureResult:
    """Figures 2(c) / 4(c): training time and test ARE vs training size.

    Forest-Fire training graphs of growing size train policies that are
    all evaluated on one larger Forest-Fire test stream — reproducing
    the paper's "training cost grows much faster than accuracy" curve.
    """
    scenario_cfg = (
        scenario_by_name(scenario) if isinstance(scenario, str) else scenario
    )
    factory = RngFactory(seed)
    test_edges = forest_fire(test_size, p=0.5, rng=factory.generator("test"))
    stream = scenario_cfg.build(test_edges, factory.generator("test-scn"))
    truth = compute_ground_truth(stream, pattern, 40)
    budget = max(8, int(stream.num_insertions * budget_fraction))
    result = FigureResult(
        title=f"Training size sweep ({scenario_cfg.name} scenario)",
        x_label="train vertices",
    )
    result.series["train time (s)"] = []
    result.series["ARE (%)"] = []
    for n in train_sizes:
        edges = forest_fire(n, p=0.5, rng=factory.generator(f"train-{n}"))
        streams = make_training_streams(
            edges,
            scenario_cfg.name,
            num_streams=3,
            alpha=(
                min(1.0, scenario_cfg.alpha / max(len(edges), 1))
                if scenario_cfg.name == "massive"
                else None
            ),
            beta=scenario_cfg.effective_beta,
            seed=seed,
        )
        with Timer() as timer:
            trained = train_weight_policy(
                streams, pattern, max(8, int(len(edges) * budget_fraction)),
                config=TrainingConfig(iterations=iterations, num_streams=3),
                seed=seed,
            )
        run = run_algorithm(
            "WSD-L", stream, truth, pattern, budget,
            trials=trials, seed=seed, policy=trained.policy,
        )
        result.series["train time (s)"].append((float(n), timer.seconds))
        result.series["ARE (%)"].append((float(n), run.mean_are))
    return result


def figure_weight_relationship(
    scenario: str | ScenarioConfig = "massive",
    dataset: str = "cit-PT",
    pattern: str = "triangle",
    runs: int = 10,
    budget_fraction: float = 0.04,
    max_bins: int = 8,
    seed: int = 0,
    policy_store: PolicyStore | None = None,
) -> FigureResult:
    """Figures 2(d) / 4(d): learned weight vs per-edge triangle count.

    Runs WSD-L several times, averaging each edge's assigned weight,
    then buckets edges by the number of pattern instances they belong to
    in the final graph. The paper's observation — heavier edges sit in
    more triangles — shows as a monotone series.
    """
    if runs < 1:
        raise ConfigurationError("runs must be >= 1")
    scenario_cfg = (
        scenario_by_name(scenario) if isinstance(scenario, str) else scenario
    )
    store = policy_store if policy_store is not None else PolicyStore()
    policy = store.get(training_dataset_for(dataset), pattern, scenario_cfg)
    config = ExperimentConfig(
        dataset=dataset, pattern=pattern, scenario=scenario_cfg, seed=seed,
    )
    stream = config.build_stream()
    budget = config.effective_budget(stream)
    factory = RngFactory(seed)

    # Mean learned weight per edge over repeated runs.
    weight_sum: dict[tuple, float] = {}
    weight_count: dict[tuple, int] = {}
    for run_idx in range(runs):
        sampler = make_sampler(
            "WSD-L", pattern, budget,
            rng=factory.generator(f"run-{run_idx}"), policy=policy,
        )
        # Per-event on purpose: the average needs each insertion's last_weight.
        for event in stream:
            sampler.process(event)
            if event.is_insertion and sampler.last_weight is not None:
                weight_sum[event.edge] = (
                    weight_sum.get(event.edge, 0.0) + sampler.last_weight
                )
                weight_count[event.edge] = weight_count.get(event.edge, 0) + 1

    # Per-edge instance membership in the final graph.
    exact = ExactCounter(pattern)
    exact.process_stream(stream)
    graph = exact.graph
    per_edge_instances: dict[tuple, int] = {}
    pat = exact.pattern
    for edge in list(graph.edges()):
        u, v = edge
        # Count instances containing this edge: remove it, count the
        # instances it completes, and re-add.
        graph.remove_edge(u, v)
        per_edge_instances[edge] = pat.count_completed(graph, u, v)
        graph.add_edge(u, v)

    counts = sorted({per_edge_instances.get(e, 0) for e in weight_sum})
    # Bucket counts into at most max_bins groups for a readable series.
    if len(counts) > max_bins:
        edges_arr = np.array_split(np.asarray(counts), max_bins)
        buckets = [(int(chunk[0]), int(chunk[-1])) for chunk in edges_arr if len(chunk)]
    else:
        buckets = [(c, c) for c in counts]
    series: list[tuple[float, float]] = []
    for lo, hi in buckets:
        weights = [
            weight_sum[e] / weight_count[e]
            for e in weight_sum
            if lo <= per_edge_instances.get(e, 0) <= hi
        ]
        if weights:
            series.append((float((lo + hi) / 2.0), float(np.mean(weights))))
    result = FigureResult(
        title=(
            f"Mean learned weight vs per-edge {pattern} count on "
            f"{dataset} ({scenario_cfg.name} scenario)"
        ),
        x_label=f"{pattern}s containing edge",
    )
    result.series["mean weight"] = series
    return result


def figure_beta_sweep(
    dataset: str = "cit-PT",
    pattern: str = "triangle",
    betas: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8),
    algorithms: tuple[str, ...] = DYNAMIC_ALGORITHMS,
    trials: int = 5,
    budget_fraction: float = 0.04,
    seed: int = 0,
    policy_store: PolicyStore | None = None,
) -> dict[str, FigureResult]:
    """Figure 5: ARE vs β_m (massive) and β_l (light) on cit-PT.

    Per the paper, the WSD-L policy is retrained for each β (the policy
    store keys include β). β = 0 degenerates both scenarios to
    insertion-only streams.
    """
    store = policy_store if policy_store is not None else PolicyStore()
    results: dict[str, FigureResult] = {}
    for scenario_name in ("massive", "light"):
        figure = FigureResult(
            title=(
                f"ARE (%) vs beta on {dataset} ({scenario_name} scenario)"
            ),
            x_label="beta",
        )
        for algorithm in algorithms:
            figure.series[algorithm] = []
        for beta in betas:
            scenario_cfg = ScenarioConfig(
                scenario_name,
                alpha=scenario_by_name("massive").alpha,
                beta=beta,
            )
            config = ExperimentConfig(
                dataset=dataset, pattern=pattern, scenario=scenario_cfg,
                budget_fraction=budget_fraction, trials=trials, seed=seed,
            )
            stream = config.build_stream()
            truth = compute_ground_truth(stream, pattern, config.checkpoints)
            budget = config.effective_budget(stream)
            policy = store.get(
                training_dataset_for(dataset), pattern, scenario_cfg
            )
            for algorithm in algorithms:
                run = run_algorithm(
                    algorithm, stream, truth, pattern, budget,
                    trials=trials, seed=seed,
                    policy=policy if algorithm == "WSD-L" else None,
                )
                figure.series[algorithm].append((beta, run.mean_are))
        results[scenario_name] = figure
    return results
