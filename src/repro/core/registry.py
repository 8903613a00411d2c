"""Synopsis registry: construct any sketch in the library by name.

The registry is what lets configuration-driven systems (the pipeline DSL,
the Lambda speed layer, benchmark sweeps) instantiate synopses without
importing every module: ``create("hyperloglog", precision=14)``.

The builtin table is filled on the first call to :func:`register`,
:func:`create` or :func:`available`, not at import: importing ``repro``
loads none of the synopsis modules until a name is first looked up.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.common.exceptions import ParameterError

_REGISTRY: dict[str, Callable[..., Any]] = {}
_LOCK = threading.Lock()


def _loaded() -> dict[str, Callable[..., Any]]:
    """The name table, with the builtins added once on first use.

    Every path into the table comes through here, so it is empty exactly
    until the builtins are in (a failed import leaves it empty to retry).
    """
    with _LOCK:
        if not _REGISTRY:
            _register_builtins()
    return _REGISTRY


def register(name: str, factory: Callable[..., Any]) -> None:
    """Register *factory* under *name* (lowercase, unique)."""
    key = name.lower()
    registry = _loaded()
    with _LOCK:
        if key in registry:
            raise ParameterError(f"synopsis name {name!r} already registered")
        registry[key] = factory


def create(name: str, **params: Any) -> Any:
    """Instantiate the synopsis registered under *name* with *params*."""
    key = name.lower()
    registry = _loaded()
    if key not in registry:
        raise ParameterError(
            f"unknown synopsis {name!r}; known: {', '.join(sorted(registry))}"
        )
    return registry[key](**params)


def available() -> list[str]:
    """Sorted names of every registered synopsis."""
    return sorted(_loaded())


def _register_builtins() -> None:
    from repro.anomaly import (
        EWMAControlChart,
        HalfSpaceTrees,
        PageHinkley,
        RollingZScore,
        SlidingMAD,
        SubspaceTracker,
        WindowKLDetector,
    )
    from repro.clustering import CluStream, OnlineKMeans, StreamingKMedian
    from repro.core.summary import StreamSummary
    from repro.correlation import (
        CorrelationSketch,
        LagCorrelator,
        StreamingCorrelation,
    )
    from repro.filtering import RetouchedBloomFilter
    from repro.frequency import HierarchicalHeavyHitters
    from repro.graphs import (
        ApproxPathOracle,
        DynamicGraph,
        EdgeSamplingSparsifier,
        GreedyMatching,
        StreamingConnectivity,
        StreamingRandomWalker,
        StreamingSpanner,
        TriangleCounter,
        WeightedGreedyMatching,
    )
    from repro.histograms import (
        EndBiasedHistogram,
        EquiWidthHistogram,
        StreamingVOptimal,
        WaveletHistogram,
    )
    from repro.inversions import InversionEstimator
    from repro.ml import (
        HoeffdingTree,
        OnlineLogisticRegression,
        PassiveAggressiveRegressor,
        StreamingNaiveBayes,
    )
    from repro.moments import FkEstimator
    from repro.prediction import (
        HoltWinters,
        KalmanFilter,
        LocalTrendFilter,
        OnlineAR,
        UnscentedKalmanFilter,
    )
    from repro.quantiles import Frugal2U, SlidingWindowQuantiles
    from repro.sampling import (
        AlgorithmLSampler,
        ChainSampler,
        ExpJSampler,
        PrioritySampler,
    )
    from repro.subsequences import ApproxLISTracker, LISTracker, WindowedLCS
    from repro.temporal import MotifDetector, SequenceMiner, SpringMatcher
    from repro.windowing import DecayedCounter, SignificantOneCounter
    from repro.cardinality import (
        FlajoletMartin,
        HyperLogLog,
        KMinValues,
        LinearCounter,
        LogLog,
        SlidingHyperLogLog,
    )
    from repro.filtering import (
        BloomFilter,
        CountingBloomFilter,
        CuckooFilter,
        ScalableBloomFilter,
        StableBloomFilter,
    )
    from repro.frequency import (
        CountMinSketch,
        CountSketch,
        LossyCounting,
        MisraGries,
        SpaceSaving,
        StickySampling,
        WindowedTopK,
    )
    from repro.moments import AMSSketch
    from repro.quantiles import (
        ExactQuantiles,
        Frugal1U,
        GKQuantiles,
        KLLSketch,
        P2Quantile,
        QDigest,
        TDigest,
    )
    from repro.filtering import PartitionedBloomFilter
    from repro.sampling import (
        BiasedReservoirSampler,
        DistinctSampler,
        ReservoirSampler,
        WeightedReservoirSampler,
    )
    from repro.windowing import DGIM, DecayedFrequencies, EHSum, EHVariance, SlidingExtrema

    builtins = {
        "ams": AMSSketch,
        "biased_reservoir": BiasedReservoirSampler,
        "bloom": BloomFilter.for_capacity,
        "count_min": CountMinSketch.from_error,
        "count_sketch": CountSketch.from_error,
        "counting_bloom": CountingBloomFilter.for_capacity,
        "cuckoo": CuckooFilter.for_capacity,
        "decayed_frequencies": DecayedFrequencies,
        "dgim": DGIM,
        "distinct_sampler": DistinctSampler,
        "extrema": SlidingExtrema,
        "page_hinkley": PageHinkley,
        "partitioned_bloom": PartitionedBloomFilter.for_capacity,
        "window_kl": WindowKLDetector,
        "eh_sum": EHSum,
        "eh_variance": EHVariance,
        "ewma": EWMAControlChart,
        "flajolet_martin": FlajoletMartin,
        "frugal": Frugal1U,
        "gk": GKQuantiles,
        "hstrees": HalfSpaceTrees,
        "hyperloglog": HyperLogLog,
        "kll": KLLSketch,
        "kmv": KMinValues,
        "linear_counter": LinearCounter,
        "loglog": LogLog,
        "lossy_counting": LossyCounting,
        "mad": SlidingMAD,
        "misra_gries": MisraGries,
        "p2": P2Quantile,
        "reservoir": ReservoirSampler,
        "scalable_bloom": ScalableBloomFilter,
        "sliding_hyperloglog": SlidingHyperLogLog,
        "space_saving": SpaceSaving,
        "stable_bloom": StableBloomFilter,
        "sticky_sampling": StickySampling,
        "tdigest": TDigest,
        "weighted_reservoir": WeightedReservoirSampler,
        "windowed_topk": WindowedTopK,
        "zscore": RollingZScore,
        # -- every concrete synopsis below is registered so config-driven
        # systems (pipeline DSL, Lambda speed layer, sweeps) can build it
        # by name; the SL006 streamlint rule keeps this table exhaustive.
        "algorithm_l": AlgorithmLSampler,
        "approx_lis": ApproxLISTracker,
        "ar": OnlineAR,
        "chain_sampler": ChainSampler,
        "clustream": CluStream,
        "connectivity": StreamingConnectivity,
        "correlation": StreamingCorrelation,
        "correlation_sketch": CorrelationSketch,
        "decayed_counter": DecayedCounter,
        "dynamic_graph": DynamicGraph,
        "endbiased_histogram": EndBiasedHistogram,
        "equiwidth_histogram": EquiWidthHistogram,
        "exact_quantiles": ExactQuantiles,
        "expj": ExpJSampler,
        "fk": FkEstimator,
        "frugal2u": Frugal2U,
        "hhh": HierarchicalHeavyHitters,
        "hoeffding_tree": HoeffdingTree,
        "holt_winters": HoltWinters,
        "inversions": InversionEstimator,
        "kalman": KalmanFilter,
        "kmedian": StreamingKMedian,
        "lag_correlator": LagCorrelator,
        "lis": LISTracker,
        "local_trend": LocalTrendFilter,
        "matching": GreedyMatching,
        "motif": MotifDetector,
        "naive_bayes": StreamingNaiveBayes,
        "online_kmeans": OnlineKMeans,
        "online_logreg": OnlineLogisticRegression,
        "passive_aggressive": PassiveAggressiveRegressor,
        "path_oracle": ApproxPathOracle,
        "priority_sampler": PrioritySampler,
        "qdigest": QDigest,
        "random_walk": StreamingRandomWalker,
        "retouched_bloom": RetouchedBloomFilter.for_capacity,
        "sequences": SequenceMiner,
        "significant_one": SignificantOneCounter,
        "spanner": StreamingSpanner,
        "sparsifier": EdgeSamplingSparsifier,
        "spring": SpringMatcher,
        "subspace": SubspaceTracker,
        "summary": StreamSummary,
        "triangles": TriangleCounter,
        "ukf": UnscentedKalmanFilter,
        "voptimal_histogram": StreamingVOptimal,
        "wavelet_histogram": WaveletHistogram,
        "weighted_matching": WeightedGreedyMatching,
        "window_quantiles": SlidingWindowQuantiles,
        "windowed_lcs": WindowedLCS,
    }
    _REGISTRY.update(builtins)
