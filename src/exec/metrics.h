#ifndef DYNOPT_EXEC_METRICS_H_
#define DYNOPT_EXEC_METRICS_H_

#include <cstdint>
#include <string>

namespace dynopt {

/// Work metered while executing jobs, plus the simulated wall-clock those
/// units translate to under the cluster's cost model. The three *_seconds
/// components decompose total simulated time the way Figure 6 of the paper
/// does: plain execution vs. re-optimization I/O (materializing and
/// re-reading intermediates) vs. online statistics collection.
struct ExecMetrics {
  uint64_t rows_out = 0;
  uint64_t tuples_processed = 0;
  uint64_t bytes_scanned = 0;
  uint64_t bytes_shuffled = 0;
  uint64_t bytes_broadcast = 0;
  uint64_t bytes_materialized = 0;
  uint64_t bytes_intermediate_read = 0;
  uint64_t index_lookups = 0;
  int num_jobs = 0;
  int num_reopt_points = 0;

  /// Total simulated execution time (includes the two components below).
  double simulated_seconds = 0;
  /// Portion attributable to re-optimization (sink/reader I/O + fixed
  /// per-reopt coordination cost).
  double reopt_seconds = 0;
  /// Portion attributable to online statistics collection.
  double stats_seconds = 0;

  // --- Fault injection / recovery (zero unless an injector is armed) -----

  /// Extra critical-path time paid to injected faults: task re-executions
  /// plus their backoff delays, straggler slowdown not hidden by
  /// speculation, and re-materialization of corrupted temp files. Included
  /// in simulated_seconds, like reopt_seconds.
  double recovery_seconds = 0;
  /// Partition-task re-executions after injected task failures.
  uint64_t num_retries = 0;
  /// Speculative backup executions launched against straggler tasks.
  uint64_t speculative_executions = 0;
  /// Materialized partition files whose checksum verification failed.
  uint64_t corrupted_blocks = 0;

  // --- Memory governance (zero unless budgets are configured) ------------

  /// High-water mark of the query's MemoryTracker (bytes). Max-merged in
  /// Add(): concurrent jobs of one query share the tracker, so summing
  /// per-job peaks would double-count.
  uint64_t peak_memory_bytes = 0;
  /// Bytes written to grace-join spill files (each byte is also read back,
  /// charged via the disk constants into simulated_seconds).
  uint64_t spilled_bytes = 0;
  /// Grace-join partitions that went through the spill path (recursive
  /// splits counted individually).
  uint64_t spill_partitions = 0;
  /// Wall-clock the query spent waiting in the admission queue.
  double queue_wait_seconds = 0;
  /// 1 when the admission controller degraded this query under overload
  /// (shrunken memory reservation and/or strategy downgrade — see the
  /// degrade_* stamps on QueryContext). Max-merged in Add() like the other
  /// query-level flags; 0 always at default (degradation-off) config.
  uint64_t admission_degraded = 0;

  // --- Host wall-clock per kernel class ---------------------------------
  //
  // Real elapsed time (std::chrono::steady_clock) spent inside the
  // executor's data-movement and join kernels, independent of the
  // simulated cost model above. These exist so perf work on the kernels
  // has a machine-readable trajectory (bench_kernels / BENCH_kernels.json)
  // while the simulated seconds stay byte-for-byte stable.

  /// Shuffle exchange (RepartitionColumnar): routing + gather, both phases.
  double wall_shuffle_seconds = 0;
  /// Hash-join build phase (hash-table construction over the build side).
  double wall_build_seconds = 0;
  /// Hash-join probe phase (lookups + output emission).
  double wall_probe_seconds = 0;
  /// Sink materialization (schema inference, stats, write-back).
  double wall_materialize_seconds = 0;

  // --- Optimizer decision telemetry -------------------------------------

  /// Worst per-decision q-error, max(est/actual, actual/est) with one-row
  /// floors, over the optimizer's decision log entries that were
  /// back-patched with actual materialized cardinalities. 0 when no
  /// decision has an actual yet; >= 1 otherwise. Max-merged in Add().
  double max_q_error = 0;
  /// Join-order/algorithm decisions the optimizer recorded for this query
  /// (see opt/decision_log.h for the full per-decision QueryProfile).
  uint64_t num_decisions = 0;
  /// Extra re-optimization checkpoints the error feedback loop inserted
  /// because the observed q-error crossed DynamicOptimizer::kErrorReoptQError
  /// (dynamic/ingres-like only; 0 always at default config).
  uint64_t error_reopt_triggers = 0;

  // --- Predicate transfer (zero unless sketch.enable_predicate_transfer) --

  /// Bloom-filter bytes shipped from build to probe side of shuffle joins
  /// (charged as network cost, like a broadcast: every node receives the
  /// filter).
  uint64_t pt_filter_bytes = 0;
  /// Probe-side rows dropped by the transferred filter before entering the
  /// shuffle (null join keys count — an inner join can never emit them).
  uint64_t pt_pruned_rows = 0;
  /// Bytes those pruned rows would have moved through the shuffle — the
  /// network cost predicate transfer saved.
  uint64_t pt_pruned_bytes = 0;

  void Add(const ExecMetrics& other);
  std::string ToString() const;
};

}  // namespace dynopt

#endif  // DYNOPT_EXEC_METRICS_H_
