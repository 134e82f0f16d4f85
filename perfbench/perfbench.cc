// The repository benchmark program. It loads an engine and runs one named
// workload over the paper's queries through the engine's public API:
// SQL text -> ParseSelect -> BindSelect -> the strategy's Run. Every result
// is checked (see Gate), and the last line of stdout is one JSON object
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured over untimed
// set-up and timed, untraced passes. With --trace 1 a separate run
// alternates untraced and traced passes and reports per-layer numbers: the
// self time of the spans the engine already emits, plus the benchmark's own
// timers around its calls into the sql, stats, admission and sys layers.
// The engine itself is not modified or instrumented further.
//
//   perfbench --workload paper-static --seed 0 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads and the metric map.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "common/tracer.h"
#include "exec/engine.h"
#include "opt/dynamic_optimizer.h"
#include "opt/ingres_optimizer.h"
#include "opt/order_baselines.h"
#include "opt/pilot_run_optimizer.h"
#include "opt/profile_archive.h"
#include "opt/sketch_optimizer.h"
#include "opt/static_optimizer.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "stats/table_stats.h"
#include "sys/system_tables.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace dynopt {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (0 for an empty sample).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  int paper_sf = 1000;
  std::vector<std::string> queries;
  std::vector<std::string> strategies;
  uint64_t join_memory_budget_bytes = 0;
  int clients = 1;
  /// Shell-style serving: introspection on, every query admitted through
  /// Engine::admission() and followed by a sys.queries read.
  bool shell = false;
};

const std::vector<Workload>& Workloads() {
  static const auto* workloads = new std::vector<Workload>{
      {"paper-static", 1000, {"q17", "q50", "q8", "q9"},
       {"best-order", "cost-based", "worst-order"}, 0, 1, false},
      {"paper-dynamic", 1000, {"q17", "q50", "q8", "q9"},
       {"dynamic", "ingres-like", "pilot-run", "sketch-dynamic"}, 0, 1, false},
      {"spill-grace", 1000, {"q17", "q9"},
       {"dynamic", "best-order", "cost-based"}, 131072, 1, false},
      {"sql-shell", 100, {"q17", "q50", "q8", "q9"},
       {"dynamic", "cost-based"}, 0, 2, true},
  };
  return *workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

struct Item {
  std::string query;
  std::string strategy;
  std::string Key() const { return query + "/" + strategy; }
};

/// One pass: every (query, strategy) of the workload once. Serial workloads
/// go query by query; the shell alternates the strategies from one query to
/// the next, and each further client starts its pass at another offset.
std::vector<Item> PassItems(const Workload& w, int client) {
  std::vector<Item> items;
  const size_t nq = w.queries.size();
  const size_t ns = w.strategies.size();
  for (size_t i = 0; i < nq * ns; ++i) {
    if (w.shell) {
      items.push_back({w.queries[i % nq], w.strategies[(i + i / nq) % ns]});
    } else {
      items.push_back({w.queries[i / ns], w.strategies[i % ns]});
    }
  }
  std::rotate(items.begin(),
              items.begin() + (static_cast<size_t>(client) * items.size() /
                               static_cast<size_t>(w.clients)) %
                                  items.size(),
              items.end());
  return items;
}

struct QueryText {
  std::string sql;
  std::map<std::string, Value> params;
};

/// Seed 0 reproduces the harness defaults: TPC-H seed 42, TPC-DS seed 7 and
/// Q50 at $moy 9 / $year 1999. Other seeds shift the generator seeds and
/// walk Q50's parameters through the paper's ranges (8-10, 1998-2000).
int64_t Q50Moy(uint64_t seed) {
  return 8 + static_cast<int64_t>((seed + 1) % 3);
}
int64_t Q50Year(uint64_t seed) {
  return 1998 + static_cast<int64_t>((seed / 3 + 1) % 3);
}

QueryText TextFor(const std::string& query, uint64_t seed) {
  if (query == "q17") return {TpcdsQ17Sql(), {}};
  if (query == "q50") {
    return {TpcdsQ50Sql(),
            {{"moy", Value(Q50Moy(seed))}, {"year", Value(Q50Year(seed))}}};
  }
  if (query == "q8") return {TpchQ8Sql(), {}};
  return {TpchQ9Sql(), {}};
}

constexpr const char* kSysSql =
    "SELECT query_id, strategy, wall_seconds FROM sys.queries";

// ---------------------------------------------------------------------------
// Options

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  int paper_sf = 0;  // 0 = the workload's own
  std::string spill_dir = ".";
  std::string tamper_query;  // self-test: corrupt this query's expected hash
};

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME [--seed N] [--seconds S]\n"
               "                 [--trace 0|1] [--paper-sf SF]\n"
               "                 [--spill-dir DIR] [--tamper-hash QUERY]\n"
               "workloads:");
  for (const Workload& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = FindWorkload(value);
      if (options->workload == nullptr) return false;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options->trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (flag == "--paper-sf") {
      options->paper_sf =
          static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (options->paper_sf <= 0) return false;
    } else if (flag == "--spill-dir") {
      options->spill_dir = value;
    } else if (flag == "--tamper-hash") {
      options->tamper_query = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) return false;
  }
  return options->workload != nullptr;
}

// ---------------------------------------------------------------------------
// Correctness gate

/// Row count plus an order-insensitive-by-construction hash: rows are sorted
/// first, so every strategy must produce the same multiset of rows.
uint64_t HashResult(std::vector<Row>* rows) {
  SortRows(rows);
  uint64_t h = 1469598103934665603ull ^ rows->size();
  for (const Row& row : *rows) {
    for (const Value& v : row) h = (h ^ v.Hash()) * 1099511628211ull;
    h = (h ^ 0x9e3779b97f4a7c15ull) * 1099511628211ull;
  }
  return h;
}

/// Expected results, shared by every engine a run sets up. The first
/// result of a query fixes its hash for every strategy, pass and set-up;
/// the first timed run of a (query, strategy) fixes its simulated seconds
/// for every later timed or traced pass.
class Gate {
 public:
  /// Returns an empty string when the outcome matches, else why not.
  std::string Check(const Item& item, uint64_t hash, double sim_seconds,
                    bool check_sim) {
    std::lock_guard<std::mutex> lock(mu_);
    auto h = hashes_.emplace(item.query, hash).first;
    if (h->second != hash) return item.Key() + ": result hash differs";
    if (!check_sim) return "";
    auto s = sims_.emplace(item.Key(), sim_seconds).first;
    if (s->second != sim_seconds) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), ": simulated seconds %.17g != %.17g",
                    sim_seconds, s->second);
      return item.Key() + buf;
    }
    return "";
  }

  void Tamper(const std::string& query) {
    std::lock_guard<std::mutex> lock(mu_);
    hashes_[query] ^= 1;
  }

  /// Simulated seconds of one pass (every item's fixed value summed); each
  /// item's value is printed on its own line.
  double PassSimSeconds(const std::vector<Item>& items) {
    std::lock_guard<std::mutex> lock(mu_);
    double total = 0;
    for (const Item& item : items) {
      auto it = sims_.find(item.Key());
      if (it == sims_.end()) continue;
      std::printf("sim %-24s %12.6f s\n", item.Key().c_str(), it->second);
      total += it->second;
    }
    return total;
  }

 private:
  std::mutex mu_;
  std::map<std::string, uint64_t> hashes_;
  std::map<std::string, double> sims_;
};

// ---------------------------------------------------------------------------
// Per-phase accounting

/// Everything measured over a set of passes. Clients fill their own Tally
/// and the phase merges them.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<double> latency_s;  // per query: SQL text in -> rows out
  // Per (query, strategy): the least latency of a correct run.
  std::map<std::string, double> fastest_s;
  // Per client pass: wall time, and the p50 / p90 of its query latencies.
  std::vector<double> pass_s, pass_p50_s, pass_p90_s;
  double parse_s = 0;
  double bind_s = 0;
  double admit_s = 0;
  double sys_s = 0;
  uint64_t sys_reads = 0;
  double run_wall_s = 0;  // inside the optimizers' Run, sys reads included
  ExecMetrics metrics;    // summed over queries (peaks are maxima)
  std::vector<TraceEvent> events;

  void Merge(Tally&& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (auto& e : other.errors) errors.push_back(std::move(e));
    for (auto [to, from] : {std::pair{&latency_s, &other.latency_s},
                            std::pair{&pass_s, &other.pass_s},
                            std::pair{&pass_p50_s, &other.pass_p50_s},
                            std::pair{&pass_p90_s, &other.pass_p90_s}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    for (const auto& [key, s] : other.fastest_s) Fastest(key, s);
    parse_s += other.parse_s;
    bind_s += other.bind_s;
    admit_s += other.admit_s;
    sys_s += other.sys_s;
    sys_reads += other.sys_reads;
    run_wall_s += other.run_wall_s;
    metrics.Add(other.metrics);
    for (auto& e : other.events) events.push_back(std::move(e));
  }

  void Fastest(const std::string& key, double seconds) {
    auto [it, added] = fastest_s.emplace(key, seconds);
    if (!added) it->second = std::min(it->second, seconds);
  }

  void Fail(std::string why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
  void Fail(const Item& item, const Status& status) {
    Fail(item.Key() + ": " + status.ToString());
  }
};

std::unique_ptr<Optimizer> MakeOptimizer(Engine* engine,
                                         const std::string& strategy,
                                         std::shared_ptr<const JoinTree> hint) {
  if (strategy == "dynamic") return std::make_unique<DynamicOptimizer>(engine);
  if (strategy == "cost-based") {
    return std::make_unique<StaticCostBasedOptimizer>(engine);
  }
  if (strategy == "worst-order") {
    return std::make_unique<WorstOrderOptimizer>(engine);
  }
  if (strategy == "best-order") {
    return std::make_unique<BestOrderOptimizer>(engine, std::move(hint));
  }
  if (strategy == "pilot-run") {
    return std::make_unique<PilotRunOptimizer>(engine);
  }
  if (strategy == "ingres-like") {
    return std::make_unique<IngresLikeOptimizer>(engine);
  }
  if (strategy == "sketch-dynamic") {
    return std::make_unique<SketchDynamicOptimizer>(engine);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// One engine with its workload

struct LoadTimes {
  double tpch_s = 0;
  double tpcds_s = 0;
};

class Bench {
 public:
  Bench(const Options& options, Gate* gate)
      : options_(options), workload_(*options.workload), gate_(gate) {
    for (const std::string& q : workload_.queries) {
      texts_[q] = TextFor(q, options.seed);
    }
  }

  Status Load(LoadTimes* times) {
    ClusterConfig cluster;
    cluster.spill_directory = options_.spill_dir;
    cluster.memory.join_memory_budget_bytes =
        workload_.join_memory_budget_bytes;
    engine_ = std::make_unique<Engine>(cluster);
    const double sf = bench::GeneratorSfForPaperSf(
        options_.paper_sf > 0 ? options_.paper_sf : workload_.paper_sf);
    TpchOptions tpch;
    tpch.sf = sf;
    tpch.seed = 42 + options_.seed;
    TpcdsOptions tpcds;
    tpcds.sf = sf;
    tpcds.seed = 7 + options_.seed;
    auto start = Clock::now();
    DYNOPT_RETURN_IF_ERROR(LoadTpch(engine_.get(), tpch));
    times->tpch_s = SecondsSince(start);
    start = Clock::now();
    DYNOPT_RETURN_IF_ERROR(LoadTpcds(engine_.get(), tpcds));
    times->tpcds_s = SecondsSince(start);
    if (workload_.shell) EnableIntrospection(engine_.get());
    return Status::OK();
  }

  /// Runs `clients` concurrent clients, each doing whole passes until
  /// `deadline` (at least one pass each).
  Tally RunPasses(int clients, Clock::time_point deadline, bool check_sim) {
    std::vector<Tally> tallies(static_cast<size_t>(clients));
    auto client = [&](int c) {
      const std::vector<Item> items = PassItems(workload_, c);
      Tally& tally = tallies[static_cast<size_t>(c)];
      do {
        const auto start = Clock::now();
        const size_t first = tally.latency_s.size();
        for (const Item& item : items) RunItem(item, check_sim, &tally);
        tally.pass_s.push_back(SecondsSince(start));
        const std::vector<double> pass(tally.latency_s.begin() + first,
                                       tally.latency_s.end());
        tally.pass_p50_s.push_back(Quantile(pass, 0.5));
        tally.pass_p90_s.push_back(Quantile(pass, 0.9));
      } while (Clock::now() < deadline);
    };
    if (clients == 1) {
      client(0);
    } else {
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
      for (auto& t : threads) t.join();
    }
    Tally total;
    for (Tally& t : tallies) total.Merge(std::move(t));
    return total;
  }

  Engine* engine() { return engine_.get(); }

 private:
  /// Submits one query as SQL text and checks its result.
  void RunItem(const Item& item, bool check_sim, Tally* tally) {
    ++tally->attempted;
    const QueryText& text = texts_.at(item.query);
    const auto start = Clock::now();
    auto stmt = ParseSelect(text.sql);
    const double parse_s = SecondsSince(start);
    if (!stmt.ok()) return tally->Fail(item, stmt.status());
    const auto bind_start = Clock::now();
    auto spec = BindSelect(stmt.value(), engine_->catalog(), text.params);
    const double bind_s = SecondsSince(bind_start);
    if (!spec.ok()) return tally->Fail(item, spec.status());

    std::shared_ptr<const JoinTree> hint;
    if (item.strategy == "best-order") {
      auto found = Hint(item.query, spec.value());
      if (!found.ok()) return tally->Fail(item, found.status());
      hint = std::move(found).value();
    }
    QueryContext ctx(item.Key());
    AdmissionController::Ticket ticket;
    double admit_s = 0;
    if (workload_.shell) {
      const auto admit_start = Clock::now();
      auto admitted = engine_->admission().Admit(&ctx);
      admit_s = SecondsSince(admit_start);
      if (!admitted.ok()) return tally->Fail(item, admitted.status());
      ticket = std::move(admitted).value();
    }
    auto optimizer = MakeOptimizer(engine_.get(), item.strategy, hint);
    optimizer->set_context(&ctx);
    const auto run_start = Clock::now();
    auto result = optimizer->Run(spec.value());
    const double run_s = SecondsSince(run_start);
    ticket.Release();
    const double latency_s = SecondsSince(start);
    if (!result.ok()) return tally->Fail(item, result.status());

    tally->latency_s.push_back(latency_s);
    tally->parse_s += parse_s;
    tally->bind_s += bind_s;
    tally->admit_s += admit_s;
    tally->run_wall_s += run_s;
    tally->metrics.Add(result->metrics);
    TakeTrace(result.value(), tally);
    const std::string mismatch =
        gate_->Check(item, HashResult(&result->rows),
                     result->metrics.simulated_seconds, check_sim);
    if (!mismatch.empty()) return tally->Fail(mismatch);
    tally->Fastest(item.Key(), latency_s);
    if (workload_.shell) ReadSysQueries(item, tally);
  }

  /// The shell's follow-up read of the introspection plane.
  void ReadSysQueries(const Item& item, Tally* tally) {
    const auto start = Clock::now();
    auto spec = ParseAndBind(kSysSql, engine_->catalog());
    if (!spec.ok()) return tally->Fail(item, spec.status());
    QueryContext ctx("sys.queries");
    DynamicOptimizer optimizer(engine_.get());
    optimizer.set_context(&ctx);
    const auto run_start = Clock::now();
    auto result = optimizer.Run(spec.value());
    tally->run_wall_s += SecondsSince(run_start);
    tally->sys_s += SecondsSince(start);
    ++tally->sys_reads;
    if (!result.ok()) {
      return tally->Fail(item.Key() + " then sys.queries: " +
                         result.status().ToString());
    }
    if (result->rows.empty()) {
      return tally->Fail(item.Key() + " then sys.queries: no archived query");
    }
    TakeTrace(result.value(), tally);
  }

  /// The optimizers drain the process-wide tracer into their own profile,
  /// so with concurrent clients one query's profile may hold another's
  /// spans; the traced phase pools all of them.
  static void TakeTrace(const OptimizerRunResult& result, Tally* tally) {
    if (result.profile == nullptr) return;
    tally->events.insert(tally->events.end(), result.profile->trace.begin(),
                         result.profile->trace.end());
  }

  /// best-order's hint: the join order a dynamic run discovers (the paper's
  /// "user knows the optimal order" setting), learned once per engine.
  Result<std::shared_ptr<const JoinTree>> Hint(const std::string& query,
                                                const QuerySpec& spec) {
    std::lock_guard<std::mutex> lock(hint_mu_);
    auto it = hints_.find(query);
    if (it != hints_.end()) return it->second;
    QueryContext ctx(query + "/hint");
    DynamicOptimizer dynamic(engine_.get());
    dynamic.set_context(&ctx);
    DYNOPT_ASSIGN_OR_RETURN(OptimizerRunResult run, dynamic.Run(spec));
    hints_[query] = run.join_tree;
    return run.join_tree;
  }

  const Options& options_;
  const Workload& workload_;
  Gate* gate_;
  std::map<std::string, QueryText> texts_;
  std::unique_ptr<Engine> engine_;
  std::mutex hint_mu_;
  std::map<std::string, std::shared_ptr<const JoinTree>> hints_;
};

// ---------------------------------------------------------------------------
// Trace analysis

/// Self time per span name: duration minus the time covered by same-thread
/// children one level deeper.
std::map<std::string, double> SelfSeconds(std::vector<TraceEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.depth < b.depth;
            });
  std::vector<uint64_t> covered(events.size(), 0);
  std::vector<size_t> open;  // enclosing spans of the current thread
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    while (!open.empty()) {
      const TraceEvent& top = events[open.back()];
      const bool encloses = top.tid == e.tid && e.start_ns + e.dur_ns <=
                                                    top.start_ns + top.dur_ns;
      if (encloses) break;
      open.pop_back();
    }
    if (!open.empty() && events[open.back()].depth + 1 == e.depth) {
      covered[open.back()] += e.dur_ns;
    }
    open.push_back(i);
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < events.size(); ++i) {
    const uint64_t own = events[i].dur_ns > covered[i]
                             ? events[i].dur_ns - covered[i]
                             : 0;
    self[events[i].name] += static_cast<double>(own) * 1e-9;
  }
  return self;
}

struct LayerTimes {
  double scan = 0, shuffle = 0, build = 0, probe = 0, materialize = 0;
  double job_self = 0, query_self = 0, plan = 0;
  double attributed = 0;  // every kernel and opt span
};

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

LayerTimes Layers(const std::vector<TraceEvent>& events) {
  std::map<std::string, std::string> category;
  for (const TraceEvent& e : events) category[e.name] = e.category;
  LayerTimes t;
  for (const auto& [name, seconds] : SelfSeconds(events)) {
    if (StartsWith(name, "scan:")) t.scan += seconds;
    if (name == "shuffle") t.shuffle += seconds;
    if (name == "join-build") t.build += seconds;
    if (name == "join-probe") t.probe += seconds;
    if (name == "materialize") t.materialize += seconds;
    if (name == "job") t.job_self += seconds;
    if (StartsWith(name, "query:")) t.query_self += seconds;
    if (name == "plan-dp" || name == "replan-dp" ||
        StartsWith(name, "reopt-")) {
      t.plan += seconds;
    }
    const std::string& cat = category[name];
    if (cat == "kernel" || cat == "opt") t.attributed += seconds;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Reporting


double CpuSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

struct CpuTimes {
  double user = 0;
  double sys = 0;
};

CpuTimes ProcessCpu() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {CpuSeconds(usage.ru_utime), CpuSeconds(usage.ru_stime)};
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Human-readable lines first, then the one-line JSON result last.
/// `tally` supplies the attempted/failed counts and the failure reasons.
void Report(const std::vector<Metric>& metrics, const Tally& tally) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : tally.errors) {
    std::printf("FAILED %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// The two kinds of run

/// Wall time of a pass if every (query, strategy) ran as fast as its fastest
/// correct run in `tally`.
double FastestPassSeconds(const Workload& w, const Tally& tally) {
  double total = 0;
  for (const Item& item : PassItems(w, 0)) {
    auto it = tally.fastest_s.find(item.Key());
    if (it != tally.fastest_s.end()) total += it->second;
  }
  return total;
}

/// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 3;

/// End-to-end: set up kSetups times (the last engine is kept), then time
/// untraced passes for `seconds`.
///
/// The bounded metrics are user CPU time of all threads, not wall time: on
/// a shared VM, CPU steal by other tenants moved whole runs' wall times by
/// up to 2x, and the system time of spilling (file create and unlink) by 3x,
/// while user CPU moved by a few percent. So no bound sees a change that
/// only adds waiting: a kernel that stops running in parallel, lock
/// contention, admission waits or slower spill I/O. Wall-clock throughput
/// and latency are printed above the JSON; the traced run reports them, and
/// system CPU, as process.* metrics.
int RunEndToEnd(const Options& options) {
  const Workload& w = *options.workload;
  Gate gate;
  Tally warmup;
  std::vector<double> setup_cpu_s, setup_wall_s;
  std::unique_ptr<Bench> bench;
  for (int k = 0; k < kSetups; ++k) {
    bench.reset();  // one engine in memory at a time
    bench = std::make_unique<Bench>(options, &gate);
    const auto start = Clock::now();
    const double cpu0 = ProcessCpu().user;
    LoadTimes load;
    Status st = bench->Load(&load);
    if (!st.ok()) {
      std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
      return 1;
    }
    warmup.Merge(bench->RunPasses(1, start, /*check_sim=*/false));
    setup_cpu_s.push_back(ProcessCpu().user - cpu0);
    setup_wall_s.push_back(SecondsSince(start));
  }
  if (!options.tamper_query.empty()) gate.Tamper(options.tamper_query);

  const auto start = Clock::now();
  const CpuTimes cpu0 = ProcessCpu();
  Tally timed = bench->RunPasses(
      w.clients,
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds)),
      /*check_sim=*/true);
  const CpuTimes cpu1 = ProcessCpu();
  const double wall_s = SecondsSince(start);
  const double ok_queries = static_cast<double>(timed.attempted - timed.failed);
  const std::vector<Metric> metrics = {
      {"setup_s", Quantile(setup_cpu_s, 0.5), "s"},
      {"user_cpu_ms_per_query",
       (cpu1.user - cpu0.user) / std::max(ok_queries, 1.0) * 1e3, "ms"},
      {"sim_s", gate.PassSimSeconds(PassItems(w, 0)), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };

  // Wall clock, for information. A pass is one client's run through every
  // (query, strategy); throughput and latency quantiles are taken per pass
  // and the median over passes is printed.
  std::printf("workload %s seed %llu: %zu set-ups; %zu passes (%d clients), "
              "%llu queries in %.3f s\n",
              w.name.c_str(), static_cast<unsigned long long>(options.seed),
              setup_cpu_s.size(), timed.pass_s.size(), w.clients,
              static_cast<unsigned long long>(timed.attempted), wall_s);
  std::printf("pass walls (s):");
  for (double p : timed.pass_s) std::printf(" %.3f", p);
  std::printf("\n");
  std::printf("system CPU per query %.3f ms\n",
              (cpu1.sys - cpu0.sys) / std::max(ok_queries, 1.0) * 1e3);
  std::printf("wall: setup %.3f s, %.3f queries/s, query p50 %.3f ms, "
              "p90 %.3f ms; failed_frac %.6f\n",
              Quantile(setup_wall_s, 0.5),
              ok_queries / static_cast<double>(timed.attempted) *
                  static_cast<double>(PassItems(w, 0).size() * w.clients) /
                  Quantile(timed.pass_s, 0.5),
              Quantile(timed.pass_p50_s, 0.5) * 1e3,
              Quantile(timed.pass_p90_s, 0.5) * 1e3,
              1.0 - ok_queries / static_cast<double>(timed.attempted));
  warmup.Merge(std::move(timed));
  Report(metrics, warmup);
  return warmup.failed == 0 ? 0 : 1;
}

/// Statistics probe: TableStatsBuilder over every column of every loaded
/// table, outside the engine (its catalog statistics stay as loaded).
double StatsNsPerValue(Engine* engine) {
  double seconds = 0;
  double values = 0;
  for (const std::string& name : engine->catalog().TableNames()) {
    if (StartsWith(name, "sys.")) continue;
    auto table = engine->catalog().GetTable(name);
    if (!table.ok()) continue;
    const Table& t = *table.value();
    std::vector<std::string> columns;
    std::vector<int> indices;
    for (const Field& f : t.schema().fields()) {
      indices.push_back(static_cast<int>(columns.size()));
      columns.push_back(f.name);
    }
    const auto start = Clock::now();
    TableStatsBuilder builder(columns, indices);
    for (size_t p = 0; p < t.num_partitions(); ++p) {
      for (const Row& row : t.partition(p)) builder.AddRow(row);
    }
    TableStats stats = builder.Finalize();
    seconds += SecondsSince(start);
    values += static_cast<double>(stats.row_count) *
              static_cast<double>(columns.size());
  }
  return values > 0 ? seconds * 1e9 / values : 0;
}

/// Traced: one set-up, then untraced/traced pass pairs for `seconds`
/// (at least one pair); per-layer numbers are per pass.
int RunTraced(const Options& options) {
  const Workload& w = *options.workload;
  Gate gate;
  Bench bench(options, &gate);
  LoadTimes load;
  Status st = bench.Load(&load);
  if (!st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return 1;
  }
  Tally total = bench.RunPasses(1, Clock::now(), /*check_sim=*/false);
  if (!options.tamper_query.empty()) gate.Tamper(options.tamper_query);

  std::vector<double> plain_wall, traced_wall;
  Tally plain, traced;
  CpuTimes cpu;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  do {
    const CpuTimes cpu0 = ProcessCpu();
    auto start = Clock::now();
    Tally p = bench.RunPasses(w.clients, start, /*check_sim=*/true);
    plain_wall.push_back(SecondsSince(start));
    const CpuTimes cpu1 = ProcessCpu();
    cpu.user += cpu1.user - cpu0.user;
    cpu.sys += cpu1.sys - cpu0.sys;
    plain.Merge(std::move(p));

    Tracer::Global().Enable();
    start = Clock::now();
    Tally t = bench.RunPasses(w.clients, start, /*check_sim=*/true);
    traced_wall.push_back(SecondsSince(start));
    Tracer::Global().Disable();
    std::vector<TraceEvent> rest = Tracer::Global().Drain();
    t.events.insert(t.events.end(), rest.begin(), rest.end());
    traced.Merge(std::move(t));
  } while (Clock::now() < deadline);

  const double stats_ns = StatsNsPerValue(bench.engine());
  ProfileArchive* archive = EngineProfileArchive(bench.engine());
  const double archive_bytes =
      archive != nullptr ? static_cast<double>(archive->ApproxBytes()) : 0;

  const double np = static_cast<double>(plain_wall.size());
  const double nt = static_cast<double>(traced_wall.size());
  const double queries =
      std::max(1.0, static_cast<double>(plain.latency_s.size()));
  const LayerTimes layers = Layers(traced.events);
  const ExecMetrics& m = traced.metrics;
  const std::vector<Metric> metrics = {
      {"workloads.tpch_load_s", load.tpch_s, "s"},
      {"workloads.tpcds_load_s", load.tpcds_s, "s"},
      {"stats.collect_ns_per_value", stats_ns, "ns"},
      {"stats.online_sim_s", m.stats_seconds / nt, "s"},
      {"sql.parse_us", plain.parse_s / queries * 1e6, "us"},
      {"sql.bind_us", plain.bind_s / queries * 1e6, "us"},
      {"opt.plan_ms", layers.plan / nt * 1e3, "ms"},
      {"opt.reopt_rounds", m.num_reopt_points / nt, "count"},
      {"opt.decisions", static_cast<double>(m.num_decisions) / nt, "count"},
      {"opt.max_q_error", m.max_q_error, "ratio"},
      {"opt.archive_bytes", archive_bytes, "bytes"},
      {"exec.scan_ms", layers.scan / nt * 1e3, "ms"},
      {"exec.shuffle_ms", layers.shuffle / nt * 1e3, "ms"},
      {"exec.build_ms", layers.build / nt * 1e3, "ms"},
      {"exec.probe_ms", layers.probe / nt * 1e3, "ms"},
      {"exec.materialize_ms", layers.materialize / nt * 1e3, "ms"},
      {"exec.job_self_ms", layers.job_self / nt * 1e3, "ms"},
      {"exec.query_self_ms", layers.query_self / nt * 1e3, "ms"},
      {"exec.attributed_frac",
       traced.run_wall_s > 0 ? layers.attributed / traced.run_wall_s : 0,
       "ratio"},
      {"exec.bytes_shuffled", static_cast<double>(m.bytes_shuffled) / nt,
       "bytes"},
      {"exec.bytes_broadcast", static_cast<double>(m.bytes_broadcast) / nt,
       "bytes"},
      {"exec.peak_memory_bytes", static_cast<double>(m.peak_memory_bytes),
       "bytes"},
      {"exec.admit_wait_ms", plain.admit_s / queries * 1e3, "ms"},
      {"storage.spilled_mb", static_cast<double>(m.spilled_bytes) / nt / 1e6,
       "MB"},
      {"storage.spill_partitions", static_cast<double>(m.spill_partitions) / nt,
       "count"},
      {"sys.query_ms",
       plain.sys_reads > 0
           ? plain.sys_s / static_cast<double>(plain.sys_reads) * 1e3
           : 0,
       "ms"},
      {"process.cpu_user_s", cpu.user / np, "s"},
      {"process.cpu_sys_s", cpu.sys / np, "s"},
      {"process.pass_wall_s", Quantile(plain_wall, 0.5), "s"},
      {"process.fastest_pass_ms", FastestPassSeconds(w, plain) * 1e3, "ms"},
      {"process.query_wall_p50_ms", Quantile(plain.pass_p50_s, 0.5) * 1e3,
       "ms"},
      {"process.query_wall_p90_ms", Quantile(plain.pass_p90_s, 0.5) * 1e3,
       "ms"},
      {"trace.overhead_frac",
       Quantile(traced_wall, 0.5) / Quantile(plain_wall, 0.5) - 1, "ratio"},
  };
  std::printf("workload %s seed %llu: %zu untraced + %zu traced passes, "
              "%zu spans\n",
              w.name.c_str(), static_cast<unsigned long long>(options.seed),
              plain_wall.size(), traced_wall.size(), traced.events.size());
  total.Merge(std::move(plain));
  total.Merge(std::move(traced));
  Report(metrics, total);
  return total.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dynopt

int main(int argc, char** argv) {
  dynopt::Options options;
  if (!dynopt::ParseOptions(argc, argv, &options)) {
    dynopt::Usage();
    return 2;
  }
  return options.trace ? dynopt::RunTraced(options)
                       : dynopt::RunEndToEnd(options);
}
