// Shared plumbing of the xtalk-sta benchmark: clocks, the seeded input
// generator, latency samples, the result record every workload fills, and
// the per-layer probes the traced run adds around calls into src/.
//
// Everything here measures from outside the library: it times public
// calls and reads the counters StaResult::metrics already exports. Nothing
// in src/ is instrumented for the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "netlist/circuit_generator.hpp"
#include "sta/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);
double ms_since(Clock::time_point t0);
/// getrusage maximum RSS of the process so far, in MB.
double peak_rss_mb();

/// Engine worker threads for every analysis: below the 4 cores of the
/// reference host, so co-tenants keep headroom and runs stay steady.
inline constexpr int kThreads = 2;

/// splitmix64: a fixed, platform-independent generator. The standard
/// library distributions are implementation-defined, so the same seed
/// would give different edit sequences on different toolchains.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform double in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * unit(); }

 private:
  std::uint64_t state_;
};

/// Latency samples in milliseconds.
class Samples {
 public:
  void add(double ms) { v_.push_back(ms); }
  void append(const Samples& other);
  std::size_t size() const { return v_.size(); }
  /// Nearest-rank percentile, p in [0, 1]; 0 when empty.
  double percentile(double p) const;
  /// True when at least ten samples lie above the p-th percentile, the
  /// rule for reporting a tail percentile at all.
  bool tail_supported(double p) const;

 private:
  std::vector<double> v_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload process reports back to run.py.
struct Report {
  double setup_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure reasons
  double window_s = 0.0;              ///< measured (timed) wall
  /// Peak RSS to report; 0 means the process's peak at exit.
  double peak_rss_mb = 0.0;
  std::uint64_t ops = 0;              ///< operations completed in the window
  /// Operations per second of each round (table) or cycle (eco), or of
  /// the whole window (service); their median is the throughput.
  std::vector<double> rates;
  /// Latency of each unit of analysis work: a Tables 1-3 round (table),
  /// an edit batch with its re-time (eco), an ECO round trip (service).
  /// A median over a mix of cheap and costly operations sits between two
  /// clusters, so only units of work are timed here.
  Samples work_ms;
  /// eco and service: work_ms split by edit site. Each site's edit costs
  /// about the same every time, but sites differ by far more than that, so
  /// a median over all batches falls into a gap between two sites' costs
  /// and jumped between 21 and 27 ms from seed to seed.
  std::vector<Samples> work_by_site;
  /// The workload's own end-to-end figures (classic_s, eco_p50_ms, ...).
  std::map<std::string, Metric> detail;
  /// Per-layer figures (traced run only).
  std::map<std::string, Metric> layers;

  void set_detail(const std::string& name, double v, const std::string& unit) {
    detail[name] = {v, unit};
  }
  void set_layer(const std::string& name, double v, const std::string& unit) {
    layers[name] = {v, unit};
  }
  /// Count one failed operation with its reason.
  void fail(const std::string& why);
  /// The gated work latency: the mean over edit sites of each site's
  /// median when work_by_site is filled, else the median of work_ms.
  double typical_work_ms() const;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
};

/// Scale a paper preset by cell count, keeping its logic depth (as the
/// repo's table benches do).
xtalk::netlist::GeneratorSpec scaled_preset(xtalk::netlist::GeneratorSpec spec,
                                            double scale);

/// The ~1.2k-cell s38417 stand-in the service workload serves, also the
/// probe design of the traced runs.
xtalk::netlist::GeneratorSpec service_spec();

/// Bitwise equality of two doubles.
bool same_bits(double a, double b);

/// Median (mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> v);

/// A run finished: not truncated, endpoints timed, a finite positive
/// longest path, no error diagnostics.
bool complete(const xtalk::sta::StaResult& r);

// ---------------------------------------------------------------------------
// ECO edit sites
// ---------------------------------------------------------------------------

/// Edit cost is the size of the re-timed cone, which is heavy-tailed, so
/// freely drawn edit targets made a run's figures depend on which cones its
/// seed happened to hit (between seeds, the mean of 80 batches moved by
/// 14 %). ECO edits therefore go to a fixed pool of sites, visited in
/// whole cycles; the seed decides only the order of each cycle and the
/// value of each move.
enum class EditMove { kResize, kSwap, kWireCap, kSetCoupling, kRemoveCoupling };

struct EditSite {
  xtalk::netlist::GateId gate;
  xtalk::netlist::NetId out;      ///< the gate's output net
  xtalk::netlist::NetId partner;  ///< a coupling neighbour of `out`, or kNoNet
  double coupling;                ///< the extracted cap to `partner`
  double wire_cap;                ///< the extracted wire cap of `out`
  EditMove move;
};

/// One combinational gate per stratum of logic levels from level 2 on,
/// each with a fixed move, drawn by a fixed generator: the sites are part
/// of the workload, not of the seed. Levels 0 and 1 are left out: an edit
/// there re-times 70-75 % of the design, a full run in all but name,
/// which `table` measures.
std::vector<EditSite> pick_edit_sites(const xtalk::core::Design& design,
                                      std::size_t count);

/// Deals 0..n-1 in a fresh seeded order each cycle.
class SeededCycle {
 public:
  SeededCycle(std::size_t n, SplitMix64& rng) : n_(n), rng_(&rng) {}
  std::size_t next();
  /// True between cycles; an ECO run stops only there, so every run edits
  /// each site equally often.
  bool at_end() const { return cursor_ == order_.size(); }

 private:
  std::size_t n_;
  SplitMix64* rng_;
  std::vector<std::size_t> order_;
  std::size_t cursor_ = 0;
};

// ---------------------------------------------------------------------------
// Per-layer accounting (traced run)
// ---------------------------------------------------------------------------

/// Sums the engine counters of traced runs (StaOptions::collect_metrics).
class EngineTally {
 public:
  void add(const xtalk::sta::StaResult& r);
  /// Writes the delaycalc.*, util.* and sta.* layer metrics.
  void write(Report& report) const;

 private:
  std::uint64_t passes_ = 0;
  double pass_s_ = 0.0;
  double level_s_ = 0.0;
  double serial_s_ = 0.0;
  std::uint64_t calcs_ = 0;
  std::uint64_t be_steps_ = 0;
  std::uint64_t newton_ = 0;
  std::uint64_t fallback_ = 0;
  std::uint64_t classifications_ = 0;
  std::uint64_t gates_evaluated_ = 0;
  std::uint64_t gates_reused_ = 0;
  std::uint64_t busy_ns_ = 0;
  std::uint64_t wait_ns_ = 0;
  double capacity_s_ = 0.0;  ///< Σ run wall x threads
};

/// Incremental-layer sums (sta.incremental.*).
struct IncrementalTally {
  std::uint64_t edits = 0;
  double edit_s = 0.0;
  std::uint64_t runs = 0;
  double run_s = 0.0;
  std::uint64_t dirty_nets = 0;
  std::uint64_t calcs = 0;
  std::uint64_t gates_reused = 0;
  std::uint64_t gates_evaluated = 0;
  void write(Report& report) const;
};

/// Service-layer figures (service.*).
struct ServiceTally {
  double overhead_ms_sum = 0.0;
  std::uint64_t overhead_samples = 0;
  std::uint64_t queue_peak = 0;
  std::uint64_t truncated = 0;
  std::uint64_t degraded_admissions = 0;
  std::uint64_t bytes = 0;
  std::uint64_t requests = 0;
  void write(Report& report) const;
};

/// netlist.*, layout.* and extract.*: the flow of Design::build, one call
/// at a time, summed over `specs`.
void probe_build_layers(const std::vector<xtalk::netlist::GeneratorSpec>& specs,
                        Report& report);

/// device.*: timed table lookups on a seeded grid, and a corner table build.
void probe_device(std::uint64_t seed, Report& report);

/// delaycalc.stage_us / delaycalc.arc_us: timed stage and arc solves for
/// gates and loads drawn from `design`.
void probe_delaycalc(const xtalk::core::Design& design, std::uint64_t seed,
                     Report& report);

/// sta.mcmm.*: the 4-scenario set on `design` (also returns its wall).
struct McmmOutcome {
  double wall_s = 0.0;
  double context_s = 0.0;   ///< timed ScenarioContext::make, slow corner
  double scenario_s = 0.0;  ///< mean engine wall per scenario
  bool ok = true;
  std::string why;
};
std::vector<xtalk::sta::Scenario> mcmm_scenarios();
McmmOutcome run_mcmm_set(const xtalk::core::Design& design, bool traced,
                         EngineTally* tally);

/// sim.*: validate the critical path of `result` on `design`.
struct ValidationOutcome {
  double wall_s = 0.0;
  double margin_pct = 0.0;  ///< (STA - sim) / sim
  std::size_t nodes = 0;
  std::size_t devices = 0;
  std::size_t aggressors = 0;
};
ValidationOutcome validate_path(const xtalk::core::Design& design,
                                const xtalk::sta::StaResult& result);
void write_validation(const ValidationOutcome& v, Report& report);

/// Analysis options shared by every workload.
xtalk::sta::StaOptions base_options(xtalk::sta::AnalysisMode mode,
                                    bool traced);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

Report run_table(const Options& opt, Clock::time_point process_start);
Report run_eco(const Options& opt, Clock::time_point process_start);
Report run_service(const Options& opt, Clock::time_point process_start);

/// For traced workloads that do not exercise a layer themselves:
/// sta.incremental.* from 20 ECO batches on `design`, and service.* from
/// 2 s of load on the probe design.
void probe_incremental(const xtalk::core::Design& design, std::uint64_t seed,
                       Report& report);
void probe_service(std::uint64_t seed, Report& report);
/// sta.mcmm.* and sim.* on the probe design.
void probe_mcmm_and_sim(Report& report);

}  // namespace perfbench
