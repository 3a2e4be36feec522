#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/validation.hpp"
#include "delaycalc/arc_delay.hpp"
#include "delaycalc/stage.hpp"
#include "delaycalc/waveform_calc.hpp"
#include "device/device_table.hpp"
#include "extract/extractor.hpp"
#include "layout/placement.hpp"
#include "layout/router.hpp"
#include "netlist/cell_library.hpp"
#include "netlist/clock_tree.hpp"
#include "netlist/levelize.hpp"
#include "sta/scenario.hpp"

namespace perfbench {

using namespace xtalk;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Samples::append(const Samples& other) {
  v_.insert(v_.end(), other.v_.begin(), other.v_.end());
}

namespace {
std::size_t rank_index(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return std::min(n - 1, rank == 0 ? 0 : rank - 1);
}
}  // namespace

double Samples::percentile(double p) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  const std::size_t i = rank_index(s.size(), p);
  std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(i), s.end());
  return s[i];
}

bool Samples::tail_supported(double p) const {
  if (v_.empty()) return false;
  return v_.size() - 1 - rank_index(v_.size(), p) >= 10;
}

void Report::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

double Report::typical_work_ms() const {
  if (work_by_site.empty()) return work_ms.percentile(0.5);
  double sum = 0.0;
  std::size_t sites = 0;
  for (const Samples& s : work_by_site) {
    if (s.size() == 0) continue;
    sum += s.percentile(0.5);
    ++sites;
  }
  return sites == 0 ? 0.0 : sum / static_cast<double>(sites);
}

netlist::GeneratorSpec scaled_preset(netlist::GeneratorSpec spec,
                                     double scale) {
  auto scaled = [scale](std::size_t n, std::size_t floor) {
    return std::max(floor, static_cast<std::size_t>(static_cast<double>(n) * scale));
  };
  spec.num_cells = scaled(spec.num_cells, 64);
  spec.num_ffs = scaled(spec.num_ffs, 4);
  spec.num_pos = scaled(spec.num_pos, 4);
  return spec;
}

netlist::GeneratorSpec service_spec() {
  // The scaling bench_service_load uses at 0.05: cell count x0.05, depth
  // x sqrt(0.05), giving ~1.2k cells.
  const netlist::GeneratorSpec base = netlist::s38417_like();
  constexpr double kScale = 0.05;
  return netlist::scaled_spec(
      "s38417_scaled", base.seed,
      static_cast<std::size_t>(static_cast<double>(base.num_cells) * kScale),
      static_cast<std::size_t>(static_cast<double>(base.depth) *
                               std::sqrt(kScale)));
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool complete(const sta::StaResult& r) {
  return !r.budget.exhausted && !r.endpoints.empty() &&
         std::isfinite(r.longest_path_delay) && r.longest_path_delay > 0.0 &&
         r.diagnostics.count(util::Severity::kError) == 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

sta::StaOptions base_options(sta::AnalysisMode mode, bool traced) {
  sta::StaOptions o;
  o.mode = mode;
  o.num_threads = kThreads;
  o.collect_metrics = traced;
  return o;
}

// ---------------------------------------------------------------------------
// ECO edit sites
// ---------------------------------------------------------------------------

std::vector<EditSite> pick_edit_sites(const core::Design& design,
                                      std::size_t count) {
  constexpr std::uint32_t kFirstLevel = 2;
  constexpr std::size_t kMoves = 5;
  const netlist::Netlist& nl = design.netlist();
  const netlist::LevelizedDag& dag = design.dag();
  const extract::Parasitics& par = design.parasitics();
  SplitMix64 pick(0x5e1ec7);
  std::vector<EditSite> sites;
  for (std::size_t s = 0; s < count; ++s) {
    const std::uint32_t level =
        kFirstLevel + static_cast<std::uint32_t>(
                          s * (dag.num_levels - kFirstLevel) / count);
    const std::uint32_t begin = dag.level_begin[level];
    const std::uint32_t size = dag.level_begin[level + 1] - begin;
    for (int tries = 0; tries < 64; ++tries) {
      const netlist::GateId g = dag.level_order[begin + pick.below(size)];
      const netlist::Gate& gate = nl.gate(g);
      const netlist::NetId out = gate.pin_nets[gate.cell->output_pin()];
      if (gate.cell->is_sequential() || out == netlist::kNoNet) continue;
      EditSite site{g, out, netlist::kNoNet, 0.0, par.net(out).wire_cap,
                    static_cast<EditMove>(s % kMoves)};
      const auto& couplings = par.net(out).couplings;
      if (!couplings.empty()) {
        const extract::NeighborCap& n = couplings[pick.below(couplings.size())];
        site.partner = n.neighbor;
        site.coupling = n.cap;
      }
      sites.push_back(site);
      break;
    }
  }
  return sites;
}

std::size_t SeededCycle::next() {
  if (at_end()) {
    order_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) order_[i] = i;
    for (std::size_t i = n_ - 1; i > 0; --i) {
      std::swap(order_[i], order_[rng_->below(i + 1)]);
    }
    cursor_ = 0;
  }
  return order_[cursor_++];
}

// ---------------------------------------------------------------------------
// Tallies
// ---------------------------------------------------------------------------

void EngineTally::add(const sta::StaResult& r) {
  const sta::MetricsSnapshot& m = r.metrics;
  if (!m.enabled) return;
  double pass_wall = 0.0;
  for (const sta::PassMetrics& p : m.passes) {
    pass_wall += p.wall_seconds;
    for (const double w : p.level_wall_seconds) level_s_ += w;
  }
  passes_ += m.passes.size();
  pass_s_ += pass_wall;
  serial_s_ += std::max(0.0, m.run_wall_seconds - pass_wall);
  calcs_ += m.waveform_calcs;
  be_steps_ += m.counter(sta::EngineCounter::kBeSteps);
  newton_ += m.counter(sta::EngineCounter::kNewtonIterations);
  fallback_ += m.counter(sta::EngineCounter::kFallbackBeSteps);
  classifications_ += m.counter(sta::EngineCounter::kCouplingClassifications);
  gates_evaluated_ += m.counter(sta::EngineCounter::kGatesEvaluated);
  gates_reused_ += m.gates_reused;
  busy_ns_ += m.pool_busy_ns;
  wait_ns_ += m.pool_wait_ns;
  capacity_s_ += m.run_wall_seconds * static_cast<double>(m.threads);
}

void EngineTally::write(Report& report) const {
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  report.set_layer("delaycalc.calcs", static_cast<double>(calcs_), "count");
  report.set_layer("delaycalc.be_steps_per_calc",
                   ratio(static_cast<double>(be_steps_), static_cast<double>(calcs_)),
                   "ratio");
  report.set_layer("delaycalc.newton_per_step",
                   ratio(static_cast<double>(newton_), static_cast<double>(be_steps_)),
                   "ratio");
  report.set_layer("delaycalc.fallback_steps", static_cast<double>(fallback_),
                   "count");
  report.set_layer("util.pool_busy_s", static_cast<double>(busy_ns_) * 1e-9, "s");
  report.set_layer("util.pool_wait_s", static_cast<double>(wait_ns_) * 1e-9, "s");
  report.set_layer("util.pool_utilization",
                   ratio(static_cast<double>(busy_ns_) * 1e-9, capacity_s_),
                   "ratio");
  report.set_layer("sta.passes", static_cast<double>(passes_), "count");
  report.set_layer("sta.pass_s", ratio(pass_s_, static_cast<double>(passes_)), "s");
  report.set_layer("sta.serial_s", serial_s_, "s");
  report.set_layer("sta.gates_evaluated", static_cast<double>(gates_evaluated_),
                   "count");
  report.set_layer("sta.gates_reused", static_cast<double>(gates_reused_),
                   "count");
  report.set_layer("sta.coupling_classifications",
                   static_cast<double>(classifications_), "count");
  report.set_layer("sta.unaccounted_share",
                   pass_s_ > 0.0 ? 1.0 - level_s_ / pass_s_ : 0.0, "ratio");
}

void IncrementalTally::write(Report& report) const {
  auto per = [](double a, std::uint64_t n) {
    return n == 0 ? 0.0 : a / static_cast<double>(n);
  };
  report.set_layer("sta.incremental.edit_us", per(edit_s * 1e6, edits), "us");
  report.set_layer("sta.incremental.run_ms", per(run_s * 1e3, runs), "ms");
  report.set_layer("sta.incremental.dirty_nets",
                   per(static_cast<double>(dirty_nets), runs), "count");
  report.set_layer("sta.incremental.calcs_per_edit",
                   per(static_cast<double>(calcs), edits), "count");
  const std::uint64_t gates = gates_reused + gates_evaluated;
  report.set_layer("sta.incremental.reuse_ratio",
                   per(static_cast<double>(gates_reused), gates), "ratio");
}

void ServiceTally::write(Report& report) const {
  report.set_layer("service.overhead_ms",
                   overhead_samples == 0
                       ? 0.0
                       : overhead_ms_sum / static_cast<double>(overhead_samples),
                   "ms");
  report.set_layer("service.queue_peak", static_cast<double>(queue_peak), "count");
  report.set_layer("service.truncated", static_cast<double>(truncated), "count");
  report.set_layer("service.degraded_admissions",
                   static_cast<double>(degraded_admissions), "count");
  report.set_layer("service.bytes_per_request",
                   requests == 0 ? 0.0
                                 : static_cast<double>(bytes) /
                                       static_cast<double>(requests),
                   "B");
}

// ---------------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------------

void probe_build_layers(const std::vector<netlist::GeneratorSpec>& specs,
                        Report& report) {
  double generate_s = 0.0, levelize_s = 0.0, place_s = 0.0, route_s = 0.0,
         extract_s = 0.0;
  std::size_t pairs = 0;
  const netlist::CellLibrary& lib = netlist::CellLibrary::half_micron();
  for (const netlist::GeneratorSpec& spec : specs) {
    // The same sequence of calls as core::Design::build.
    auto t = Clock::now();
    netlist::Netlist nl = netlist::generate_circuit(spec, lib);
    netlist::build_clock_tree(nl);
    generate_s += seconds_since(t);
    t = Clock::now();
    const netlist::LevelizedDag dag = netlist::levelize(nl);
    levelize_s += seconds_since(t);
    t = Clock::now();
    const layout::Placement placement(nl, dag);
    place_s += seconds_since(t);
    t = Clock::now();
    const layout::RoutedDesign routing(nl, placement);
    route_s += seconds_since(t);
    t = Clock::now();
    const extract::Parasitics par = extract::extract(nl, routing, lib.tech());
    extract_s += seconds_since(t);
    pairs += par.coupling_pairs().size();
  }
  report.set_layer("netlist.generate_s", generate_s, "s");
  report.set_layer("netlist.levelize_s", levelize_s, "s");
  report.set_layer("layout.place_s", place_s, "s");
  report.set_layer("layout.route_s", route_s, "s");
  report.set_layer("extract.extract_s", extract_s, "s");
  report.set_layer("extract.coupling_pairs", static_cast<double>(pairs), "count");
}

void probe_device(std::uint64_t seed, Report& report) {
  const device::DeviceTableSet& tables = device::DeviceTableSet::half_micron();
  const device::DeviceTable& nmos = tables.nmos();
  const double vdd = tables.tech().vdd;
  struct Point {
    double w, vg, va, vb;
  };
  SplitMix64 rng(seed ^ 0xde71ce);
  std::vector<Point> pts(4096);
  for (Point& p : pts) {
    p = {rng.uniform(1e-6, 8e-6), rng.uniform(0.0, vdd), rng.uniform(0.0, vdd),
         rng.uniform(0.0, vdd)};
  }
  constexpr int kRounds = 40;
  const double calls = static_cast<double>(pts.size()) * kRounds;
  std::vector<double> plain, derivs;
  double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    auto t = Clock::now();
    for (int r = 0; r < kRounds; ++r) {
      for (const Point& p : pts) sink += nmos.channel_current(p.w, p.vg, p.va, p.vb);
    }
    plain.push_back(seconds_since(t) * 1e9 / calls);
    t = Clock::now();
    for (int r = 0; r < kRounds; ++r) {
      for (const Point& p : pts) {
        sink += nmos.channel_current_derivs(p.w, p.vg, p.va, p.vb).d_vg;
      }
    }
    derivs.push_back(seconds_since(t) * 1e9 / calls);
  }
  // Keeps the lookups observable so they cannot be optimized away.
  if (!std::isfinite(sink)) report.fail("device: non-finite table current");
  report.set_layer("device.lookup_ns", median(plain), "ns");
  report.set_layer("device.lookup_derivs_ns", median(derivs), "ns");

  const device::Technology corner = tables.tech().scaled(0.9, 125.0);
  std::vector<double> builds;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t = Clock::now();
    const device::DeviceTableSet set(corner);
    builds.push_back(seconds_since(t));
    if (set.nmos().vmax() <= 0.0) report.fail("device: empty corner table");
  }
  report.set_layer("device.corner_tables_s", median(builds), "s");
}

void probe_delaycalc(const core::Design& design, std::uint64_t seed,
                     Report& report) {
  const netlist::Netlist& nl = design.netlist();
  const device::DeviceTableSet& tables = design.tables();
  const device::Technology& tech = tables.tech();
  const delaycalc::ArcDelayCalculator calc(tables);
  const util::Pwl arc_in = util::Pwl::ramp(0.0, tech.model_vth, 0.2e-9, tech.vdd);
  const util::Pwl stage_in =
      util::Pwl::ramp(0.0, tech.vdd - tech.model_vth, 0.2e-9, 0.0);

  SplitMix64 rng(seed ^ 0xca1c);
  double arc_s = 0.0, stage_s = 0.0;
  std::uint64_t arcs = 0, stages = 0;
  double sink = 0.0;
  for (int picked = 0, tries = 0; picked < 48 && tries < 10000; ++tries) {
    const auto gid = static_cast<netlist::GateId>(rng.below(nl.num_gates()));
    const netlist::Gate& g = nl.gate(gid);
    const netlist::Cell& cell = *g.cell;
    if (cell.is_sequential() || cell.num_inputs() == 0) continue;
    std::size_t pin = 0;
    while (cell.pins()[pin].dir != netlist::PinDir::kInput) ++pin;
    const netlist::NetId out = g.pin_nets[cell.output_pin()];
    if (out == netlist::kNoNet) continue;
    // The load the engine would see: wire + receiver pins + own junctions,
    // with the coupling caps modelled actively.
    double c_passive = design.parasitics().net(out).wire_cap +
                       cell.output_parasitic_cap();
    for (const netlist::PinRef& s : nl.net(out).sinks) {
      c_passive += nl.gate(s.gate).cell->pins()[s.pin].cap;
    }
    const delaycalc::OutputLoad load{
        c_passive, design.parasitics().net(out).total_coupling_cap()};

    const std::vector<delaycalc::StagePath> paths =
        delaycalc::enumerate_paths(cell, pin);
    if (paths.empty() || paths[0].hops.empty()) continue;
    const delaycalc::StagePath::Hop hop = paths[0].hops.back();
    const netlist::Stage& stage = cell.stages()[hop.stage];
    const delaycalc::CollapsedStage cs = delaycalc::collapse_dc(
        stage, delaycalc::sensitize(stage, hop.input), tables);
    delaycalc::StageDrive drive;
    drive.wn_eq = cs.wn_eq;
    drive.wp_eq = cs.wp_eq;
    drive.vin = &stage_in;
    drive.output_rising = true;
    try {
      for (int rep = 0; rep < 8; ++rep) {
        auto t = Clock::now();
        const delaycalc::WaveformResult w =
            delaycalc::solve_stage_waveform(tables, drive, load);
        stage_s += seconds_since(t);
        ++stages;
        sink += w.settle_time;
        t = Clock::now();
        const std::vector<delaycalc::ArcResult> a =
            calc.compute(cell, pin, true, arc_in, load);
        arc_s += seconds_since(t);
        ++arcs;
        if (!a.empty()) sink += a[0].settle_time;
      }
      ++picked;
    } catch (const std::exception& e) {
      // A solver fault on a probe load is a finding, not a skipped sample.
      report.fail(std::string("delaycalc probe: ") + e.what());
      ++picked;
    }
  }
  if (!std::isfinite(sink)) report.fail("delaycalc: non-finite settle time");
  report.set_layer("delaycalc.stage_us",
                   stages == 0 ? 0.0 : stage_s * 1e6 / static_cast<double>(stages),
                   "us");
  report.set_layer("delaycalc.arc_us",
                   arcs == 0 ? 0.0 : arc_s * 1e6 / static_cast<double>(arcs), "us");
}

std::vector<sta::Scenario> mcmm_scenarios() {
  // The signoff set of bench_mcmm: two V/T corners, each plain and with an
  // extra coupling treatment.
  std::vector<sta::Scenario> s(4);
  s[0].name = "fast";
  s[0].vdd_scale = 1.1;
  s[0].temperature_c = -40.0;
  s[1] = s[0];
  s[1].name = "fast_derated";
  s[1].coupling_derate = 1.15;
  s[2].name = "slow";
  s[2].vdd_scale = 0.9;
  s[2].temperature_c = 125.0;
  s[3] = s[2];
  s[3].name = "slow_doubled";
  s[3].override_mode = true;
  s[3].mode = sta::AnalysisMode::kStaticDoubled;
  return s;
}

McmmOutcome run_mcmm_set(const core::Design& design, bool traced,
                         EngineTally* tally) {
  McmmOutcome out;
  sta::StaOptions opt = base_options(sta::AnalysisMode::kOneStep, traced);
  opt.scenarios = mcmm_scenarios();
  const auto t = Clock::now();
  const sta::McmmResult m = design.run_scenarios(opt);
  out.wall_s = seconds_since(t);
  double scenario_wall = 0.0;
  for (const sta::ScenarioRun& r : m.runs) {
    scenario_wall += r.result.runtime_seconds;
    if (tally != nullptr) tally->add(r.result);
    if (!complete(r.result)) {
      out.ok = false;
      out.why = "mcmm scenario " + r.scenario.name + " incomplete";
    }
  }
  if (m.runs.size() != 4) {
    out.ok = false;
    out.why = "mcmm returned " + std::to_string(m.runs.size()) + " scenarios";
  } else if (!(m.runs[2].result.longest_path_delay >
               m.runs[0].result.longest_path_delay)) {
    out.ok = false;
    out.why = "mcmm slow corner is not slower than the fast corner";
  }
  out.scenario_s = m.runs.empty() ? 0.0
                                  : scenario_wall / static_cast<double>(m.runs.size());
  if (traced) {
    const auto tc = Clock::now();
    const auto ctx = sta::ScenarioContext::make(design.view(), opt.scenarios[2],
                                                false);
    out.context_s = seconds_since(tc);
    if (ctx->shares_base_tables()) {
      out.ok = false;
      out.why = "slow corner borrowed the nominal tables";
    }
  }
  return out;
}

ValidationOutcome validate_path(const core::Design& design,
                                const sta::StaResult& result) {
  core::ValidationOptions vopt;
  vopt.policy = core::AggressorPolicy::kFromTiming;
  vopt.aggressor_slew = 0.05e-9;  // near-instantaneous, like the model
  const auto t = Clock::now();
  const core::ValidationResult v = core::validate_critical_path(design, result, vopt);
  ValidationOutcome out;
  out.wall_s = seconds_since(t);
  out.margin_pct = (v.sta_delay - v.sim_delay) / v.sim_delay * 100.0;
  out.nodes = v.sim_nodes;
  out.devices = v.devices;
  out.aggressors = v.aggressors;
  return out;
}

void write_validation(const ValidationOutcome& v, Report& report) {
  report.set_layer("sim.validate_s", v.wall_s, "s");
  report.set_layer("sim.nodes", static_cast<double>(v.nodes), "count");
  report.set_layer("sim.devices", static_cast<double>(v.devices), "count");
  report.set_layer("sim.aggressors", static_cast<double>(v.aggressors), "count");
}

void probe_mcmm_and_sim(Report& report) {
  const core::Design design = core::Design::generate(service_spec());
  const McmmOutcome m = run_mcmm_set(design, true, nullptr);
  if (!m.ok) report.fail(m.why);
  report.set_layer("sta.mcmm.context_s", m.context_s, "s");
  report.set_layer("sta.mcmm.scenario_s", m.scenario_s, "s");
  const sta::StaResult r =
      design.run(base_options(sta::AnalysisMode::kIterative, false));
  const ValidationOutcome v = validate_path(design, r);
  if (!(v.margin_pct >= 0.0)) report.fail("probe: STA bound below simulation");
  write_validation(v, report);
}

}  // namespace perfbench
