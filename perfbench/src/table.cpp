// `table` workload: the paper's Tables 1-3 (five analysis modes on the
// three ISCAS89-like circuits), the 4-scenario MCMM set on s38417_like and
// the transistor-level validation of s35932_like's iterative critical path.
// Almost all time goes to the delaycalc kernels, device lookups and the
// sta pass/level loop; sta/incremental and service are never called.
#include <malloc.h>

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

#include "delaycalc/waveform_calc.hpp"
#include "harness.hpp"
#include "sta/incremental/oracle.hpp"

namespace perfbench {

using namespace xtalk;

namespace {

/// One size for all three circuits (1.8k-2.4k cells): a round takes
/// 10-14 s on the reference host, so a 25 s window holds two or three.
constexpr double kTableScale = 0.1;

constexpr sta::AnalysisMode kModes[] = {
    sta::AnalysisMode::kBestCase, sta::AnalysisMode::kStaticDoubled,
    sta::AnalysisMode::kWorstCase, sta::AnalysisMode::kOneStep,
    sta::AnalysisMode::kIterative};
constexpr std::size_t kNumModes = std::size(kModes);
constexpr std::size_t kBest = 0, kWorst = 2, kOneStep = 3, kIterative = 4;

/// Operation ids of one round: circuit * kNumModes + mode, then MCMM; the
/// validation follows s35932's iterative run, whose critical path it needs.
constexpr std::size_t kNumCircuits = 3;
constexpr std::size_t kMcmmOp = kNumCircuits * kNumModes;

using Endpoints = std::vector<sta::EndpointArrival>;

/// How far a mode may sit above the next one before the ordering counts as
/// broken: the waveform solver's own bound on grid-truncation noise. The
/// solver places its time steps by the input waveform, so two modes that
/// feed one stage slightly different inputs get different step grids. On
/// s38584_like a zero-coupling DFF stage whose worst-case input is later at
/// every voltage (by 0.44-1.0 ps) gives an output up to 1.4 ps earlier than
/// the one-step input does, and endpoint 144 (fall) ends 0.64 ps above its
/// worst-case arrival. An error in the analysis modes themselves shows as
/// tens of picoseconds.
const double kOrderingTolerance =
    delaycalc::IntegrationOptions{}.degrade_margin_abs;

struct OrderingCheck {
  std::string why;  ///< empty when the ordering holds
  /// Largest amount by which a mode lies above the next one, over every
  /// endpoint and each pair (best, iterative), (iterative, one-step),
  /// (one-step, worst); 0 or less when the ordering holds exactly.
  double excess = -std::numeric_limits<double>::infinity();
};

/// Per endpoint, best <= iterative <= one-step <= worst, each within
/// kOrderingTolerance.
OrderingCheck check_ordering(const Endpoints* r) {
  OrderingCheck out;
  std::map<std::pair<netlist::NetId, bool>, double> at[kNumModes];
  for (const std::size_t m : {kBest, kIterative, kOneStep, kWorst}) {
    for (const sta::EndpointArrival& e : r[m]) {
      at[m][{e.net, e.rising}] = e.arrival;
    }
  }
  for (const auto& [key, iter] : at[kIterative]) {
    const auto b = at[kBest].find(key);
    const auto o = at[kOneStep].find(key);
    const auto w = at[kWorst].find(key);
    if (b == at[kBest].end() || o == at[kOneStep].end() ||
        w == at[kWorst].end()) {
      out.why = "endpoint " + std::to_string(key.first) + " missing in a mode";
      return out;
    }
    const double excess = std::max(
        {b->second - iter, iter - o->second, o->second - w->second});
    out.excess = std::max(out.excess, excess);
    if (!(excess <= kOrderingTolerance) && out.why.empty()) {
      out.why = "endpoint " + std::to_string(key.first) +
                " violates best <= iterative <= one-step <= worst by " +
                std::to_string(excess * 1e12) + " ps";
    }
  }
  return out;
}

}  // namespace

Report run_table(const Options& opt, Clock::time_point process_start) {
  Report rep;
  const std::vector<netlist::GeneratorSpec> specs = {
      scaled_preset(netlist::s35932_like(), kTableScale),
      scaled_preset(netlist::s38417_like(), kTableScale),
      scaled_preset(netlist::s38584_like(), kTableScale)};
  std::vector<core::Design> designs;
  for (const netlist::GeneratorSpec& s : specs) {
    designs.push_back(core::Design::generate(s));
  }
  rep.setup_s = seconds_since(process_start);
  if (opt.setup_only) return rep;

  SplitMix64 rng(opt.seed);
  EngineTally tally;
  std::vector<double> classic, onestep, iterative, mcmm, validate;
  double untraced_s = 0.0, traced_s = 0.0;
  double margin_pct = 0.0;
  double ordering_excess = -std::numeric_limits<double>::infinity();
  ValidationOutcome last_validation;
  double context_s = 0.0, scenario_s = 0.0;
  std::size_t mcmm_runs = 0;

  const auto window = Clock::now();
  do {
    // The seed orders the round's analyses; each is independent of the
    // others, so the order must not change any result.
    std::vector<std::size_t> order(kMcmmOp + 1);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.below(i + 1)]);
    }
    // Only the endpoints are kept across a round, so the peak RSS does not
    // depend on the order.
    Endpoints endpoints[kNumCircuits][kNumModes];
    const auto round_start = Clock::now();
    double round_classic = 0.0, round_onestep = 0.0, round_iterative = 0.0;

    for (const std::size_t op : order) {
      // Each analysis starts from a trimmed heap, so the peak RSS is that
      // of the largest analysis, not of the heap the seeded order left.
      malloc_trim(0);
      ++rep.attempted;
      if (op == kMcmmOp) {
        const McmmOutcome m = run_mcmm_set(designs[1], false, nullptr);
        mcmm.push_back(m.wall_s);
        if (!m.ok) rep.fail(m.why);
        if (opt.trace) {
          const McmmOutcome t = run_mcmm_set(designs[1], true, &tally);
          untraced_s += m.wall_s;
          traced_s += t.wall_s;
          context_s += t.context_s;
          scenario_s += t.scenario_s;
          ++mcmm_runs;
        }
        continue;
      }
      const std::size_t c = op / kNumModes;
      const std::size_t m = op % kNumModes;
      const auto t0 = Clock::now();
      sta::StaResult result = designs[c].run(base_options(kModes[m], false));
      const double wall = seconds_since(t0);
      (m == kOneStep ? round_onestep
                     : m == kIterative ? round_iterative : round_classic) += wall;
      if (!complete(result)) {
        rep.fail(specs[c].name + " " + sta::mode_name(kModes[m]) +
                 ": incomplete or failed run");
      }
      if (opt.trace) {
        const auto t1 = Clock::now();
        const sta::StaResult traced = designs[c].run(base_options(kModes[m], true));
        traced_s += seconds_since(t1);
        untraced_s += wall;
        tally.add(traced);
        const sta::incremental::EquivalenceReport eq =
            sta::incremental::compare_results(result, traced);
        if (!eq.identical) {
          rep.fail(specs[c].name + " " + sta::mode_name(kModes[m]) +
                   ": traced run differs: " + eq.mismatch);
        }
      }
      endpoints[c][m] = result.endpoints;
      if (c == 0 && m == kIterative) {
        ++rep.attempted;
        last_validation = validate_path(designs[0], result);
        validate.push_back(last_validation.wall_s);
        margin_pct = last_validation.margin_pct;
        if (!(margin_pct >= 0.0)) {
          rep.fail("s35932_like: STA bound below the simulated path delay");
        }
      }
    }
    for (std::size_t c = 0; c < kNumCircuits; ++c) {
      const OrderingCheck ordering = check_ordering(endpoints[c]);
      ordering_excess = std::max(ordering_excess, ordering.excess);
      // Attributed to the circuit's iterative run, whose bound it checks.
      if (!ordering.why.empty()) rep.fail(specs[c].name + ": " + ordering.why);
    }
    const double round_s = seconds_since(round_start);
    // Later rounds repeat the same analyses, so they add no memory of their
    // own; yet the heaps of the worker threads' malloc arenas still grew
    // by 0-10 MB over them, differently on every run (with one arena the
    // peak stayed within 0.2 MB). The first round's peak is the figure.
    if (rep.peak_rss_mb == 0.0) rep.peak_rss_mb = peak_rss_mb();
    rep.ops += order.size() + 1;
    rep.work_ms.add(round_s * 1e3);
    rep.rates.push_back(static_cast<double>(order.size() + 1) / round_s);
    classic.push_back(round_classic);
    onestep.push_back(round_onestep);
    iterative.push_back(round_iterative);
  } while (seconds_since(window) < opt.seconds);
  rep.window_s = seconds_since(window);

  rep.set_detail("classic_s", median(classic), "s");
  rep.set_detail("onestep_s", median(onestep), "s");
  rep.set_detail("iterative_s", median(iterative), "s");
  rep.set_detail("mcmm_s", median(mcmm), "s");
  rep.set_detail("validate_s", median(validate), "s");
  rep.set_detail("bound_margin_pct", margin_pct, "%");
  rep.set_detail("ordering_excess_ps", ordering_excess * 1e12, "ps");
  rep.set_detail("rounds", static_cast<double>(classic.size()), "count");

  if (opt.trace) {
    probe_build_layers(specs, rep);
    probe_device(opt.seed, rep);
    probe_delaycalc(designs[1], opt.seed, rep);
    tally.write(rep);
    rep.set_layer("sta.mcmm.context_s", context_s / static_cast<double>(mcmm_runs), "s");
    rep.set_layer("sta.mcmm.scenario_s", scenario_s / static_cast<double>(mcmm_runs), "s");
    write_validation(last_validation, rep);
    probe_incremental(designs[1], opt.seed, rep);
    probe_service(opt.seed, rep);
    rep.set_layer("trace.overhead_share", traced_s / untraced_s - 1.0, "ratio");
  }
  return rep;
}

}  // namespace perfbench
