// Threshold-stopped best-case solves. ArcDelayCalculator::starts (and the
// stage-level solve_stage_start under it) stop integrating once the output's
// model-threshold crossing is final; they must report bitwise the start time
// and degraded flag of the full solve. The engine reads only those from a
// best-case run on a coupled net, so its results must stay bitwise those of
// the full-solve path, which it still takes when a fault injector is
// attached (an inert one changes nothing else).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "delaycalc/arc_delay.hpp"
#include "netlist/circuit_generator.hpp"
#include "netlist/levelize.hpp"
#include "sta/incremental/editor.hpp"
#include "util/diag.hpp"
#include "util/fault_injection.hpp"

namespace xtalk {
namespace {

const device::DeviceTableSet& tables() {
  return device::DeviceTableSet::half_micron();
}
const device::Technology& tech() { return device::Technology::half_micron(); }

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// A full-swing input ramp of the given slew, clipped at the model
/// threshold like every propagated waveform.
util::Pwl input_ramp(bool rising, double slew) {
  const double vdd = tech().vdd;
  const double vth = tech().model_vth;
  const double t_full = slew * (vdd - vth) / vdd;
  return rising ? util::Pwl::ramp(0.0, vth, t_full, vdd)
                : util::Pwl::ramp(0.0, vdd - vth, t_full, 0.0);
}

struct SweepTotals {
  std::size_t paths = 0;
  std::uint64_t full_steps = 0;
  std::uint64_t stopped_steps = 0;
};

void expect_starts_match_compute(const netlist::Cell& cell, std::size_t pin,
                                 bool in_rising, const util::Pwl& in,
                                 const delaycalc::OutputLoad& load,
                                 SweepTotals& totals) {
  const delaycalc::ArcDelayCalculator calc(tables());
  const std::vector<delaycalc::ArcResult> full =
      calc.compute(cell, pin, in_rising, in, load);
  const std::vector<delaycalc::ArcStart> stop =
      calc.starts(cell, pin, in_rising, in, load);
  ASSERT_EQ(full.size(), stop.size()) << cell.name() << " pin " << pin;
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(stop[i].output_rising, full[i].output_rising);
    EXPECT_EQ(bits(stop[i].t_start), bits(full[i].waveform.front().t))
        << cell.name() << " pin " << pin << " in_rising " << in_rising
        << " load " << load.c_passive << "+" << load.c_active << " path "
        << i;
    EXPECT_EQ(stop[i].degraded, full[i].degraded);
    ++totals.paths;
    totals.full_steps += full[i].be_steps;
    totals.stopped_steps += stop[i].be_steps;
  }
}

TEST(ThresholdStart, SweepMatchesFullSolveBitwise) {
  SweepTotals totals;
  const std::vector<delaycalc::OutputLoad> loads = {
      {5e-15, 0.0}, {40e-15, 0.0}, {200e-15, 0.0},
      // Active coupling: no stop (a drop may move the clip point), so the
      // full solve runs and the answers agree trivially.
      {30e-15, 15e-15}};
  for (const netlist::Cell* cell :
       netlist::CellLibrary::half_micron().all_cells()) {
    for (std::uint32_t pin = 0; pin < cell->pins().size(); ++pin) {
      if (!netlist::is_timed_input(*cell, pin)) continue;
      for (const bool in_rising : {true, false}) {
        for (const double slew : {20e-12, 200e-12, 1e-9}) {
          const util::Pwl in = input_ramp(in_rising, slew);
          for (const delaycalc::OutputLoad& load : loads) {
            expect_starts_match_compute(*cell, pin, in_rising, in, load,
                                        totals);
          }
        }
      }
    }
  }
  EXPECT_GT(totals.paths, 500u);
  // The stop does save work: the grounded loads integrate only up to the
  // crossing, which lies early in the transition.
  EXPECT_LT(totals.stopped_steps, totals.full_steps);
}

// The solver stops only once the first raw point at or past the threshold
// is no longer the last one, because Pwl::append merges (replaces) its last
// point when the next sample is collinear. Without channel-length
// modulation the saturation current does not depend on Vds, so an NMOS
// pulling its output down with the gate at the rail draws a straight line:
// every BE point merges the one before it, the crossing point included,
// until the device leaves saturation near 1 V. Stopping at the first point
// past the threshold would read a crossing a few ulps off.
TEST(ThresholdStart, CollinearMergeAtTheCrossingInTheSolver) {
  device::Technology flat_tech = tech();
  flat_tech.lambda = 0.0;
  const device::DeviceTableSet flat(flat_tech);
  const util::Pwl vin =
      util::Pwl::ramp(0.0, flat_tech.model_vth, 1e-12, flat_tech.vdd);
  delaycalc::StageDrive drive;
  drive.wn_eq = 2e-6;
  drive.vin = &vin;
  drive.output_rising = false;
  const delaycalc::OutputLoad load{200e-15, 0.0};

  const delaycalc::WaveformResult full =
      delaycalc::solve_stage_waveform(flat, drive, load);
  const delaycalc::StageStart stop =
      delaycalc::solve_stage_start(flat, drive, load);
  // The clipped waveform's second point is the first raw point left after
  // the crossing: the straight stretch through the threshold was merged
  // into one segment reaching far below it.
  ASSERT_GE(full.waveform.size(), 2u);
  EXPECT_LT(full.waveform.points()[1].v, 0.5 * flat_tech.vdd);
  EXPECT_EQ(bits(stop.t_start), bits(full.waveform.front().t));
  EXPECT_FALSE(stop.degraded);
  EXPECT_LT(stop.be_steps, full.be_steps);
}

// A fallback step before the crossing forces the full solve: the degrade
// shift needs the settle time of the whole transition.
TEST(ThresholdStart, FallbackBeforeCrossingSolvesInFullAndShifts) {
  const netlist::Cell& cell = netlist::CellLibrary::half_micron().get("NAND2_X1");
  const delaycalc::ArcDelayCalculator calc(tables());
  const util::Pwl in = input_ramp(true, 200e-12);
  const delaycalc::OutputLoad load{40e-15, 0.0};

  util::FaultInjector injector;
  util::FaultSpec spec;
  spec.kind = util::FaultKind::kNewtonDiverge;
  spec.after = 0;  // the very first BE step
  spec.count = 1;
  injector.add(spec);
  util::DiagSink sink(64);
  util::DiagHandle dh;
  dh.sink = &sink;
  dh.faults = &injector;

  injector.reset();
  const auto full = calc.compute(cell, 0, true, in, load, {}, nullptr, &dh);
  injector.reset();
  const auto stop = calc.starts(cell, 0, true, in, load, {}, nullptr, &dh);
  ASSERT_EQ(full.size(), 1u);
  ASSERT_EQ(stop.size(), 1u);
  EXPECT_TRUE(full[0].degraded);
  EXPECT_TRUE(stop[0].degraded);
  EXPECT_GT(stop[0].fallback_steps, 0u);
  EXPECT_EQ(bits(stop[0].t_start), bits(full[0].waveform.front().t));
  // It ran to the settle band, exactly as the full solve did.
  EXPECT_EQ(stop[0].be_steps, full[0].be_steps);
}

// ---------------------------------------------------------------------------
// Engine: the stopped best-case solves change no result and no calc count
// ---------------------------------------------------------------------------

const core::Design& design() {
  static const core::Design d =
      core::Design::generate(netlist::scaled_spec("bitpin", 13, 260, 10));
  return d;
}

/// A fault injector scoped to a gate that does not exist: it never fires,
/// but its presence makes the engine take the full-solve path.
util::FaultInjector& inert_injector() {
  static util::FaultInjector inj;
  static const bool armed = [] {
    util::FaultSpec spec;
    spec.gate = std::numeric_limits<std::int32_t>::max();
    inj.add(spec);
    return true;
  }();
  (void)armed;
  return inj;
}

void expect_same_timing(const sta::StaResult& a, const sta::StaResult& b) {
  ASSERT_EQ(a.timing.size(), b.timing.size());
  for (std::size_t n = 0; n < a.timing.size(); ++n) {
    ASSERT_TRUE(sta::net_timing_identical(a.timing[n], b.timing[n]))
        << "net " << n;
  }
  EXPECT_EQ(bits(a.longest_path_delay), bits(b.longest_path_delay));
  EXPECT_EQ(a.passes, b.passes);
}

TEST(ThresholdStart, EngineMatchesFullSolvePathInEveryMode) {
  for (const sta::AnalysisMode mode :
       {sta::AnalysisMode::kBestCase, sta::AnalysisMode::kStaticDoubled,
        sta::AnalysisMode::kWorstCase, sta::AnalysisMode::kOneStep,
        sta::AnalysisMode::kIterative}) {
    sta::StaOptions opt;
    opt.mode = mode;
    opt.num_threads = 2;
    const sta::StaResult fast = design().run(opt);
    opt.fault_injector = &inert_injector();
    const sta::StaResult full = design().run(opt);
    SCOPED_TRACE(sta::mode_name(mode));
    expect_same_timing(fast, full);
    // Iterative calcs also drop through pass-to-pass reuse, which a run
    // with a fault injector never does.
    if (mode != sta::AnalysisMode::kIterative) {
      EXPECT_EQ(fast.waveform_calculations, full.waveform_calculations);
    }
  }
}

// When classification grounds every neighbour, the best-case waveform is
// the result, so the stopped solve is completed — as the same calc. The
// victim here is the output of the deepest gate, rewired to couple only to
// a primary input: the input's ramp has settled long before the victim's
// best-case crossing, so every arc of the gate classifies all grounded.
TEST(ThresholdStart, AllGroundedArcCompletesTheStoppedSolve) {
  sta::incremental::DesignEditor editor = design().make_editor();
  const netlist::Netlist& nl = editor.netlist();
  netlist::GateId deepest = 0;
  for (netlist::GateId g = 0; g < nl.num_gates(); ++g) {
    if (editor.dag().gate_level[g] > editor.dag().gate_level[deepest]) {
      deepest = g;
    }
  }
  const netlist::Gate& gate = nl.gate(deepest);
  const netlist::NetId victim = gate.pin_nets[gate.cell->output_pin()];
  while (!editor.parasitics().net(victim).couplings.empty()) {
    editor.remove_coupling(victim,
                           editor.parasitics().net(victim).couplings[0].neighbor);
  }
  editor.set_coupling(victim, nl.primary_inputs().front(), 5e-15);

  sta::StaOptions opt;
  opt.mode = sta::AnalysisMode::kOneStep;
  opt.num_threads = 2;
  const sta::StaResult fast = sta::run_sta(editor.view(), opt);
  const sta::NetTiming& t = fast.timing[victim];
  ASSERT_TRUE(t.rise.valid || t.fall.valid);
  // Every merged result is a best-case waveform: no coupling event fired.
  EXPECT_FALSE(t.rise.valid && t.rise.coupled);
  EXPECT_FALSE(t.fall.valid && t.fall.coupled);

  opt.fault_injector = &inert_injector();
  const sta::StaResult full = sta::run_sta(editor.view(), opt);
  expect_same_timing(fast, full);
  EXPECT_EQ(fast.waveform_calculations, full.waveform_calculations);
}

}  // namespace
}  // namespace xtalk
