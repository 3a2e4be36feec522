// Exact pass-to-pass reuse in iterative mode. A refinement pass copies a
// gate's previous-pass output when its fanin events are bitwise the previous
// pass's and every coupling classification, re-run from the stored t_bcs,
// picks bitwise the stored load. Results must stay bitwise those of an
// iterative run that evaluates every gate in every pass: a run with an inert
// fault injector, which never reuses.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "core/crosstalk_sta.hpp"
#include "netlist/circuit_generator.hpp"
#include "sta/incremental/editor.hpp"
#include "sta/incremental/incremental_sta.hpp"
#include "sta/incremental/oracle.hpp"
#include "util/fault_injection.hpp"

namespace xtalk::sta {
namespace {

const core::Design& design() {
  static const core::Design d =
      core::Design::generate(netlist::scaled_spec("reuse", 17, 300, 12));
  return d;
}

StaOptions iterative(int threads) {
  StaOptions o;
  o.mode = AnalysisMode::kIterative;
  o.num_threads = threads;
  return o;
}

/// Never fires (scoped to a gate that does not exist), but a run with a
/// fault injector evaluates every gate in every pass.
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

void expect_same_timing(const StaResult& a, const StaResult& b) {
  ASSERT_EQ(a.timing.size(), b.timing.size());
  for (std::size_t n = 0; n < a.timing.size(); ++n) {
    ASSERT_TRUE(net_timing_identical(a.timing[n], b.timing[n])) << "net " << n;
  }
  ASSERT_EQ(a.endpoints.size(), b.endpoints.size());
  for (std::size_t i = 0; i < a.endpoints.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.endpoints[i].arrival),
              std::bit_cast<std::uint64_t>(b.endpoints[i].arrival));
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.longest_path_delay),
            std::bit_cast<std::uint64_t>(b.longest_path_delay));
  EXPECT_EQ(a.passes, b.passes);
}

TEST(PassReuse, EveryGateIsEvaluatedOrReusedInEveryPass) {
  StaOptions opt = iterative(2);
  opt.collect_metrics = true;
  const StaResult r = design().run(opt);
  ASSERT_GE(r.passes, 2);
  ASSERT_EQ(r.metrics.passes.size(), static_cast<std::size_t>(r.passes));
  const std::uint64_t gates = design().netlist().num_gates();
  std::uint64_t reused = 0;
  for (const PassMetrics& p : r.metrics.passes) {
    SCOPED_TRACE(p.pass_index);
    EXPECT_EQ(p.gates_evaluated + p.gates_reused, gates);
    if (p.pass_index == 0) {
      EXPECT_EQ(p.gates_reused, 0u);  // nothing to copy from yet
    } else {
      EXPECT_GT(p.gates_reused, 0u);
    }
    reused += p.gates_reused;
  }
  EXPECT_EQ(r.gates_reused, reused);
}

TEST(PassReuse, BitwiseEqualToEvaluatingEveryGate) {
  for (const bool esperance : {false, true}) {
    SCOPED_TRACE(esperance ? "esperance" : "plain");
    StaOptions opt = iterative(2);
    opt.esperance = esperance;
    const StaResult fast = design().run(opt);
    opt.fault_injector = &inert_injector();
    const StaResult full = design().run(opt);
    expect_same_timing(fast, full);
    EXPECT_EQ(full.gates_reused, 0u);
    EXPECT_GT(fast.gates_reused, 0u);
    EXPECT_LT(fast.waveform_calculations, full.waveform_calculations);
  }
}

TEST(PassReuse, BitwiseAcrossThreadCounts) {
  const StaResult one = design().run(iterative(1));
  for (const int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    const StaResult many = design().run(iterative(threads));
    expect_same_timing(one, many);
    EXPECT_EQ(one.waveform_calculations, many.waveform_calculations);
    EXPECT_EQ(one.gates_reused, many.gates_reused);
  }
}

TEST(PassReuse, FaultInjectedRunReusesNothing) {
  // A gate-scoped fault fires deterministically; the injector counts BE
  // steps, so no evaluation of this run may be skipped.
  util::FaultInjector injector;
  util::FaultSpec spec;
  spec.kind = util::FaultKind::kNewtonDiverge;
  spec.gate = static_cast<std::int64_t>(design().netlist().num_gates() / 2);
  spec.count = 3;
  injector.add(spec);
  StaOptions opt = iterative(2);
  opt.fault_injector = &injector;
  const StaResult r = design().run(opt);
  EXPECT_GT(injector.fired(), 0u);
  ASSERT_GE(r.passes, 2);
  EXPECT_EQ(r.gates_reused, 0u);
}

TEST(PassReuse, IncrementalIterativeSessionMatchesScratch) {
  incremental::DesignEditor editor = design().make_editor();
  incremental::IncrementalSta session(editor, iterative(2));
  session.run();
  const netlist::Netlist& nl = editor.netlist();
  for (std::size_t batch = 0; batch < 2; ++batch) {
    // Resize one combinational gate and double one coupling cap.
    std::size_t skip = 5 + 7 * batch;
    for (netlist::GateId g = 0; g < nl.num_gates(); ++g) {
      if (nl.gate(g).cell->is_sequential() || skip-- > 0) continue;
      editor.resize_gate(g, batch == 0 ? 1.4 : 0.8);
      break;
    }
    const auto& pairs = editor.parasitics().coupling_pairs();
    const extract::CouplingCap c = pairs[(3 + 11 * batch) % pairs.size()];
    editor.set_coupling(c.net_a, c.net_b, c.cap * 2.0);

    const incremental::EquivalenceReport eq =
        incremental::verify_incremental(editor, session, 4);
    EXPECT_TRUE(eq.identical) << "batch " << batch << ": " << eq.mismatch;
    EXPECT_GT(session.stats().gates_reused, 0u);
  }
}

}  // namespace
}  // namespace xtalk::sta
