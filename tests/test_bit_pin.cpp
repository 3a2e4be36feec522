// Bit-pin oracle for the delay-calculation kernel: FNV-1a hashes of the full
// per-net timing state and the endpoints, compared against constants
// recorded before the BE/Newton kernel was restructured (fused table lookup,
// forward PWL cursor). Any change in how the kernel evaluates its arithmetic
// — operand order, a fused multiply-add, a different PWL segment — moves at
// least one bit of one waveform point and fails here.
//
// The waveform-calc count of each run is pinned on its own: work the engine
// skips without changing a result (best-case solves stopped at the
// threshold, iterative pass-to-pass reuse) may move a count, never a timing
// hash. The timing hashes predate both; of the counts, only the iterative
// ones were re-pinned when pass-to-pass reuse landed.
//
// Covered: all five analysis modes on s27 and on one small generated
// circuit, one non-nominal MCMM V/T corner, and the simulated delay of the
// validated critical path (the MNA simulator shares the device-table
// kernel). The constants hold for x86-64 with SSE2 double arithmetic and
// -ffp-contract=off (pinned in src/CMakeLists.txt); a libm with different
// exp/log rounding changes the device tables and therefore every hash.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/crosstalk_sta.hpp"
#include "core/validation.hpp"
#include "netlist/circuit_generator.hpp"
#include "netlist/embedded_benchmarks.hpp"
#include "sta/mcmm.hpp"

namespace xtalk {
namespace {

class Fnv {
 public:
  void add(std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (x >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
  void add(bool x) { add(static_cast<std::uint64_t>(x)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void add_event(Fnv& h, const sta::NetEvent& e) {
  h.add(e.valid);
  if (!e.valid) return;
  h.add(static_cast<std::uint64_t>(e.waveform.size()));
  for (const util::PwlPoint& p : e.waveform.points()) {
    h.add(p.t);
    h.add(p.v);
  }
  h.add(e.arrival);
  h.add(e.start_time);
  h.add(e.settle_time);
  h.add(e.coupled);
  h.add(e.degraded);
  h.add(static_cast<std::uint64_t>(e.origin.gate));
  h.add(static_cast<std::uint64_t>(e.origin.from_net));
  h.add(e.origin.from_rising);
}

/// Everything a run reports about timing; the calc count is pinned apart.
std::uint64_t timing_hash(const sta::StaResult& r) {
  Fnv h;
  for (const sta::NetTiming& t : r.timing) {
    add_event(h, t.rise);
    add_event(h, t.fall);
  }
  for (const sta::EndpointArrival& e : r.endpoints) {
    h.add(static_cast<std::uint64_t>(e.net));
    h.add(e.rising);
    h.add(e.arrival);
  }
  h.add(r.longest_path_delay);
  h.add(static_cast<std::uint64_t>(r.passes));
  return h.value();
}

std::string hex(std::uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

constexpr sta::AnalysisMode kModes[] = {
    sta::AnalysisMode::kBestCase, sta::AnalysisMode::kStaticDoubled,
    sta::AnalysisMode::kWorstCase, sta::AnalysisMode::kOneStep,
    sta::AnalysisMode::kIterative};

sta::StaOptions options(sta::AnalysisMode mode) {
  sta::StaOptions o;
  o.mode = mode;
  o.num_threads = 2;
  return o;
}

const core::Design& s27() {
  static const core::Design d = core::Design::from_bench(netlist::s27_bench());
  return d;
}

const core::Design& generated() {
  static const core::Design d =
      core::Design::generate(netlist::scaled_spec("bitpin", 13, 260, 10));
  return d;
}

struct Pin {
  std::uint64_t timing;
  std::size_t calcs;
};

void expect_modes(const core::Design& d, const Pin (&pins)[5]) {
  for (std::size_t m = 0; m < std::size(kModes); ++m) {
    const sta::StaResult r = d.run(options(kModes[m]));
    EXPECT_EQ(hex(timing_hash(r)), hex(pins[m].timing))
        << sta::mode_name(kModes[m]);
    EXPECT_EQ(r.waveform_calculations, pins[m].calcs)
        << sta::mode_name(kModes[m]);
  }
}

TEST(BitPin, S27AllModes) {
  // Iterative calcs were 156 before pass-to-pass reuse.
  expect_modes(s27(), {{0x334ef24ee285117cull, 42},
                       {0x0d1300dc44655f3cull, 42},
                       {0xfa64212658744b58ull, 42},
                       {0x89a69d4a80a09fb1ull, 78},
                       {0xa8a164538b8fe9d2ull, 78}});
}

TEST(BitPin, GeneratedAllModes) {
  // Iterative calcs were 3971 before pass-to-pass reuse.
  expect_modes(generated(), {{0x7765c193d1392f71ull, 1048},
                             {0xdee14c86bed433a2ull, 1048},
                             {0xb3bac621800b3f7eull, 1048},
                             {0x9f739e49be6f16c1ull, 1986},
                             {0xbe6e6552c95e60e2ull, 2061}});
}

TEST(BitPin, SlowHotMcmmCorner) {
  sta::StaOptions o = options(sta::AnalysisMode::kOneStep);
  sta::Scenario slow;
  slow.name = "slow_hot";
  slow.vdd_scale = 0.9;
  slow.temperature_c = 125.0;
  o.scenarios = {slow};
  const sta::McmmResult m = generated().run_scenarios(o);
  ASSERT_EQ(m.runs.size(), 1u);
  EXPECT_EQ(hex(timing_hash(m.runs[0].result)), hex(0x0a22274db39795d5ull));
  EXPECT_EQ(m.runs[0].result.waveform_calculations, 1986u);
}

TEST(BitPin, ValidatedCriticalPathSimDelay) {
  const sta::StaResult r =
      generated().run(options(sta::AnalysisMode::kIterative));
  core::ValidationOptions vopt;
  vopt.policy = core::AggressorPolicy::kFromTiming;
  const core::ValidationResult v =
      core::validate_critical_path(generated(), r, vopt);
  Fnv h;
  h.add(v.sim_delay);
  h.add(v.sta_delay);
  h.add(static_cast<std::uint64_t>(v.sim_nodes));
  EXPECT_EQ(hex(h.value()), hex(0x42b6a4e618ee65bdull)) << v.sim_delay;
}

}  // namespace
}  // namespace xtalk
