// Crash-recovery tests (DESIGN.md §15): kill the server at seeded
// durability boundaries — and with real SIGKILL — then prove the crash-only
// contract on the restarted process:
//
//   1. every ACKNOWLEDGED edit survives the restart, and re-timing the
//      resumed session is bitwise identical to a never-crashed oracle;
//   2. an edit whose ack never made it either vanishes atomically (torn
//      WAL tail) or is deduplicated on sequenced replay (durable-but-
//      unacked) — never half-applied, never double-applied;
//   3. a ResilientClient rides through the whole death via its resumption
//      token: reconnect, eco_resume, suffix replay — no full rebuild.
//
// The server runs in forked children (crash_harness.hpp); the oracle is a
// local DesignEditor + IncrementalSta over the identical generated design.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "core/crosstalk_sta.hpp"
#include "crash_harness.hpp"
#include "netlist/circuit_generator.hpp"
#include "service/client.hpp"
#include "service/retry.hpp"
#include "sta/incremental/incremental_sta.hpp"
#include "util/rng.hpp"

namespace xtalk::service {
namespace {

using testing::CrashHarness;
using testing::CrashHarnessOptions;
using util::CrashPoint;

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Small deterministic design: regenerating it (child and oracle alike)
/// always yields the identical netlist, so bitwise comparison is valid
/// across process boundaries.
const netlist::GeneratorSpec& crash_spec() {
  static const netlist::GeneratorSpec spec =
      netlist::scaled_spec("crash", 11, 60, 6);
  return spec;
}

core::Design& local_design() {
  static core::Design* design =
      new core::Design(core::Design::generate(crash_spec()));
  return *design;
}

/// Never-crashed oracle: apply `batches` to a fresh editor and re-time.
struct Mirror {
  Mirror()
      : editor(local_design().view()),
        sta(editor, RunSpec{}.to_options()) {}
  void apply(const std::vector<EcoOp>& ops) {
    for (const EcoOp& op : ops) {
      if (op.kind == EcoOp::Kind::kResizeGate) {
        editor.resize_gate(op.gate, op.value_a);
      } else {
        editor.set_wire_cap(op.net_a, op.value_a);
      }
    }
  }
  sta::incremental::DesignEditor editor;
  sta::incremental::IncrementalSta sta;
};

void expect_bitwise(const RunResultMsg& remote, const sta::StaResult& local,
                    const std::string& what) {
  EXPECT_TRUE(bits_equal(remote.longest_path_delay, local.longest_path_delay))
      << what << ": longest path diverged";
  ASSERT_EQ(remote.endpoints.size(), local.endpoints.size()) << what;
  for (std::size_t i = 0; i < local.endpoints.size(); ++i) {
    EXPECT_TRUE(
        bits_equal(remote.endpoints[i].arrival, local.endpoints[i].arrival))
        << what << ": endpoint " << i;
  }
}

std::vector<EcoOp> resize_batch(std::uint32_t gate, double factor) {
  EcoOp op;
  op.kind = EcoOp::Kind::kResizeGate;
  op.gate = gate;
  op.value_a = factor;
  return {op};
}

std::vector<EcoOp> cap_batch(std::uint32_t net, double cap) {
  EcoOp op;
  op.kind = EcoOp::Kind::kSetWireCap;
  op.net_a = net;
  op.value_a = cap;
  return {op};
}

RetryPolicy fast_policy(std::uint64_t seed = 1, int attempts = 4) {
  RetryPolicy p;
  p.max_attempts = attempts;
  p.base_backoff_ms = 1;
  p.max_backoff_ms = 20;
  p.seed = seed;
  p.read_timeout_ms = 10000;
  return p;
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/xtalk_crash_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    state_dir_ = tmpl;
  }
  void TearDown() override {
    const std::string cmd = "rm -rf '" + state_dir_ + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }

  CrashHarnessOptions options() const {
    CrashHarnessOptions opt;
    opt.spec = crash_spec();
    opt.state_dir = state_dir_;
    return opt;
  }

  std::string state_dir_;
};

// ---------------------------------------------------------------------------
// Seeded kill points, end to end through the resilient client
// ---------------------------------------------------------------------------

struct KillPointCase {
  CrashPoint point;
  // Crossing count before the _exit fires. Boot itself crosses
  // kSnapshotBeforeRename 3x (generation save, WAL compaction rewrite,
  // baseline persist), so that point arms at 4 = the first baseline
  // persisted while serving.
  int countdown;
  bool needs_full_run;  ///< the crossing needs a baseline-cached query
  const char* name;
};

// Without this, gtest prints the raw bytes of the struct, `name` pointer
// included, and gtest_discover_tests puts them in the test name: the name
// would change with the load address on every discovery run.
void PrintTo(const KillPointCase& kp, std::ostream* os) {
  *os << kp.name << " countdown=" << kp.countdown;
}

class CrashKillPoints : public CrashRecoveryTest,
                        public ::testing::WithParamInterface<KillPointCase> {};

TEST_P(CrashKillPoints, AcknowledgedEditsSurviveBitwise) {
  const KillPointCase kp = GetParam();
  CrashHarness harness(options());
  harness.start(kp.point, kp.countdown);
  ASSERT_TRUE(harness.wait_ready()) << kp.name << ": server never came up";

  ResilientClient client(harness.port(), fast_policy());
  Mirror mirror;
  int crashes = 0;
  auto on_crash = [&] {
    ++crashes;
    const int status = harness.wait_exit();
    ASSERT_TRUE(CrashHarness::crashed_as_planned(status))
        << kp.name << ": unexpected exit status " << status;
    harness.start();  // unarmed: recovery is the normal boot path
    ASSERT_TRUE(harness.wait_ready()) << kp.name << ": restart failed";
  };

  EcoHandle eco = client.eco_open(RunSpec{});
  ASSERT_NE(eco.token(), 0u) << kp.name << ": durable server must mint tokens";

  // The edits. A TransportError means the crash landed here; the batch is
  // already journaled, so after the restart the handle's next operation
  // resumes the session and replays it — no re-edit call.
  try {
    eco.edit(resize_batch(3, 1.7));
  } catch (const TransportError&) {
    on_crash();
  }
  mirror.apply(resize_batch(3, 1.7));
  try {
    eco.edit(cap_batch(9, 7e-15));
  } catch (const TransportError&) {
    on_crash();
  }
  mirror.apply(cap_batch(9, 7e-15));

  if (kp.needs_full_run) {
    // The first baseline-cached query computes + persists the memo
    // snapshot — the first kSnapshotBeforeRename crossing since boot.
    try {
      (void)client.query_endpoints(RunSpec{});
    } catch (const TransportError&) {
      on_crash();
    }
  }

  RunResultMsg remote;
  for (;;) {
    try {
      remote = eco.run();
      break;
    } catch (const TransportError&) {
      on_crash();
      if (crashes > 2) FAIL() << kp.name << ": crash loop";
    }
  }
  EXPECT_EQ(crashes, 1) << kp.name;
  EXPECT_GE(client.resilience().sessions_resumed, 1u)
      << kp.name << ": recovery must resume by token, not rebuild";
  expect_bitwise(remote, mirror.sta.run(), kp.name);

  // The crash left a complete tmp file with the rename pending: the
  // restarted server must load the *previous* snapshot (or none) and still
  // serve the baseline bitwise-identically.
  if (kp.needs_full_run) {
    const EndpointsMsg eps = client.query_endpoints(RunSpec{});
    const sta::StaResult clean =
        sta::run_sta(local_design().view(), RunSpec{}.to_options());
    EXPECT_TRUE(bits_equal(eps.longest_path_delay, clean.longest_path_delay))
        << kp.name << ": baseline after torn snapshot";
    ASSERT_EQ(eps.endpoints.size(), clean.endpoints.size());
    for (std::size_t i = 0; i < clean.endpoints.size(); ++i) {
      EXPECT_TRUE(
          bits_equal(eps.endpoints[i].arrival, clean.endpoints[i].arrival))
          << kp.name << ": baseline endpoint " << i;
    }
  }
  eco.close();
}

INSTANTIATE_TEST_SUITE_P(
    AllKillPoints, CrashKillPoints,
    ::testing::Values(
        // Appends cross: eco_open's session-open record is #1, the first
        // edit is #2 — die halfway through writing that edit (torn tail).
        KillPointCase{CrashPoint::kWalMidAppend, 2, false, "wal-mid-append"},
        // Die after the first edit is fsynced but before its ack frame.
        KillPointCase{CrashPoint::kWalAfterAppend, 1, false,
                      "wal-after-append"},
        // Die with the baseline snapshot's tmp file written, rename pending.
        KillPointCase{CrashPoint::kSnapshotBeforeRename, 4, true,
                      "snapshot-before-rename"},
        // Die inside the ECO re-timing run itself.
        KillPointCase{CrashPoint::kEcoRunMid, 1, false, "eco-run-mid"}),
    [](const ::testing::TestParamInfo<KillPointCase>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// The ack boundary, observed with a raw client (no retry layer)
// ---------------------------------------------------------------------------

TEST_F(CrashRecoveryTest, TornAppendVanishesAtomically) {
  CrashHarness harness(options());
  harness.start(CrashPoint::kWalMidAppend, /*countdown=*/2);
  ASSERT_TRUE(harness.wait_ready());

  std::uint64_t token = 0;
  {
    XtalkClient raw = XtalkClient::connect_tcp(harness.port());
    raw.set_read_timeout_ms(10000);
    const EcoOpenedMsg opened = raw.eco_open(RunSpec{});
    token = opened.token;
    ASSERT_NE(token, 0u);
    EXPECT_THROW(raw.eco_edit(opened.session_id, resize_batch(3, 1.7), 1),
                 TransportError);
  }
  ASSERT_TRUE(CrashHarness::crashed_as_planned(harness.wait_exit()));
  harness.start();
  ASSERT_TRUE(harness.wait_ready());

  // The torn edit record must be GONE — resume reports zero applied
  // batches and the re-timing equals the unedited oracle.
  XtalkClient raw = XtalkClient::connect_tcp(harness.port());
  raw.set_read_timeout_ms(10000);
  const EcoResumedMsg resumed = raw.eco_resume(token);
  EXPECT_EQ(resumed.applied_seq, 0u);
  Mirror untouched;
  expect_bitwise(raw.eco_run(resumed.session_id), untouched.sta.run(),
                 "resumed session before replay");

  // Sequenced replay lands the batch exactly once.
  EXPECT_EQ(raw.eco_edit(resumed.session_id, resize_batch(3, 1.7), 1), 1u);
  Mirror edited;
  edited.apply(resize_batch(3, 1.7));
  expect_bitwise(raw.eco_run(resumed.session_id), edited.sta.run(),
                 "replayed batch");
}

TEST_F(CrashRecoveryTest, DurableButUnackedBatchDeduplicatesOnReplay) {
  CrashHarness harness(options());
  harness.start(CrashPoint::kWalAfterAppend, /*countdown=*/1);
  ASSERT_TRUE(harness.wait_ready());

  std::uint64_t token = 0;
  {
    XtalkClient raw = XtalkClient::connect_tcp(harness.port());
    raw.set_read_timeout_ms(10000);
    const EcoOpenedMsg opened = raw.eco_open(RunSpec{});
    token = opened.token;
    // The append hits disk, then the server dies before the ack frame.
    EXPECT_THROW(raw.eco_edit(opened.session_id, resize_batch(3, 1.7), 1),
                 TransportError);
  }
  ASSERT_TRUE(CrashHarness::crashed_as_planned(harness.wait_exit()));
  harness.start();
  ASSERT_TRUE(harness.wait_ready());

  XtalkClient raw = XtalkClient::connect_tcp(harness.port());
  raw.set_read_timeout_ms(10000);
  const EcoResumedMsg resumed = raw.eco_resume(token);
  // Ack-implies-durable, not the converse: the unacked batch IS there.
  EXPECT_EQ(resumed.applied_seq, 1u);
  // A client that never saw the ack replays it — the sequence number makes
  // the replay a no-op ack instead of a double application.
  EXPECT_EQ(raw.eco_edit(resumed.session_id, resize_batch(3, 1.7), 1), 1u);
  Mirror once;
  once.apply(resize_batch(3, 1.7));
  expect_bitwise(raw.eco_run(resumed.session_id), once.sta.run(),
                 "deduplicated batch applied exactly once");
}

// ---------------------------------------------------------------------------
// Real SIGKILL + token resume through the resilient client
// ---------------------------------------------------------------------------

TEST_F(CrashRecoveryTest, ResilientClientResumesAcrossSigkillRestart) {
  CrashHarness harness(options());
  harness.start();
  ASSERT_TRUE(harness.wait_ready());

  ResilientClient client(harness.port(), fast_policy());
  Mirror mirror;
  EcoHandle eco = client.eco_open(RunSpec{});
  ASSERT_NE(eco.token(), 0u);
  EXPECT_EQ(eco.edit(resize_batch(5, 1.4)), 1u);
  mirror.apply(resize_batch(5, 1.4));

  harness.kill9();  // a real kill -9, not a seeded exit
  harness.start();
  ASSERT_TRUE(harness.wait_ready());

  // The next edit reconnects, presents the token, and replays only itself.
  EXPECT_EQ(eco.edit(cap_batch(2, 5e-15)), 1u);
  mirror.apply(cap_batch(2, 5e-15));
  EXPECT_EQ(client.resilience().sessions_resumed, 1u);
  EXPECT_EQ(client.resilience().sessions_recovered, 0u)
      << "token resume must not fall back to a full rebuild";
  expect_bitwise(eco.run(), mirror.sta.run(), "post-sigkill resume");

  // Restart observability: the second boot bumped the generation.
  const StatsMsg stats = client.server_stats();
  EXPECT_EQ(stats.restart_generation, 2u);
  EXPECT_GE(stats.wal_records, 2u);  // open + at least one edit
  EXPECT_GE(stats.eco_sessions_resumed, 1u);
  eco.close();
}

// ---------------------------------------------------------------------------
// Randomized crash-point sweep
// ---------------------------------------------------------------------------

// One seed = a random edit/run script against a randomly seeded kill point.
// Whatever the interleaving, the final re-timing must match the oracle
// bitwise.
TEST_F(CrashRecoveryTest, RandomizedCrashPointSweep) {
  int seeds = 100;
  if (const char* env = std::getenv("XTALK_CRASH_SEEDS")) {
    seeds = std::max(1, std::atoi(env));
  }
  const std::size_t num_gates = local_design().view().netlist->num_gates();
  const std::size_t num_nets = local_design().view().netlist->num_nets();

  int crashes_total = 0;
  for (int s = 0; s < seeds; ++s) {
    util::Rng rng(0xDEAD0000ULL + static_cast<std::uint64_t>(s) * 6271);

    // Fresh state dir per seed: every run starts from generation 1.
    char tmpl[] = "/tmp/xtalk_crash_seed_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::string seed_dir = tmpl;

    CrashHarnessOptions opt;
    opt.spec = crash_spec();
    opt.state_dir = seed_dir;
    CrashHarness harness(opt);

    // Arm a random kill point. Countdowns below each point's boot-crossing
    // floor would kill the child before it serves, so floors differ.
    static const CrashPoint kPoints[] = {
        CrashPoint::kWalMidAppend, CrashPoint::kWalAfterAppend,
        CrashPoint::kSnapshotBeforeRename, CrashPoint::kEcoRunMid};
    const CrashPoint point = kPoints[rng.next_below(4)];
    const int countdown =
        point == CrashPoint::kSnapshotBeforeRename
            ? 4
            : 1 + static_cast<int>(rng.next_below(3));
    harness.start(point, countdown);
    ASSERT_TRUE(harness.wait_ready()) << "seed " << s;

    ResilientClient client(harness.port(), fast_policy(s + 1));
    Mirror mirror;
    int crashes = 0;
    bool gave_up = false;
    auto on_crash = [&] {
      ++crashes;
      const int status = harness.wait_exit();
      ASSERT_TRUE(CrashHarness::crashed_as_planned(status))
          << "seed " << s << ": exit status " << status;
      harness.start();
      ASSERT_TRUE(harness.wait_ready()) << "seed " << s;
    };

    // Even eco_open can be the kill site: the session-open WAL record is
    // itself an append crossing.
    EcoHandle eco;
    for (int attempt = 0;; ++attempt) {
      try {
        eco = client.eco_open(RunSpec{});
        break;
      } catch (const TransportError&) {
        on_crash();
        ASSERT_LT(attempt, 3) << "seed " << s << ": crash loop at open";
      }
    }
    const int batches = 1 + static_cast<int>(rng.next_below(3));
    for (int b = 0; b < batches && !gave_up; ++b) {
      std::vector<EcoOp> ops;
      if (rng.next_bool(0.5)) {
        ops = resize_batch(
            static_cast<std::uint32_t>(rng.next_below(num_gates)),
            1.0 + rng.next_double());
      } else {
        ops = cap_batch(static_cast<std::uint32_t>(rng.next_below(num_nets)),
                        1e-15 * (1.0 + rng.next_double() * 9.0));
      }
      try {
        eco.edit(ops);
      } catch (const TransportError&) {
        on_crash();
      }
      mirror.apply(ops);  // journaled either way — the oracle includes it
      if (rng.next_bool(0.3)) {
        try {
          // Baseline-cached query: may cross the snapshot persist point.
          (void)client.query_endpoints(RunSpec{});
        } catch (const TransportError&) {
          on_crash();
        }
      }
    }

    RunResultMsg remote;
    for (int attempt = 0;; ++attempt) {
      try {
        remote = eco.run();
        break;
      } catch (const TransportError&) {
        on_crash();
        ASSERT_LT(attempt, 3) << "seed " << s << ": crash loop";
      }
    }
    expect_bitwise(remote, mirror.sta.run(),
                   "seed " + std::to_string(s));
    crashes_total += crashes;
    eco.close();
    harness.kill9();
    const std::string cmd = "rm -rf '" + seed_dir + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
    if (::testing::Test::HasFailure()) break;
  }
  // The sweep must actually exercise deaths, not quietly dodge them all.
  EXPECT_GT(crashes_total, seeds / 4)
      << "kill points barely fired; countdown floors are probably wrong";
}

}  // namespace
}  // namespace xtalk::service
