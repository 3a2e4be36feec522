// `service` workload: an in-process XtalkServer on the ~1.2k-cell s38417
// stand-in, driven over loopback TCP by two closed-loop clients (EDA
// scripts wait for each reply). The mix is slack and endpoint queries
// answered from the memoized baseline, ECO edit+run round trips, and
// budget-capped full runs. The protocol, wire, socket event loop,
// admission and session cache are measured nowhere else, and queries do
// no kernel work at all.
#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "harness.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/session.hpp"
#include "sta/incremental/incremental_sta.hpp"

namespace perfbench {

using namespace xtalk;

namespace {

constexpr std::size_t kClients = 2;
constexpr std::size_t kEcoSites = 24;
constexpr std::uint64_t kFullRunCap = 20000;
/// Worker threads of each executor's pool; the local mirror uses the same
/// count, so service.overhead_ms compares like with like.
constexpr int kPoolThreads = 1;

service::ServiceConfig server_config() {
  service::ServiceConfig c;
  c.tcp_port = 0;  // loopback, ephemeral port
  c.num_executors = 2;
  c.pool_threads = kPoolThreads;
  c.admission.soft_queue = 2;
  c.admission.overload_max_calcs = kFullRunCap / 2;
  return c;
}

/// One ECO round trip of client 0, kept for the mirror replay.
struct Recorded {
  std::vector<service::EcoOp> ops;
  double round_trip_ms = 0.0;
  service::RunResultMsg reply;
};

/// What one client saw during one phase.
struct ClientLog {
  Samples all, query, eco;
  std::vector<Samples> eco_by_site;  ///< eco, split by edit site
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Recorded> batches;  ///< client 0 only

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 4) failures.push_back(why);
  }
};

bool same_endpoints(const std::vector<service::WireEndpoint>& remote,
                    const std::vector<sta::EndpointArrival>& local) {
  if (remote.size() != local.size()) return false;
  for (std::size_t i = 0; i < local.size(); ++i) {
    if (remote[i].net != local[i].net || remote[i].rising != local[i].rising ||
        !same_bits(remote[i].arrival, local[i].arrival)) {
      return false;
    }
  }
  return true;
}

/// Server, clients and the local oracle baseline.
class Fixture {
 public:
  explicit Fixture(bool traced)
      : spec_(service_spec()),
        session_(core::Design::generate(spec_), spec_.name),
        server_(session_, server_config()),
        sites_(pick_edit_sites(session_.design(), kEcoSites)) {
    server_.start();
    run_spec_.mode = sta::AnalysisMode::kOneStep;
    traced_spec_ = run_spec_;
    traced_spec_.collect_metrics = true;
    sta::StaOptions o = run_spec_.to_options();
    o.num_threads = kThreads;
    local_ = sta::run_sta(session_.view(), o);
    for (std::size_t c = 0; c < kClients; ++c) {
      clients_.push_back(std::make_unique<service::XtalkClient>(
          service::XtalkClient::connect_tcp(server_.port())));
      service::XtalkClient& cl = *clients_.back();
      cl.set_read_timeout_ms(60000);
      cl.hello();
      cl.query_endpoints(run_spec_);  // fills the baseline cache
      sessions_.push_back(open_warm(cl, run_spec_));
      if (traced) traced_sessions_.push_back(open_warm(cl, traced_spec_));
    }
  }

  ~Fixture() { server_.stop(); }

  /// The uncapped service run must equal the local run bit for bit.
  bool full_run_oracle() {
    const service::RunResultMsg m = clients_[0]->run_sta(run_spec_);
    return same_bits(m.longest_path_delay, local_.longest_path_delay) &&
           same_endpoints(m.endpoints, local_.endpoints);
  }

  /// Runs both clients closed-loop until `seconds` have passed.
  std::vector<ClientLog> phase(double seconds, bool traced, std::uint64_t seed) {
    std::vector<ClientLog> logs(kClients);
    std::vector<std::thread> threads;
    const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(seconds));
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          drive(c, traced, SplitMix64(seed * kClients + c), deadline, logs[c]);
        } catch (const std::exception& e) {
          logs[c].fail(std::string("client: ") + e.what());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return logs;
  }

  service::StatsMsg stats() { return clients_[0]->stats(); }
  const service::DesignSession& session() const { return session_; }
  const service::RunSpec& spec(bool traced) const {
    return traced ? traced_spec_ : run_spec_;
  }

 private:
  /// A server ECO session and which of the sites' coupling pairs it has.
  struct EcoState {
    std::uint32_t id = 0;
    std::vector<char> coupled;
  };

  EcoState open_warm(service::XtalkClient& cl, const service::RunSpec& spec) {
    EcoState s;
    s.id = cl.eco_open(spec).session_id;
    cl.eco_run(s.id);  // the first run of a session is a full run
    for (const EditSite& site : sites_) {
      s.coupled.push_back(site.partner != netlist::kNoNet);
    }
    return s;
  }

  /// The site's move as a protocol op (the protocol has no cell swap, so
  /// swap sites resize).
  static service::EcoOp eco_op(const EditSite& site, char* coupled,
                               SplitMix64& rng) {
    service::EcoOp op;
    if (site.move == EditMove::kWireCap && site.wire_cap > 0.0) {
      op.kind = service::EcoOp::Kind::kSetWireCap;
      op.net_a = site.out;
      op.value_a = site.wire_cap * rng.uniform(0.7, 1.5);
    } else if ((site.move == EditMove::kSetCoupling ||
                site.move == EditMove::kRemoveCoupling) &&
               site.partner != netlist::kNoNet) {
      op.net_a = site.out;
      op.net_b = site.partner;
      if (*coupled && site.move == EditMove::kRemoveCoupling) {
        op.kind = service::EcoOp::Kind::kRemoveCoupling;
        *coupled = 0;
      } else {
        op.kind = service::EcoOp::Kind::kSetCoupling;
        op.value_a = site.coupling * rng.uniform(0.5, 1.5);
        *coupled = 1;
      }
    } else {
      op.kind = service::EcoOp::Kind::kResizeGate;
      op.gate = site.gate;
      op.value_a = rng.uniform(0.8, 1.3);
    }
    return op;
  }

  void drive(std::size_t c, bool traced, SplitMix64 rng, Clock::time_point deadline,
             ClientLog& log) {
    service::XtalkClient& cl = *clients_[c];
    const service::RunSpec& spec = traced ? traced_spec_ : run_spec_;
    EcoState& eco = traced ? traced_sessions_[c] : sessions_[c];
    SeededCycle cycle(sites_.size(), rng);
    log.eco_by_site.resize(sites_.size());
    // The mix is dealt from shuffled decks of 100 requests rather than
    // rolled per request, so every run carries the same share of costly
    // full runs and ECO round trips (rolled, the rate spread by 0.2
    // between seeds).
    SeededCycle deck(100, rng);
    while (Clock::now() < deadline) {
      const std::size_t card = deck.next();
      ++log.attempted;
      const auto t0 = Clock::now();
      if (card < 2) {
        service::RunSpec capped = spec;
        capped.max_waveform_calcs = kFullRunCap;
        const service::RunResultMsg m = cl.run_sta(capped);
        log.all.add(ms_since(t0));
        if (m.budget_exhausted ? !m.conservative
                               : !(same_bits(m.longest_path_delay,
                                             local_.longest_path_delay) &&
                                   same_endpoints(m.endpoints, local_.endpoints))) {
          log.fail("full run differs from the local run");
        }
      } else if (card < 25) {
        const std::size_t i = cycle.next();
        std::vector<service::EcoOp> ops{eco_op(sites_[i], &eco.coupled[i], rng)};
        cl.eco_edit(eco.id, ops);
        service::RunResultMsg m = cl.eco_run(eco.id);
        const double ms = ms_since(t0);  // the reply, before any mirror work
        log.all.add(ms);
        log.eco.add(ms);
        log.eco_by_site[i].add(ms);
        if (!m.budget_exhausted &&
            !(std::isfinite(m.longest_path_delay) && m.longest_path_delay > 0.0)) {
          log.fail("ECO run returned no delay");
        }
        if (m.budget_exhausted && !m.conservative) {
          log.fail("truncated ECO run not conservative");
        }
        if (c == 0) log.batches.push_back({std::move(ops), ms, std::move(m)});
      } else if (card < 40) {
        const service::EndpointsMsg m = cl.query_endpoints(spec);
        const double ms = ms_since(t0);
        log.all.add(ms);
        log.query.add(ms);
        if (!same_endpoints(m.endpoints, local_.endpoints)) {
          log.fail("endpoint query differs from the local baseline");
        }
      } else {
        const sta::EndpointArrival& e =
            local_.endpoints[rng.below(local_.endpoints.size())];
        service::SlackQueryMsg q;
        q.spec = spec;
        q.net = e.net;
        q.rising = e.rising;
        q.required_time = 5e-9;
        const service::SlackMsg m = cl.query_slack(q);
        const double ms = ms_since(t0);
        log.all.add(ms);
        log.query.add(ms);
        if (!m.valid || !same_bits(m.arrival, e.arrival)) {
          log.fail("slack query differs from the local baseline");
        }
      }
    }
  }

  netlist::GeneratorSpec spec_;
  service::DesignSession session_;
  service::XtalkServer server_;
  service::RunSpec run_spec_;
  service::RunSpec traced_spec_;
  sta::StaResult local_;
  std::vector<std::unique_ptr<service::XtalkClient>> clients_;
  std::vector<EditSite> sites_;
  std::vector<EcoState> sessions_;
  std::vector<EcoState> traced_sessions_;
};

/// Replays client 0's ECO batches on a local editor and compares every
/// untruncated reply bit for bit. With `traced`, also fills the engine,
/// incremental and service-overhead tallies.
void mirror_replay(const Fixture& f, const std::vector<Recorded>& batches,
                   bool traced, Report& rep, EngineTally* tally,
                   IncrementalTally* inc, ServiceTally* svc) {
  sta::incremental::DesignEditor editor(f.session().view());
  sta::StaOptions o = f.spec(traced).to_options();
  o.num_threads = kPoolThreads;
  sta::incremental::IncrementalSta mirror(editor, o);
  mirror.run();
  for (const Recorded& b : batches) {
    auto t = Clock::now();
    for (const service::EcoOp& op : b.ops) {
      switch (op.kind) {
        case service::EcoOp::Kind::kResizeGate:
          editor.resize_gate(op.gate, op.value_a);
          break;
        case service::EcoOp::Kind::kSetWireCap:
          editor.set_wire_cap(op.net_a, op.value_a);
          break;
        case service::EcoOp::Kind::kRemoveCoupling:
          editor.remove_coupling(op.net_a, op.net_b);
          break;
        default:
          editor.set_coupling(op.net_a, op.net_b, op.value_a);
          break;
      }
    }
    const double edit_s = seconds_since(t);
    t = Clock::now();
    const sta::StaResult local = mirror.run();
    const double run_s = seconds_since(t);
    if (!b.reply.budget_exhausted &&
        !(same_bits(b.reply.longest_path_delay, local.longest_path_delay) &&
          same_endpoints(b.reply.endpoints, local.endpoints))) {
      rep.fail("service ECO run differs from the local mirror");
    }
    if (traced) {
      tally->add(local);
      inc->edits += b.ops.size();
      inc->edit_s += edit_s;
      ++inc->runs;
      inc->run_s += run_s;
      inc->dirty_nets += mirror.stats().dirty_nets;
      inc->calcs += local.waveform_calculations;
      inc->gates_reused += local.gates_reused;
      inc->gates_evaluated +=
          local.metrics.counter(sta::EngineCounter::kGatesEvaluated);
      svc->overhead_ms_sum += b.round_trip_ms - run_s * 1e3;
      ++svc->overhead_samples;
    }
  }
}

void merge(const std::vector<ClientLog>& logs, Report& rep, Samples* all,
           Samples* query, Samples* eco, std::vector<Samples>* eco_sites) {
  for (const ClientLog& l : logs) {
    all->append(l.all);
    query->append(l.query);
    eco->append(l.eco);
    eco_sites->resize(std::max(eco_sites->size(), l.eco_by_site.size()));
    for (std::size_t i = 0; i < l.eco_by_site.size(); ++i) {
      (*eco_sites)[i].append(l.eco_by_site[i]);
    }
    rep.attempted += l.attempted;
    rep.failed += l.failed;
    for (const std::string& w : l.failures) {
      if (rep.failures.size() < 8) rep.failures.push_back(w);
    }
  }
}

void write_service_stats(Fixture& f, ServiceTally& svc, Report& rep) {
  const service::StatsMsg s = f.stats();
  svc.queue_peak = s.queue_peak;
  svc.truncated = s.requests_truncated;
  svc.degraded_admissions = s.requests_degraded_admission;
  svc.bytes = s.bytes_in + s.bytes_out;
  svc.requests = s.requests_total;
  svc.write(rep);
}

}  // namespace

Report run_service(const Options& opt, Clock::time_point process_start) {
  Report rep;
  Fixture f(opt.trace);
  rep.setup_s = seconds_since(process_start);
  if (opt.setup_only) return rep;
  ++rep.attempted;
  if (!f.full_run_oracle()) rep.fail("service full run differs from the local run");

  Samples all, query, eco;
  const auto window = Clock::now();
  if (!opt.trace) {
    const std::vector<ClientLog> logs = f.phase(opt.seconds, false, opt.seed);
    rep.window_s = seconds_since(window);
    merge(logs, rep, &all, &query, &eco, &rep.work_by_site);
    mirror_replay(f, logs[0].batches, false, rep, nullptr, nullptr, nullptr);
  } else {
    // Half the window untraced, half with metrics on, same mix.
    const auto t0 = Clock::now();
    const std::vector<ClientLog> plain = f.phase(opt.seconds / 2, false, opt.seed);
    const double plain_s = seconds_since(t0);
    const auto t1 = Clock::now();
    const std::vector<ClientLog> traced = f.phase(opt.seconds / 2, true, opt.seed + 1);
    const double traced_s = seconds_since(t1);
    rep.window_s = seconds_since(window);
    Samples plain_all, unused_q, unused_e;
    std::vector<Samples> unused_sites;
    merge(plain, rep, &plain_all, &unused_q, &unused_e, &unused_sites);
    merge(traced, rep, &all, &query, &eco, &rep.work_by_site);
    mirror_replay(f, plain[0].batches, false, rep, nullptr, nullptr, nullptr);
    EngineTally tally;
    IncrementalTally inc;
    ServiceTally svc;
    mirror_replay(f, traced[0].batches, true, rep, &tally, &inc, &svc);
    write_service_stats(f, svc, rep);

    probe_build_layers({service_spec()}, rep);
    probe_device(opt.seed, rep);
    probe_delaycalc(f.session().design(), opt.seed, rep);
    tally.write(rep);
    inc.write(rep);
    probe_mcmm_and_sim(rep);
    // Time per request, traced against untraced.
    const double plain_per = plain_s / static_cast<double>(plain_all.size());
    const double traced_per = traced_s / static_cast<double>(all.size());
    rep.set_layer("trace.overhead_share", traced_per / plain_per - 1.0, "ratio");
    all.append(plain_all);
  }
  rep.ops = all.size();
  rep.rates = {static_cast<double>(all.size()) / rep.window_s};
  rep.work_ms = eco;
  rep.set_detail("svc_rps", rep.rates[0], "1/s");
  rep.set_detail("svc_query_p50_ms", query.percentile(0.5), "ms");
  if (query.tail_supported(0.9)) {
    rep.set_detail("svc_query_p90_ms", query.percentile(0.9), "ms");
  }
  rep.set_detail("svc_eco_p50_ms", eco.percentile(0.5), "ms");
  rep.set_detail("svc_requests", static_cast<double>(all.size()), "count");
  return rep;
}

void probe_service(std::uint64_t seed, Report& report) {
  Fixture f(true);
  const std::vector<ClientLog> logs = f.phase(2.0, true, seed);
  Report scratch;
  Samples all, query, eco;
  std::vector<Samples> eco_sites;
  merge(logs, scratch, &all, &query, &eco, &eco_sites);
  EngineTally tally;
  IncrementalTally inc;
  ServiceTally svc;
  mirror_replay(f, logs[0].batches, true, scratch, &tally, &inc, &svc);
  write_service_stats(f, svc, report);
  report.attempted += scratch.attempted;
  report.failed += scratch.failed;
  report.failures.insert(report.failures.end(), scratch.failures.begin(),
                         scratch.failures.end());
}

}  // namespace perfbench
