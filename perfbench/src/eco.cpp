// `eco` workload: s38417_like at quarter scale in one IncrementalSta
// session (one-step mode), driven by a seeded sequence of edit batches,
// each followed by run(). Every batch writes beside reads: a few hundred
// waveform calcs against ~46k for a full run, so the incremental layer
// (overlay copy-on-write, relevelization, dirty sets, replay and the
// per-run O(design) scans) dominates and the kernels do little.
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "harness.hpp"
#include "netlist/cell_library.hpp"
#include "sta/incremental/incremental_sta.hpp"
#include "sta/incremental/oracle.hpp"

namespace perfbench {

using namespace xtalk;
using sta::incremental::DesignEditor;
using sta::incremental::IncrementalSta;

namespace {

constexpr std::size_t kEcoSites = 24;
/// Quarter scale (6k cells). At full scale a run took 40-45 s, most of it
/// in set-up and the closing from-scratch check, and its figures spread by
/// about 0.2 of their medians over ten seeds on the reference host.
constexpr double kEcoScale = 0.25;

/// Seeded edit batches over the workload's edit sites (see EditSite).
/// Moves: resize_gate, swap_cell, set_wire_cap on the gate's output net,
/// and set_coupling / remove_coupling on one of that net's coupling pairs.
class EditStream {
 public:
  EditStream(DesignEditor& editor, std::vector<EditSite> sites, std::uint64_t seed)
      : editor_(&editor), sites_(std::move(sites)), rng_(seed), cycle_(sites_.size(), rng_) {
    // Footprint-compatible alternatives: same function, pins and
    // sequential flag (e.g. INV_X1 <-> INV_X4).
    std::map<std::tuple<int, std::size_t, bool>, std::vector<const netlist::Cell*>>
        groups;
    for (const netlist::Cell* c : netlist::CellLibrary::half_micron().all_cells()) {
      groups[{static_cast<int>(c->func()), c->pins().size(), c->is_sequential()}]
          .push_back(c);
    }
    for (const auto& [key, cells] : groups) {
      for (const netlist::Cell* c : cells) {
        for (const netlist::Cell* other : cells) {
          if (other != c) swaps_[c].push_back(other);
        }
      }
    }
  }

  // cycle_ points at rng_.
  EditStream(const EditStream&) = delete;
  EditStream& operator=(const EditStream&) = delete;

  bool at_cycle_end() const { return cycle_.at_end(); }
  /// Index of the site the last batch edited.
  std::size_t site() const { return site_; }

  /// Applies one batch, the move of the next site of the cycle, and
  /// returns the time spent inside the editor call.
  double apply_batch() {
    site_ = cycle_.next();
    const EditSite& site = sites_[site_];
    const auto t = Clock::now();
    apply_move(site);
    return seconds_since(t);
  }

 private:
  void apply_move(const EditSite& site) {
    if (site.move == EditMove::kSwap) {
      const auto it = swaps_.find(editor_->netlist().gate(site.gate).cell);
      if (it != swaps_.end()) {
        editor_->swap_cell(site.gate, *it->second[rng_.below(it->second.size())]);
        return;
      }
    } else if (site.move == EditMove::kWireCap) {
      if (site.wire_cap > 0.0) {
        editor_->set_wire_cap(site.out, site.wire_cap * rng_.uniform(0.7, 1.5));
        return;
      }
    } else if (site.move != EditMove::kResize && site.partner != netlist::kNoNet) {
      // Removal alternates with re-adding the pair on later cycles.
      const bool present =
          editor_->parasitics().find_coupling(site.out, site.partner) != nullptr;
      if (present && site.move == EditMove::kRemoveCoupling) {
        editor_->remove_coupling(site.out, site.partner);
      } else {
        editor_->set_coupling(site.out, site.partner,
                              site.coupling * rng_.uniform(0.5, 1.5));
      }
      return;
    }
    // resize_gate, also the fallback when the site has no such move.
    editor_->resize_gate(site.gate, rng_.uniform(0.8, 1.3));
  }

  DesignEditor* editor_;
  std::vector<EditSite> sites_;
  SplitMix64 rng_;
  SeededCycle cycle_;
  std::size_t site_ = 0;
  /// Library cell -> its footprint-compatible alternatives.
  std::map<const netlist::Cell*, std::vector<const netlist::Cell*>> swaps_;
};

/// Times one batch: its edit and the session's run().
struct Batch {
  double edit_s = 0.0;
  double run_s = 0.0;
  sta::StaResult result;
};

Batch timed_batch(EditStream& stream, IncrementalSta& session) {
  Batch b;
  b.edit_s = stream.apply_batch();
  const auto t = Clock::now();
  b.result = session.run();
  b.run_s = seconds_since(t);
  return b;
}

void tally_batch(const Batch& b, const IncrementalSta& session,
                 IncrementalTally& inc) {
  ++inc.edits;
  inc.edit_s += b.edit_s;
  ++inc.runs;
  inc.run_s += b.run_s;
  inc.dirty_nets += session.stats().dirty_nets;
  inc.calcs += b.result.waveform_calculations;
  inc.gates_reused += b.result.gates_reused;
}

}  // namespace

Report run_eco(const Options& opt, Clock::time_point process_start) {
  Report rep;
  const netlist::GeneratorSpec spec =
      scaled_preset(netlist::s38417_like(), kEcoScale);
  const core::Design design = core::Design::generate(spec);
  DesignEditor editor = design.make_editor();
  IncrementalSta session(editor, base_options(sta::AnalysisMode::kOneStep, false));
  const sta::StaResult baseline = session.run();
  rep.setup_s = seconds_since(process_start);
  if (opt.setup_only) return rep;
  ++rep.attempted;
  if (!complete(baseline)) rep.fail("eco: baseline run incomplete");

  // Traced run: a second session on the same editor with metrics on
  // re-times every batch after the untraced one, so both see the same
  // edits and their results must agree bit for bit.
  std::unique_ptr<IncrementalSta> traced;
  if (opt.trace) {
    traced = std::make_unique<IncrementalSta>(
        editor, base_options(sta::AnalysisMode::kOneStep, true));
    traced->run();
  }

  EditStream stream(editor, pick_edit_sites(design, kEcoSites), opt.seed);
  EngineTally tally;
  IncrementalTally inc;
  double untraced_s = 0.0, traced_s = 0.0;
  const auto window = Clock::now();
  auto cycle_start = window;
  rep.work_by_site.resize(kEcoSites);
  std::size_t cycle_batches = 0;
  while (seconds_since(window) < opt.seconds || !stream.at_cycle_end()) {
    ++rep.attempted;
    ++cycle_batches;
    const Batch b = timed_batch(stream, session);
    ++rep.ops;
    rep.work_ms.add((b.edit_s + b.run_s) * 1e3);
    rep.work_by_site[stream.site()].add((b.edit_s + b.run_s) * 1e3);
    if (!complete(b.result)) rep.fail("eco: batch re-time incomplete");
    if (traced) {
      tally_batch(b, session, inc);
      const auto t = Clock::now();
      const sta::StaResult r = traced->run();
      traced_s += seconds_since(t);
      untraced_s += b.run_s;
      tally.add(r);
      inc.gates_evaluated += r.metrics.counter(sta::EngineCounter::kGatesEvaluated);
      const sta::incremental::EquivalenceReport eq =
          sta::incremental::compare_results(b.result, r);
      if (!eq.identical) rep.fail("eco: traced session differs: " + eq.mismatch);
    }
    if (stream.at_cycle_end()) {
      rep.rates.push_back(static_cast<double>(cycle_batches) /
                          seconds_since(cycle_start));
      cycle_start = Clock::now();
      cycle_batches = 0;
    }
  }
  rep.window_s = seconds_since(window);

  // Checkpoint, outside the timed window: one more batch, re-timed
  // incrementally and from scratch, compared bitwise.
  ++rep.attempted;
  stream.apply_batch();
  const sta::incremental::EquivalenceReport eq =
      sta::incremental::verify_incremental(editor, session, kThreads);
  if (!eq.identical) rep.fail("eco: incremental differs from scratch: " + eq.mismatch);

  rep.set_detail("eco_p50_ms", rep.work_ms.percentile(0.5), "ms");
  if (rep.work_ms.tail_supported(0.9)) {
    rep.set_detail("eco_p90_ms", rep.work_ms.percentile(0.9), "ms");
  }
  rep.set_detail("eco_batches", static_cast<double>(rep.work_ms.size()), "count");

  if (opt.trace) {
    probe_build_layers({spec}, rep);
    probe_device(opt.seed, rep);
    probe_delaycalc(design, opt.seed, rep);
    tally.write(rep);
    inc.write(rep);
    probe_mcmm_and_sim(rep);
    probe_service(opt.seed, rep);
    rep.set_layer("trace.overhead_share", traced_s / untraced_s - 1.0, "ratio");
  }
  return rep;
}

void probe_incremental(const core::Design& design, std::uint64_t seed,
                       Report& report) {
  DesignEditor editor = design.make_editor();
  IncrementalSta session(editor, base_options(sta::AnalysisMode::kOneStep, true));
  session.run();
  EditStream stream(editor, pick_edit_sites(design, kEcoSites), seed);
  IncrementalTally inc;
  for (int i = 0; i < 20; ++i) {
    const Batch b = timed_batch(stream, session);
    if (!complete(b.result)) report.fail("probe: ECO re-time incomplete");
    tally_batch(b, session, inc);
    inc.gates_evaluated +=
        b.result.metrics.counter(sta::EngineCounter::kGatesEvaluated);
  }
  inc.write(report);
}

}  // namespace perfbench
