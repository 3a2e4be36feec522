#include "delaycalc/arc_delay.hpp"

namespace xtalk::delaycalc {

const std::vector<StagePath>& ArcScratch::paths(const netlist::Cell& cell,
                                                std::size_t pin) {
  const auto key = std::make_pair(&cell, pin);
  auto it = paths_.find(key);
  if (it == paths_.end()) {
    it = paths_.emplace(key, enumerate_paths(cell, pin)).first;
  }
  return it->second;
}

const CollapsedStage& ArcScratch::collapsed(
    const netlist::Cell& cell, std::size_t stage_index, std::size_t input,
    const device::DeviceTableSet& tables) {
  const auto key = std::make_tuple(&cell, stage_index, input);
  auto it = collapsed_.find(key);
  if (it == collapsed_.end()) {
    const netlist::Stage& stage = cell.stages()[stage_index];
    it = collapsed_
             .emplace(key,
                      collapse_dc(stage, sensitize(stage, input), tables))
             .first;
  }
  return it->second;
}

template <typename Result, typename LastHop>
std::vector<Result> ArcDelayCalculator::solve_paths(
    const netlist::Cell& cell, std::size_t input_pin, bool input_rising,
    const util::Pwl& input_waveform, const OutputLoad& load,
    const IntegrationOptions& options, ArcScratch* scratch,
    const util::DiagHandle* diag, LastHop last_hop) const {
  const device::Technology& tech = tables_->tech();
  std::vector<Result> results;

  std::vector<StagePath> local_paths;
  const std::vector<StagePath>* paths;
  if (scratch != nullptr) {
    paths = &scratch->paths(cell, input_pin);
  } else {
    local_paths = enumerate_paths(cell, input_pin);
    paths = &local_paths;
  }

  for (const StagePath& path : *paths) {
    util::Pwl wave = input_waveform;
    bool dir = input_rising;
    Result r;
    for (std::size_t hop_idx = 0; hop_idx < path.hops.size(); ++hop_idx) {
      const StagePath::Hop& hop = path.hops[hop_idx];
      const netlist::Stage& stage = cell.stages()[hop.stage];
      const bool last = hop_idx + 1 == path.hops.size();

      CollapsedStage col;
      if (scratch != nullptr) {
        col = scratch->collapsed(cell, hop.stage, hop.input, *tables_);
      } else {
        col = collapse_dc(stage, sensitize(stage, hop.input), *tables_);
      }

      StageDrive drive;
      drive.wn_eq = col.wn_eq;
      drive.wp_eq = col.wp_eq;
      drive.vin = &wave;
      drive.output_rising = !dir;  // complementary stages invert

      OutputLoad stage_load;
      if (last) {
        stage_load = load;
        // The driver's own drain junctions load the output too.
        stage_load.c_passive += cell.output_parasitic_cap();
      } else {
        stage_load.c_passive = stage_output_cap(cell, hop.stage, tech);
        stage_load.c_active = 0.0;
      }
      // Internal stack nodes between the switching device and the output
      // swing with it — in the driving network (charged behind the
      // switching device) and in the opposing network (still connected to
      // the output through its ON side devices). The scalar collapse
      // cannot see them, so lump their junction cap onto the output.
      stage_load.c_passive +=
          swinging_internal_cap(stage, hop.input, drive.output_rising, tech) +
          swinging_internal_cap(stage, hop.input, !drive.output_rising, tech);

      if (last) {
        r.output_rising = drive.output_rising;
        last_hop(drive, stage_load, r);
        break;
      }
      WaveformResult wr =
          solve_stage_waveform(*tables_, drive, stage_load, options, diag);
      wave = std::move(wr.waveform);
      r.degraded = r.degraded || wr.degraded;
      r.be_steps += wr.be_steps;
      r.newton_iters += wr.newton_iters;
      r.fallback_steps += static_cast<std::uint64_t>(wr.fallback_steps);
      dir = !dir;
    }
    results.push_back(std::move(r));
  }
  return results;
}

std::vector<ArcResult> ArcDelayCalculator::compute(
    const netlist::Cell& cell, std::size_t input_pin, bool input_rising,
    const util::Pwl& input_waveform, const OutputLoad& load,
    const IntegrationOptions& options, ArcScratch* scratch,
    const util::DiagHandle* diag) const {
  return solve_paths<ArcResult>(
      cell, input_pin, input_rising, input_waveform, load, options, scratch,
      diag,
      [&](const StageDrive& drive, const OutputLoad& stage_load,
          ArcResult& r) {
        WaveformResult wr =
            solve_stage_waveform(*tables_, drive, stage_load, options, diag);
        r.waveform = std::move(wr.waveform);
        r.settle_time = wr.settle_time;
        r.coupled = wr.coupled;
        r.degraded = r.degraded || wr.degraded;
        r.be_steps += wr.be_steps;
        r.newton_iters += wr.newton_iters;
        r.fallback_steps += static_cast<std::uint64_t>(wr.fallback_steps);
      });
}

std::vector<ArcStart> ArcDelayCalculator::starts(
    const netlist::Cell& cell, std::size_t input_pin, bool input_rising,
    const util::Pwl& input_waveform, const OutputLoad& load,
    const IntegrationOptions& options, ArcScratch* scratch,
    const util::DiagHandle* diag) const {
  return solve_paths<ArcStart>(
      cell, input_pin, input_rising, input_waveform, load, options, scratch,
      diag,
      [&](const StageDrive& drive, const OutputLoad& stage_load,
          ArcStart& r) {
        const StageStart st =
            solve_stage_start(*tables_, drive, stage_load, options, diag);
        r.t_start = st.t_start;
        r.degraded = r.degraded || st.degraded;
        r.be_steps += st.be_steps;
        r.newton_iters += st.newton_iters;
        r.fallback_steps += static_cast<std::uint64_t>(st.fallback_steps);
      });
}

}  // namespace xtalk::delaycalc
