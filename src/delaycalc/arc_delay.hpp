// Cell timing-arc evaluation: input-pin waveform in, output waveform out.
//
// Chains the cell's stages along every pin-to-output stage path (one for
// simple cells, several for XOR-class cells), collapsing and integrating
// each stage. Internal stage outputs carry their topological node
// capacitance and never couple; the paper's coupling model applies to the
// final output stage, whose load is supplied by the caller.
#pragma once

#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "delaycalc/stage.hpp"
#include "delaycalc/waveform_calc.hpp"
#include "netlist/cell_library.hpp"

namespace xtalk::delaycalc {

struct ArcResult {
  bool output_rising = true;
  util::Pwl waveform;        ///< at the cell output, absolute time
  double settle_time = 0.0;  ///< when the output stopped moving
  bool coupled = false;      ///< the active coupling event fired
  bool degraded = false;     ///< any stage hop took the solver fallback chain
  // Solver work summed over the stage hops of this path (metrics layer).
  std::uint64_t be_steps = 0;
  std::uint64_t newton_iters = 0;
  std::uint64_t fallback_steps = 0;
};

/// Where one stage path's output first reaches the model threshold: bitwise
/// the `waveform.front().t` and `degraded` of the matching compute() result
/// (see solve_stage_start for the one exception), and never a waveform.
struct ArcStart {
  bool output_rising = true;
  double t_start = 0.0;
  bool degraded = false;
  std::uint64_t be_steps = 0;
  std::uint64_t newton_iters = 0;
  std::uint64_t fallback_steps = 0;
};

/// Reusable per-thread scratch for arc evaluation. Path enumeration and
/// stage collapse are pure functions of the cell structure (and the fixed
/// device tables), so they are memoized here instead of being re-derived —
/// and re-allocated — for every waveform calculation. The calculator itself
/// stays immutable; each engine thread owns one ArcScratch, which keeps the
/// parallel pass free of shared mutable state.
class ArcScratch {
 public:
  /// Memoized enumerate_paths(cell, pin).
  const std::vector<StagePath>& paths(const netlist::Cell& cell,
                                      std::size_t pin);
  /// Memoized collapse_dc(sensitize()) for one stage hop.
  const CollapsedStage& collapsed(const netlist::Cell& cell,
                                  std::size_t stage_index, std::size_t input,
                                  const device::DeviceTableSet& tables);

 private:
  std::map<std::pair<const netlist::Cell*, std::size_t>,
           std::vector<StagePath>>
      paths_;
  std::map<std::tuple<const netlist::Cell*, std::size_t, std::size_t>,
           CollapsedStage>
      collapsed_;
};

class ArcDelayCalculator {
 public:
  explicit ArcDelayCalculator(const device::DeviceTableSet& tables)
      : tables_(&tables) {}

  const device::DeviceTableSet& tables() const { return *tables_; }

  /// Evaluate the arc from `input_pin` (switching with `input_rising` and
  /// waveform `input_waveform`) to the cell output, driving `load`.
  /// Returns one result per stage path (mixed output directions possible
  /// for non-unate cells). `scratch`, if given, must not be shared between
  /// threads. `diag`, if given, attaches the fault-tolerance pipeline of
  /// solve_stage_waveform (diagnostics, policy, fault injection).
  std::vector<ArcResult> compute(const netlist::Cell& cell,
                                 std::size_t input_pin, bool input_rising,
                                 const util::Pwl& input_waveform,
                                 const OutputLoad& load,
                                 const IntegrationOptions& options = {},
                                 ArcScratch* scratch = nullptr,
                                 const util::DiagHandle* diag = nullptr) const;

  /// The threshold crossings of compute()'s results, one per stage path:
  /// the last hop stops once its crossing is final (solve_stage_start), so
  /// a caller that needs only the start time pays for the prefix of the
  /// output transition. Same arguments and contracts as compute().
  std::vector<ArcStart> starts(const netlist::Cell& cell,
                               std::size_t input_pin, bool input_rising,
                               const util::Pwl& input_waveform,
                               const OutputLoad& load,
                               const IntegrationOptions& options = {},
                               ArcScratch* scratch = nullptr,
                               const util::DiagHandle* diag = nullptr) const;

 private:
  /// The hop chain shared by compute() and starts(): solves every stage
  /// path, calling `last_hop(drive, load, result)` for the output stage,
  /// which fills the per-path result.
  template <typename Result, typename LastHop>
  std::vector<Result> solve_paths(const netlist::Cell& cell,
                                  std::size_t input_pin, bool input_rising,
                                  const util::Pwl& input_waveform,
                                  const OutputLoad& load,
                                  const IntegrationOptions& options,
                                  ArcScratch* scratch,
                                  const util::DiagHandle* diag,
                                  LastHop last_hop) const;

  const device::DeviceTableSet* tables_;
};

}  // namespace xtalk::delaycalc
