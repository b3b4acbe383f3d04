// Spike-activity probe records.
//
// The paper's argument is that the structural parameters (V_th, T) govern
// spike activity, and spike activity governs both learnability (Fig. 6)
// and PGD robustness (Figs. 7-9). ActivityStats is the unit of evidence:
// per-layer firing rate, raw spike counts, the silent/saturated neuron
// fractions and a fixed-bucket membrane-potential histogram. snn::LifLayer
// and snn::AlifLayer fill one per probed forward; core::RobustnessExplorer
// attaches a vector of them to every (V_th, T) grid cell.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace snnsec::obs {

/// Linear fixed-bucket layout for membrane-potential histograms: `buckets`
/// equal-width bins over [lo, hi), with values outside clamped into the
/// first/last bin.
struct MembraneHistSpec {
  double lo = -1.0;
  double hi = 3.0;
  int buckets = 16;

  /// Range derived from the layer's actual firing threshold: [-Vth, 2*Vth).
  /// The default [-1, 3) is only right for Vth = 1 — a high-Vth replica
  /// clamps most of its sub-threshold mass into the last bucket, which is
  /// exactly the regime the (V_th, T) sweeps care about. Degenerate
  /// thresholds fall back to the unit range so the spec stays well-formed.
  static MembraneHistSpec for_threshold(double v_th, int buckets = 16) {
    MembraneHistSpec spec;
    const double th = v_th > 0.0 ? v_th : 1.0;
    spec.lo = -th;
    spec.hi = 2.0 * th;
    spec.buckets = buckets;
    return spec;
  }

  int index(double v) const {
    if (!(v > lo)) return 0;  // negated so NaN lands in bucket 0, not UB
    if (v >= hi) return buckets - 1;
    const int i =
        static_cast<int>((v - lo) / (hi - lo) * static_cast<double>(buckets));
    return i < buckets ? i : buckets - 1;
  }
  double bucket_lo(int i) const {
    return lo + (hi - lo) * static_cast<double>(i) /
                    static_cast<double>(buckets);
  }
};

/// Activity of one spiking layer over one probed forward pass.
struct ActivityStats {
  std::string layer;  ///< e.g. "lif0"

  double firing_rate = 0.0;        ///< mean spike prob per neuron-step
  std::int64_t spike_count = 0;    ///< total spikes in the window
  std::int64_t neuron_steps = 0;   ///< neurons x time steps observed
  std::int64_t neurons = 0;        ///< per-step population size (N x F)
  double silent_fraction = 0.0;    ///< neurons that never fired over T
  double saturated_fraction = 0.0; ///< neurons that fired on every step

  // Pre-reset membrane potential distribution.
  MembraneHistSpec v_spec;
  std::vector<std::int64_t> v_hist;  ///< v_spec.buckets entries
  double v_mean = 0.0;
  double v_min = 0.0;
  double v_max = 0.0;

  /// One-line human-readable rendering.
  std::string summary() const;
};

/// Emit one set of per-layer activity stats as metric events and update the
/// aggregate "snn.*" series. `extra` labels (e.g. {{"v_th","1"},{"T","16"}})
/// tag which grid cell produced the stats.
void record_activity(const std::vector<ActivityStats>& stats,
                     const Labels& extra = {});

}  // namespace snnsec::obs
