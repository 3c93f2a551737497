#include "analysis/scaling.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "tfrc/equation.hpp"
#include "tfrc/loss_history.hpp"

namespace tfmcc::scaling {

double expected_min_rate_Bps(const std::vector<double>& loss_rates,
                             const ModelConfig& cfg, Rng& rng) {
  const auto weights = LossHistory::weights(cfg.history_depth);
  const double wsum = std::accumulate(weights.begin(), weights.end(), 0.0);

  const auto depth = weights.size();
  std::vector<double> intervals(depth);

  // rng.exponential(mean) draws, from the engine taken once.
  Mt19937_64& gen = rng.engine();
  double acc = 0.0;
  for (int t = 0; t < cfg.trials; ++t) {
    double min_rate = std::numeric_limits<double>::infinity();
    for (const double p : loss_rates) {
      // TFRC weighted average of `depth` iid exponential intervals with
      // mean 1/p (the §3 independent-loss model); intervals[0] is newest.
      const double mean = 1.0 / p;
      std::exponential_distribution<double> exponential{1.0 / mean};
      for (auto& iv : intervals) iv = exponential(gen);
      double closed = 0.0;
      for (std::size_t i = 0; i < depth; ++i) closed += weights[i] * intervals[i];
      double avg = closed / wsum;
      if (cfg.include_open_interval) {
        // Age of the open interval at a random inspection time is again
        // exponential (memorylessness); TFRC counts it only when doing so
        // lowers the loss estimate.  Including it shifts the closed
        // intervals one weight slot older, exactly as
        // LossHistory::average_interval does.
        const double open = exponential(gen);
        double with_open = weights[0] * open;
        for (std::size_t i = 0; i + 1 < depth; ++i) {
          with_open += weights[i + 1] * intervals[i];
        }
        avg = std::max(avg, with_open / wsum);
      }
      const double p_est = 1.0 / std::max(avg, 1.0);
      const double rate =
          cfg.use_simple_equation
              ? tcp_model::simple_throughput_Bps(cfg.packet_bytes, cfg.rtt,
                                                 p_est)
              : tcp_model::throughput_Bps(cfg.packet_bytes, cfg.rtt, p_est);
      min_rate = std::min(min_rate, rate);
    }
    acc += min_rate;
  }
  return acc / cfg.trials;
}

double fair_rate_Bps(const std::vector<double>& loss_rates,
                     const ModelConfig& cfg) {
  const double worst = *std::max_element(loss_rates.begin(), loss_rates.end());
  return tcp_model::throughput_Bps(cfg.packet_bytes, cfg.rtt, worst);
}

std::vector<double> constant_losses(int n, double p) {
  return std::vector<double>(static_cast<std::size_t>(n), p);
}

std::vector<double> stratified_losses(int n, Rng& rng, double c) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  const int high = std::clamp(
      static_cast<int>(std::lround(c * std::log(std::max(2, n)))), 1, n);
  const int mid = std::clamp(
      static_cast<int>(std::lround(3.0 * c * std::log(std::max(2, n)))), 0,
      n - high);
  for (int i = 0; i < high; ++i) out.push_back(rng.uniform(0.05, 0.10));
  for (int i = 0; i < mid; ++i) out.push_back(rng.uniform(0.02, 0.05));
  for (int i = high + mid; i < n; ++i) out.push_back(rng.uniform(0.005, 0.02));
  return out;
}

}  // namespace tfmcc::scaling
