#include "analysis/feedback_round.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "tfmcc/feedback_timer.hpp"
#include "tfmcc/receiver_core.hpp"

namespace tfmcc::feedback_round {

std::vector<double> uniform_values(int n, double lo, double hi, Rng& rng) {
  std::vector<double> v(static_cast<std::size_t>(n));
  // rng.uniform(lo, hi), drawing from the engine taken once.
  Mt19937_64& gen = rng.engine();
  for (auto& x : v) x = Rng::canonical(gen()) * (hi - lo) + lo;
  return v;
}

RoundResult simulate(std::span<const double> values, const RoundConfig& cfg,
                     Rng& rng, bool keep_outcomes) {
  const auto n = values.size();
  RoundResult res;
  res.true_min = *std::min_element(values.begin(), values.end());

  struct Entry {
    double t;
    double value;
    std::size_t idx;
  };
  std::vector<Entry> entries;
  entries.reserve(n);
  // feedback_timer::draw per receiver, drawing from the engine taken once.
  Mt19937_64& gen = rng.engine();
  for (std::size_t i = 0; i < n; ++i) {
    const double u = 1.0 - Rng::canonical(gen());
    const double t =
        feedback_timer::from_uniform(u, values[i], cfg.timer) * cfg.t_max;
    entries.push_back({t, values[i], i});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.t < b.t; });

  if (keep_outcomes) res.outcomes.resize(n);

  // Walk receivers in timer order.  `echo_best[k]` tracks the lowest value
  // among responses sent at time <= some t; a receiver firing at t hears
  // (via the sender echo) every response sent at or before t - rtt.
  struct Sent {
    double t;
    double value;
  };
  std::vector<Sent> sent;  // in send-time order
  double running_best = std::numeric_limits<double>::infinity();
  std::vector<double> best_by_send;  // prefix minimum of sent values
  std::size_t heard = 0;             // sent[0..heard) have reached everyone

  res.first_time = 0.0;
  res.best_value = std::numeric_limits<double>::infinity();
  res.best_time = 0.0;

  for (const Entry& e : entries) {
    // Advance the "heard" frontier: echoes of responses sent at or before
    // e.t - rtt have arrived at all receivers.
    while (heard < sent.size() && sent[heard].t <= e.t - cfg.rtt) ++heard;

    bool suppressed = false;
    if (heard > 0) {
      const double v = best_by_send[heard - 1];
      suppressed = delta_cancels(v, e.value, cfg.delta);
    }

    if (keep_outcomes) {
      res.outcomes[e.idx] = {e.value, e.t, !suppressed};
    }
    if (suppressed) continue;

    ++res.responses;
    const double arrival = e.t + cfg.rtt / 2.0;
    if (res.responses == 1) res.first_time = arrival;
    if (e.value < res.best_value) {
      res.best_value = e.value;
      res.best_time = arrival;
    }
    sent.push_back({e.t, e.value});
    running_best = std::min(running_best, e.value);
    best_by_send.push_back(running_best);
  }
  return res;
}

}  // namespace tfmcc::feedback_round
