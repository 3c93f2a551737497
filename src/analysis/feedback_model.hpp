#pragma once

#include "tfmcc/config.hpp"

namespace tfmcc::feedback_model {

/// Expected number of feedback messages per round (§2.5.4, fig. 4).
///
/// Model: n receivers draw timers t_i = T' * g(u_i) from the (possibly
/// biased) exponential timer transform; the first response reaches the
/// other receivers after network delay D (for unicast feedback channels,
/// D = one RTT: receiver -> sender -> echo -> receivers).  A receiver
/// responds iff its timer fires at most D after the earliest timer:
///
///   E[M] = n * E_u[ (1 - F(g(u) * T' - D))^(n-1) ]
///
/// evaluated by numeric integration over u (the timer transform is shared
/// with the live protocol, so this is the production code path).
///
/// All times are in RTT units; `t_max` is T', `delay` is D, `x` the rate
/// ratio used by the biased methods (worst case: all receivers equal).
double expected_messages(int n, double t_max, double delay, double x,
                         const FeedbackTimerConfig& cfg);

}  // namespace tfmcc::feedback_model
