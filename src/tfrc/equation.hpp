#pragma once

#include <cstdint>

#include "util/sim_time.hpp"

namespace tfmcc {

/// The TCP throughput models of the paper.
///
/// Equation (1) is the full TCP-Reno response function of Padhye et al.
/// (used by TFRC and TFMCC as the control equation); `simple_` is the
/// Mathis et al. square-root model of Equation (4) (used by PGMCC-style
/// acker election and the fig. 7 model's Mathis variant).
namespace tcp_model {

/// Expected TCP throughput in bytes/second (Padhye model).
///
///   X = s / ( R*sqrt(2bp/3) + t_RTO * min(1, 3*sqrt(3bp/8)) * p * (1+32p^2) )
///
/// with t_RTO = 4R.  `b` is the number of packets acknowledged per ACK; the
/// protocol uses b = 1 (our TCP baseline ACKs every packet), while the
/// paper's fig. 17 curve corresponds to b = 2 (delayed ACKs).  `p` is the
/// loss event rate in (0, 1]; p <= 0 returns +inf.
double throughput_Bps(double packet_bytes, SimTime rtt, double p,
                      double b = 1.0);

/// The factors of `throughput_Bps` that depend on p alone (p in (0, 1]):
///   a = sqrt(2bp/3),  m = min(1, 3*sqrt(3bp/8)),  q = 1 + 32p^2.
/// Batches over a shared p compute them once and evaluate the overload
/// below per RTT; the scalar call goes through the same two steps, so both
/// paths give bit-identical results.
struct LossFactors {
  double p, a, m, q;
};
LossFactors loss_factors(double p, double b = 1.0);

/// X = s / (R*a + ((4R*m)*p)*q) for RTT `rtt_s` seconds.
inline double throughput_Bps(double packet_bytes, double rtt_s,
                             const LossFactors& f) {
  return packet_bytes / (rtt_s * f.a + 4.0 * rtt_s * f.m * f.p * f.q);
}

/// Loss event rate p that yields `rate_Bps` in the full model (inverse of
/// `throughput_Bps`, solved by bisection).  Clamped to [kMinLossRate, 1].
double loss_for_throughput(double packet_bytes, SimTime rtt, double rate_Bps,
                           double b = 1.0);

/// Simplified (Mathis) model:  X = s * k / (R * sqrt(p)),  k = sqrt(3/2).
double simple_throughput_Bps(double packet_bytes, SimTime rtt, double p);

/// Loss events per RTT at steady state (Appendix A, fig. 17):
///   L(p) = p * X(p) * R / s
/// whose maximum over p is ~0.13 with the paper's b = 2 model (the basis of
/// the initial-RTT safety argument; with b = 1 the peak is ~0.19).
double loss_events_per_rtt(double p, double b = 2.0);

constexpr double kMinLossRate = 1e-8;
constexpr double kMathisConstant = 1.224744871391589;  // sqrt(3/2)

}  // namespace tcp_model

}  // namespace tfmcc
