#include "tfmcc/sender.hpp"

namespace tfmcc {

TfmccSender::TfmccSender(Simulator& sim, MulticastSession& session,
                         TfmccConfig cfg)
    : sim_{sim}, session_{session}, core_{cfg} {
  session_.topology()
      .node(session_.source())
      .attach_agent(session_.control_port(), this);
}

TfmccSender::~TfmccSender() {
  session_.topology().node(session_.source()).detach_agent(session_.control_port());
}

void TfmccSender::start(SimTime at) {
  sim_.at(at, [this] {
    running_ = true;
    start_round();
    send_data();
  });
}

void TfmccSender::stop() {
  running_ = false;
  sim_.cancel(round_timer_);
  sim_.cancel(send_timer_);
}

void TfmccSender::start_round() {
  core_.on_round(sim_.now());
  sim_.cancel(round_timer_);
  round_timer_ = sim_.in(core_.round_duration(), [this] {
    if (running_) start_round();
  });
}

void TfmccSender::send_data() {
  if (!running_) return;
  auto pkt = sim_.make_packet();
  pkt->src = session_.source();
  pkt->sport = session_.control_port();
  pkt->dport = session_.data_port();
  pkt->group = session_.group();
  pkt->size_bytes = kDataPacketBytes;
  pkt->header = core_.next_data(sim_.now());
  session_.send_from_source(std::move(pkt));
  send_timer_ = sim_.in(core_.send_interval(), [this] { send_data(); });
}

void TfmccSender::handle_packet(const Packet& p) {
  if (const auto* f = p.tfmcc_feedback()) core_.on_feedback(sim_.now(), *f);
}

}  // namespace tfmcc
