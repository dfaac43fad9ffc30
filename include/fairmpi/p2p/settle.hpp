// Typed-settle accounting (DESIGN.md §5h): the one table from settle code
// to SPC counter, trace event and error report, shared by the matching
// engine's posted-list walks and the rank's rendezvous walks.
#pragma once

#include "fairmpi/common/error.hpp"
#include "fairmpi/spc/spc.hpp"
#include "fairmpi/trace/trace.hpp"

namespace fairmpi::p2p {

struct SettleAccount {
  spc::Counter counter = spc::Counter::kCount;  ///< kCount: not counted
  trace::Event event = trace::Event::kNone;     ///< kNone: not traced
  bool report = false;  ///< via the rank's error sink (the engine has none)
};

constexpr SettleAccount settle_account(common::ErrorCode code) noexcept {
  using common::ErrorCode;
  switch (code) {
    // Counted only: a death is reported once by Rank::on_peer_dead, a
    // revocation by its caller.
    case ErrorCode::kPeerFailed: return {spc::Counter::kFtPeerFailedOps};
    case ErrorCode::kCommRevoked: return {spc::Counter::kFtRevokedOps};
    case ErrorCode::kDeadlineExceeded:
      return {spc::Counter::kDeadlineExceededOps, trace::Event::kDeadline, true};
    case ErrorCode::kCancelled: return {spc::Counter::kCancelledOps, trace::Event::kCancel};
    // Counted on receipt (kOverloadNacksReceived), reported once per NACK.
    case ErrorCode::kReceiverOverloaded: return {spc::Counter::kCount, trace::Event::kNone, true};
    default: return {};
  }
}

}  // namespace fairmpi::p2p
