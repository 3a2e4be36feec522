// Decode one protocol payload ([type][request_id][body], no length prefix)
// the way the receiving side would: request types take the server's path,
// response types the client's. Shared by the protocol fuzz harness and the
// tier-1 check that every committed seed decodes completely.
#pragma once

#include <cstddef>
#include <cstdint>

#include "service/protocol.hpp"
#include "util/wire.hpp"

namespace xtalk::service::fuzz {

namespace detail {

template <typename Msg>
bool decode_all(util::WireReader& r) {
  Msg m;
  return m.decode(r) && r.finish();
}

inline bool decode_u32_body(util::WireReader& r) {
  std::uint32_t v = 0;
  return r.u32(&v) && r.finish();
}

}  // namespace detail

/// True iff the payload's prologue and its whole body decode with no bytes
/// left over. Total over arbitrary bytes: a bad input returns false with the
/// reader poisoned, never an exception.
inline bool decode_payload(const std::uint8_t* data, std::size_t size,
                           const util::WireLimits& limits) {
  util::WireReader r(data, size, limits);
  MsgType type = MsgType::kError;
  std::uint32_t request_id = 0;
  if (!read_prologue(r, &type, &request_id)) return false;
  switch (type) {
    case MsgType::kHello:
      // Server rule: an empty body is a legacy v1 hello, otherwise decode.
      return r.remaining() == 0 || detail::decode_all<HelloMsg>(r);
    case MsgType::kRunSta:
    case MsgType::kQueryEndpoints:
    case MsgType::kEcoOpen:
      return detail::decode_all<RunSpec>(r);
    case MsgType::kQuerySlack:
      return detail::decode_all<SlackQueryMsg>(r);
    case MsgType::kEcoEdit:
      return detail::decode_all<EcoEditMsg>(r);
    case MsgType::kEcoResume:
      return detail::decode_all<EcoResumeMsg>(r);
    case MsgType::kEcoRun:
    case MsgType::kEcoClose:
    case MsgType::kEcoEditOk:
      return detail::decode_u32_body(r);
    case MsgType::kHelloOk:
      return detail::decode_all<HelloOkMsg>(r);
    case MsgType::kRunResult:
      return detail::decode_all<RunResultMsg>(r);
    case MsgType::kEcoOpened:
      return detail::decode_all<EcoOpenedMsg>(r);
    case MsgType::kEcoResumed:
      return detail::decode_all<EcoResumedMsg>(r);
    case MsgType::kEndpoints:
      return detail::decode_all<EndpointsMsg>(r);
    case MsgType::kSlack:
      return detail::decode_all<SlackMsg>(r);
    case MsgType::kStats:
      return detail::decode_all<StatsMsg>(r);
    case MsgType::kHealthOk:
      return detail::decode_all<HealthMsg>(r);
    case MsgType::kError:
      return detail::decode_all<ErrorMsg>(r);
    default:
      // Prologue-valid types with empty bodies (ping, health, shutdown,
      // stats request, acks): the finish() check is the whole decode.
      return r.finish();
  }
}

}  // namespace xtalk::service::fuzz
