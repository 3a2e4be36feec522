// libFuzzer harness for the service wire protocol: one input is one frame
// payload ([type][request_id][body]), fed through the exact decode paths the
// server runs on request payloads and the client runs on response payloads.
// Contract: any byte sequence either decodes or fails recoverably (decode()
// returns false, the WireReader goes sticky-poisoned) — never an exception,
// never a sanitizer report, never unbounded allocation (the limits below cap
// every length-prefixed field).
#include <cstdint>

#include "protocol_decode.hpp"
#include "util/wire.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // Tight limits keep a hostile length prefix from turning into a giant
  // allocation; the production server applies the same caps per frame.
  xtalk::util::WireLimits limits;
  limits.max_frame_bytes = 1u << 20;
  limits.max_string_bytes = 1u << 16;
  limits.max_array_items = 1u << 16;
  (void)xtalk::service::fuzz::decode_payload(data, size, limits);
  return 0;
}
