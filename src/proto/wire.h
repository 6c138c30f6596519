// Binary wire format for proto::Message, used by the TCP transport. A
// frame on the wire is:
//   u32 length (of everything after this field, little-endian)
//   u8  message type (variant index)
//   ... payload fields in declaration order
// Integers are little-endian; strings are u32 length + bytes.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "proto/messages.h"

namespace scalla::proto {

/// Serializes a message, WITHOUT the outer length prefix (the transport
/// adds framing).
std::string Encode(const Message& message);

/// Appends the encoding of `message` to `out`. With a pooled buffer of
/// sufficient capacity this performs no allocation — the TCP send path
/// uses it to reuse frame buffers across messages.
void EncodeAppend(const Message& message, std::string& out);

/// EncodeAppend without copying bulk bytes. A message whose last field is
/// bulk data (XrdReadResp::data, XrdWrite::data) has that string moved out
/// into `payload`, and `out` gets every other byte of its encoding, ending
/// with the data field's length: `out` followed by `payload` is exactly
/// what EncodeAppend would have appended. Any other message is encoded
/// whole into `out` and leaves `payload` empty. The TCP send path writes
/// the two buffers as one frame of two iovecs.
void EncodeAppendSplit(Message& message, std::string& out, std::string& payload);

/// Parses a frame body produced by Encode. std::nullopt on malformed input
/// (truncation, unknown type, oversized string).
std::optional<Message> Decode(std::string_view body);

/// Maximum accepted frame body; protects the decoder from hostile lengths.
inline constexpr std::size_t kMaxFrameBody = 64 * 1024 * 1024;

}  // namespace scalla::proto
