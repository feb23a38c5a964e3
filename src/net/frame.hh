/**
 * @file
 * Framed-message codec for the dispatcher's result pipes.
 *
 * A frame is the unit in which a fork()ed sweep child returns its
 * payload to the parent. A truncated or corrupted payload is rejected
 * by length first (the header announces exactly how many bytes
 * follow) and by an FNV-1a-64 checksum second, never by downstream
 * parse luck.
 *
 * Wire layout (all integers little-endian):
 *
 *   magic   4 bytes  "A4F1" (frame format version 1)
 *   type    u8       FrameType
 *   tag     u64      correlation id (the job index)
 *   len     u32      payload byte count
 *   payload len bytes
 *   check   u64      fnv1a64 over type..payload (everything between
 *                    magic and check)
 *
 * decodeFrameBlob() is strict: the blob must contain exactly one
 * frame and nothing else.
 */

#ifndef A4_NET_FRAME_HH
#define A4_NET_FRAME_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace a4
{

/** Message kinds; a pipe carries only results. */
enum class FrameType : std::uint8_t
{
    Result = 3, ///< serialized Record payload of a finished point
};

/** One decoded frame. */
struct Frame
{
    FrameType type = FrameType::Result;
    std::uint64_t tag = 0;
    std::string payload;
};

/** Bytes before the payload (magic + type + tag + len). */
constexpr std::size_t kFrameHeaderSize = 4 + 1 + 8 + 4;

/** Bytes around the payload (header + trailing checksum). */
constexpr std::size_t kFrameOverhead = kFrameHeaderSize + 8;

/** Refuse absurd lengths before allocating (a Record payload for the
 *  largest sweeps is a few hundred KB; 256 MiB is sabotage). */
constexpr std::size_t kFrameMaxPayload = std::size_t(1) << 28;

/** FNV-1a-64 — the frame checksum. */
std::uint64_t fnv1a64(const void *data, std::size_t len);
std::uint64_t fnv1a64(const std::string &data);

/** Encode @p f into its wire bytes (fatal on oversize payload). */
std::string encodeFrame(const Frame &f);

/**
 * Strict one-shot decode: @p blob must hold exactly one well-formed
 * frame with no trailing bytes. Returns false with a diagnostic in
 * @p err on bad magic, oversize length, unknown type, truncation (by
 * length), checksum mismatch, or trailing garbage.
 */
bool decodeFrameBlob(const std::string &blob, Frame &out,
                     std::string &err);

} // namespace a4

#endif // A4_NET_FRAME_HH
