/**
 * Frame codec tests: the dispatch layer's claim that a payload is
 * either delivered bit-exactly or rejected loudly rests entirely on
 * this codec, so truncation, corruption, unknown types, and trailing
 * garbage are each pinned here.
 */

#include <gtest/gtest.h>

#include "net/frame.hh"

namespace a4
{
namespace
{

TEST(Frame, RoundTripsAllTypes)
{
    const Frame in{FrameType::Result, 0xDEADBEEFCAFEull,
                   "payload \x01\xFF bytes"};
    Frame out;
    std::string err;
    ASSERT_TRUE(decodeFrameBlob(encodeFrame(in), out, err)) << err;
    EXPECT_EQ(out.type, in.type);
    EXPECT_EQ(out.tag, in.tag);
    EXPECT_EQ(out.payload, in.payload);

    // Result is the only type: every other type byte is rejected by
    // type, ahead of the checksum it would also fail.
    for (int t = 0; t < 256; ++t) {
        if (t == int(FrameType::Result))
            continue;
        std::string bytes = encodeFrame(in);
        bytes[4] = char(t);
        EXPECT_FALSE(decodeFrameBlob(bytes, out, err)) << t;
        EXPECT_EQ(err, "unknown frame type") << t;
    }
}

TEST(Frame, RoundTripsEmptyAndBinaryPayloads)
{
    std::string all_bytes;
    for (int i = 0; i < 256; ++i)
        all_bytes.push_back(char(i));
    for (const std::string &payload :
         {std::string(), all_bytes, std::string(100000, '\0')}) {
        Frame out;
        std::string err;
        ASSERT_TRUE(decodeFrameBlob(
            encodeFrame(Frame{FrameType::Result, 7, payload}), out,
            err)) << err;
        EXPECT_EQ(out.payload, payload);
    }
}

TEST(Frame, RejectsEveryTruncationByLength)
{
    const std::string bytes =
        encodeFrame(Frame{FrameType::Result, 1, "0123456789"});
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        Frame out;
        std::string err;
        EXPECT_FALSE(
            decodeFrameBlob(bytes.substr(0, len), out, err))
            << "accepted a " << len << "-byte prefix";
        // Every prefix — a header cut short or a half-written payload
        // from a child that died mid-frame — reads as truncation.
        EXPECT_NE(err.find("truncated"), std::string::npos)
            << len << ": " << err;
    }
}

TEST(FrameReader, MidFrameReportsPartialBuffering)
{
    // The dispatcher buffers a child's pipe until EOF and decodes the
    // buffer once: EOF after half a frame is a truncated RESULT, and
    // the same buffer completed by the missing bytes decodes whole.
    const std::string bytes =
        encodeFrame(Frame{FrameType::Result, 1, "payload"});
    std::string buf = bytes.substr(0, bytes.size() / 2);
    Frame f;
    std::string err;
    EXPECT_FALSE(decodeFrameBlob(buf, f, err));
    EXPECT_NE(err.find("truncated"), std::string::npos) << err;
    buf += bytes.substr(bytes.size() / 2);
    err.clear();
    ASSERT_TRUE(decodeFrameBlob(buf, f, err)) << err;
    EXPECT_EQ(f.type, FrameType::Result);
    EXPECT_EQ(f.tag, 1u);
    EXPECT_EQ(f.payload, "payload");
}

TEST(Frame, RejectsEverySingleByteCorruption)
{
    const std::string bytes =
        encodeFrame(Frame{FrameType::Result, 3, "abcdef"});
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string bad = bytes;
        bad[i] ^= 0x01;
        Frame out;
        std::string err;
        // A flipped bit anywhere — magic, type, tag, length, payload,
        // checksum — must be rejected (never silently re-interpreted).
        EXPECT_FALSE(decodeFrameBlob(bad, out, err))
            << "accepted corruption at byte " << i;
    }
}

TEST(Frame, RejectsTrailingBytes)
{
    Frame out;
    std::string err;
    EXPECT_FALSE(decodeFrameBlob(
        encodeFrame(Frame{FrameType::Result, 1, "x"}) + "junk", out,
        err));
    EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

TEST(Frame, RejectsOversizePayloadLengthWithoutAllocating)
{
    // Hand-build a header announcing an absurd length; the decoder
    // must reject it at the header, not as a short 4 GiB payload.
    std::string bytes = encodeFrame(Frame{FrameType::Result, 1, "x"});
    for (int i = 0; i < 4; ++i)
        bytes[13 + i] = char(0xFF);
    Frame out;
    std::string err;
    EXPECT_FALSE(decodeFrameBlob(bytes, out, err));
    EXPECT_NE(err.find("oversize"), std::string::npos) << err;
}

TEST(Checksum, Fnv1a64MatchesKnownVectors)
{
    // Standard FNV-1a 64-bit test vectors.
    EXPECT_EQ(fnv1a64(std::string("")), 0xCBF29CE484222325ull);
    EXPECT_EQ(fnv1a64(std::string("a")), 0xAF63DC4C8601EC8Cull);
    EXPECT_EQ(fnv1a64(std::string("foobar")), 0x85944171F73967E8ull);
}

} // namespace
} // namespace a4
