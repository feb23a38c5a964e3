#include "net/frame.hh"

#include <cstring>

#include "sim/log.hh"

namespace a4
{

namespace
{

constexpr char kMagic[4] = {'A', '4', 'F', '1'};

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(char((v >> (8 * i)) & 0xFF));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(char((v >> (8 * i)) & 0xFF));
}

std::uint32_t
getU32(const char *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= std::uint32_t(static_cast<unsigned char>(p[i])) << (8 * i);
    return v;
}

std::uint64_t
getU64(const char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t(static_cast<unsigned char>(p[i])) << (8 * i);
    return v;
}

} // namespace

std::uint64_t
fnv1a64(const void *data, std::size_t len)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

std::uint64_t
fnv1a64(const std::string &data)
{
    return fnv1a64(data.data(), data.size());
}

std::string
encodeFrame(const Frame &f)
{
    if (f.payload.size() > kFrameMaxPayload)
        fatal(sformat("frame: payload of %zu bytes exceeds the %zu "
                      "byte limit", f.payload.size(), kFrameMaxPayload));
    std::string out;
    out.reserve(kFrameOverhead + f.payload.size());
    out.append(kMagic, sizeof(kMagic));
    out.push_back(char(f.type));
    putU64(out, f.tag);
    putU32(out, std::uint32_t(f.payload.size()));
    out += f.payload;
    // Checksum covers type..payload: everything the magic doesn't pin.
    putU64(out, fnv1a64(out.data() + sizeof(kMagic),
                        out.size() - sizeof(kMagic)));
    return out;
}

bool
decodeFrameBlob(const std::string &blob, Frame &out, std::string &err)
{
    const std::size_t have = blob.size();
    const char *p = blob.data();
    const auto truncated = [&] {
        err = sformat("truncated frame (%zu bytes)", have);
        return false;
    };
    if (have < kFrameHeaderSize)
        return truncated();
    if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0) {
        err = "bad magic";
        return false;
    }
    const std::uint8_t type = std::uint8_t(p[4]);
    const std::uint32_t len = getU32(p + 13);
    if (len > kFrameMaxPayload) {
        err = "oversize payload length";
        return false;
    }
    if (type != std::uint8_t(FrameType::Result)) {
        err = "unknown frame type";
        return false;
    }
    if (have < kFrameOverhead + len)
        return truncated();
    const std::uint64_t want = getU64(p + kFrameHeaderSize + len);
    const std::uint64_t got = fnv1a64(
        p + sizeof(kMagic), kFrameHeaderSize - sizeof(kMagic) + len);
    if (want != got) {
        err = "checksum mismatch";
        return false;
    }
    if (have > kFrameOverhead + len) {
        err = "trailing bytes after frame";
        return false;
    }
    out.type = FrameType(type);
    out.tag = getU64(p + 5);
    out.payload.assign(p + kFrameHeaderSize, len);
    return true;
}

} // namespace a4
